"""Execution model: validation, cost accounting, elision, rotation-model
conversions, and the plain-text formats."""

import pytest

from splaylab.families import generate
from splaylab.model import (
    Execution,
    Instance,
    InvalidExecutionError,
    RotationAccess,
    RotationExecution,
    _closure_both,
    _connect_keys,
    algorithm_trace,
    elide,
    format_execution,
    format_instance,
    from_rotation_model,
    parse_execution,
    parse_instance,
    rotation_trace,
    smallest_root_subtree,
    subsequence_instance,
    to_rotation_model,
    validate,
)
from splaylab.tree import (
    KeyAbsentError,
    Node,
    SymmetricOrderError,
    bst_from_sequence,
    left_spine_tree,
    parse_shape,
    path_nodes,
    right_spine_tree,
    root_subtree,
    shape_print,
    size,
    tree_keys,
)

from conftest import make_random_execution, make_random_instance


def cost8_instance():
    """A three-access execution of total cost 2 + 4 + 2 = 8."""
    t = bst_from_sequence([2, 1, 4, 3, 6, 5])
    e = Execution(
        (
            parse_shape("(1 . (2 . .))"),
            parse_shape("(2 (1 . .) (6 (4 . .) .))"),
            parse_shape("(6 (2 . .) .)"),
        )
    )
    return Instance((1, 2, 6), t), e


class TestValidate:
    def test_root_access_costs_one(self):
        t = bst_from_sequence([2, 1, 3])
        trace = validate(Instance((2,), t), Execution((Node(2),)))
        assert trace.cost == 1
        assert trace.final_tree == t

    def test_cost_eight_example(self):
        inst, e = cost8_instance()
        trace = validate(inst, e)
        assert trace.cost == 8
        assert [size(s.transition) for s in trace.steps] == [2, 4, 2]

    def test_transition_missing_key(self):
        t = bst_from_sequence([2, 1, 3])
        # Requesting 1 with a transition that spans {1, 2, 3} but omits 2's
        # position... here: transition on the wrong key set entirely.
        bad = Execution((parse_shape("(1 . (3 . .))"),))
        with pytest.raises(InvalidExecutionError):
            validate(Instance((1,), t), bad)

    def test_root_must_be_requested_key(self):
        t = bst_from_sequence([2, 1, 3])
        bad = Execution((parse_shape("(2 (1 . .) .)"),))
        with pytest.raises(InvalidExecutionError):
            validate(Instance((1,), t), bad)

    def test_length_mismatch(self):
        t = bst_from_sequence([2, 1, 3])
        with pytest.raises(InvalidExecutionError):
            validate(Instance((1, 2), t), Execution((Node(1),)))

    def test_out_of_order_transition_rejected(self):
        # {2, 3} is a connected root subtree, but (3 . (2 . .)) puts 2 right
        # of 3; substituting it would drop keys 1 and 4 from the tree.
        t = bst_from_sequence([2, 1, 3, 4])
        bad = Execution((Node(3, None, Node(2)),))
        with pytest.raises(InvalidExecutionError) as err:
            validate(Instance((3,), t), bad)
        assert isinstance(err.value.__cause__, SymmetricOrderError)

    def test_cost_at_least_request_count(self, rng):
        for _ in range(50):
            inst = make_random_instance(rng, rng.randint(1, 6), rng.randint(1, 4))
            e = make_random_execution(rng, inst)
            assert validate(inst, e).cost >= inst.m


class TestElide:
    def test_empty_deletion_is_identity(self):
        inst, e = cost8_instance()
        assert elide(inst, e, set()) == e

    def test_delete_all_gives_empty_execution(self):
        inst, e = cost8_instance()
        out = elide(inst, e, {1, 2, 3})
        assert len(out) == 0 and out.cost == 0

    def test_middle_deletion_strictly_cheaper(self):
        inst, e = cost8_instance()
        out = elide(inst, e, {2})
        trace = validate(subsequence_instance(inst, {2}), out)
        assert trace.cost < validate(inst, e).cost

    def test_out_of_range(self):
        inst, e = cost8_instance()
        with pytest.raises(IndexError):
            elide(inst, e, {9})

    def test_always_validates_and_never_costlier(self, rng):
        for _ in range(120):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(1, 4))
            e = make_random_execution(rng, inst)
            full = validate(inst, e).cost
            deleted = {i for i in range(1, inst.m + 1) if rng.random() < 0.4}
            out = elide(inst, e, deleted)
            trace = validate(subsequence_instance(inst, deleted), out)
            if deleted:
                assert trace.cost < full
            else:
                assert trace.cost == full


def naive_connect_keys(t, keys):
    return frozenset(node.key for k in keys for node in path_nodes(t, k))


class TestClosures:
    def test_connect_keys_matches_access_paths(self, rng):
        for _ in range(300):
            inst = make_random_instance(rng, rng.randint(1, 12), 1)
            t = inst.initial
            keys = set(rng.sample(range(1, size(t) + 1), rng.randint(0, size(t))))
            assert _connect_keys(t, keys) == naive_connect_keys(t, keys)
            if keys:
                expected = root_subtree(t, naive_connect_keys(t, keys))
                assert smallest_root_subtree(t, keys) == expected

    def test_connect_keys_absent_key(self):
        t = bst_from_sequence([4, 2, 6])
        with pytest.raises(KeyAbsentError):
            _connect_keys(t, {2, 5})
        with pytest.raises(KeyAbsentError):
            _connect_keys(None, {1})
        assert _connect_keys(None, set()) == frozenset()

    def test_closure_both_is_closed_in_both_trees(self, rng):
        for _ in range(300):
            n = rng.randint(1, 12)
            a = make_random_instance(rng, n, 1).initial
            b = make_random_instance(rng, n, 1).initial
            keys = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            span = _closure_both(a, b, keys)
            assert keys <= span
            assert naive_connect_keys(a, span) == span == naive_connect_keys(b, span)
            # Smallest: every key of the closure is forced by the fixpoint.
            cur = frozenset(keys)
            while True:
                grown = naive_connect_keys(b, naive_connect_keys(a, cur))
                if grown == cur:
                    break
                cur = grown
            assert span == cur


class TestDeepSpine:
    def test_trace_validate_elide_on_20000_key_spine(self):
        # Sequential access of a 20000-key left spine: the first step's
        # subtree holds every key, far past the recursion limit.
        n = 20_000
        inst = generate("sequential", n=n).instance
        trace = algorithm_trace(inst, "splay")
        assert trace.steps[0].encoding == "0" * (n - 1)
        assert size(trace.steps[0].subtree) == n
        e = Execution(tuple(step.transition for step in trace.steps))
        assert e.cost == trace.cost
        assert validate(inst, e).cost == trace.cost
        deleted = range(2, n + 1, 4)
        elided = elide(inst, e, deleted)
        assert validate(subsequence_instance(inst, deleted), elided).cost < trace.cost

    def test_shape_and_execution_text_on_20000_key_spines(self):
        # Both spines nest far deeper than the recursion limit: the left one
        # through left children, the right one through right children.
        for spine in (left_spine_tree(range(1, 20_001)), right_spine_tree(range(1, 20_001))):
            assert parse_shape(shape_print(spine)) == spine
            # Accessing the root with the whole spine as its transition tree.
            e = Execution((spine,))
            parsed = parse_execution(format_execution(e))
            assert parsed == e
            assert validate(Instance((spine.key,), spine), parsed).cost == 20_000


class TestRotationModel:
    def test_identity_transitions_cost_m(self):
        t = bst_from_sequence([2, 1, 3])
        inst = Instance((2, 2), t)
        e = Execution((Node(2), Node(2)))
        r = to_rotation_model(inst, e)
        assert all(not acc.rotations for acc in r.accesses)
        assert rotation_trace(inst, r).cost == 2

    def test_spine_reversal_within_four_rotations(self):
        t = left_spine_tree([1, 2, 3])
        inst = Instance((1,), t)
        e = Execution((parse_shape("(1 . (2 . (3 . .)))"),))
        r = to_rotation_model(inst, e)
        assert len(r.accesses[0].rotations) <= 4

    def test_bounds_and_round_trip_random(self, rng):
        for _ in range(200):
            inst = make_random_instance(rng, rng.randint(1, 6), rng.randint(1, 4))
            e = make_random_execution(rng, inst)
            trace = validate(inst, e)
            r = to_rotation_model(inst, e)
            rt = rotation_trace(inst, r)
            assert rt.cost <= 3 * trace.cost
            assert all(d == 0 for d in rt.search_depths)
            back = from_rotation_model(inst, r)
            back_trace = validate(inst, back)
            assert back_trace.cost <= 4 * rt.cost
            assert back_trace.final_tree == trace.final_tree

    def test_from_rotation_on_plain_searches(self):
        t = bst_from_sequence([2, 1, 3])
        inst = Instance((2, 2), t)
        r = RotationExecution((RotationAccess(()), RotationAccess(())))
        e = from_rotation_model(inst, r)
        assert validate(inst, e).cost == 2

    def test_single_connected_group_size_bound(self, rng):
        # One access whose rotations form a connected root group collapses
        # to a single transition with at most 2e + 1 keys.
        from splaylab.tree import rotate

        for _ in range(100):
            n = rng.randint(2, 6)
            inst = make_random_instance(rng, n, 1)
            t = inst.initial
            rots = []
            cur = t
            x = inst.requests[0]
            for _ in range(rng.randint(1, 3)):
                # rotate only at children of the root to stay connected
                child = cur.left or cur.right
                if child is None:
                    break
                rots.append(child.key)
                cur = rotate(cur, child.key)
            r = RotationExecution((RotationAccess(tuple(rots)),))
            e = from_rotation_model(inst, r)
            assert size(e.transition_trees[0]) <= 2 * (len(rots) + n) + 1


class TestTextFormats:
    def test_instance_roundtrip(self):
        inst, _ = cost8_instance()
        text = format_instance(inst, (1, 6))
        parsed, sub = parse_instance(text)
        assert parsed.requests == inst.requests
        assert parsed.initial == inst.initial
        assert sub == (1, 6)

    def test_execution_roundtrip(self):
        _, e = cost8_instance()
        assert parse_execution(format_execution(e)) == e

    def test_missing_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_instance("tree: 1 2 3\n")

    def test_duplicate_tree_key_rejected(self):
        with pytest.raises(ValueError, match="key 2 appears more than once"):
            parse_instance("tree: 2 1 2\nrequests: 1\n")
