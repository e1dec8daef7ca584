"""Execution model: validation, cost accounting, elision, rotation-model
conversions, and the instance and shape text formats."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splaylab.model
import splaylab.tree
from splaylab.algorithms import access_tree
from splaylab.families import generate
from splaylab.model import (
    Execution,
    Instance,
    InvalidExecutionError,
    RotationAccess,
    RotationExecution,
    RotationTrace,
    _closure_both,
    _connect_keys,
    _rotation_accesses,
    _vine_rotations,
    algorithm_trace,
    elide,
    format_instance,
    from_rotation_model,
    parse_instance,
    rotation_trace,
    rotations_between,
    smallest_root_subtree,
    subsequence_instance,
    to_rotation_model,
    validate,
)
from splaylab.opt import opt_cost
from splaylab.tree import (
    InvariantError,
    KeyAbsentError,
    Node,
    RotationAtRootError,
    SymmetricOrderError,
    all_shapes,
    bst_from_sequence,
    left_spine_tree,
    parse_key,
    parse_shape,
    path_nodes,
    preorder,
    root_subtree,
    rotate,
    rotate_path,
    shape_print,
    size,
    substitute,
)

from conftest import make_random_execution, make_random_instance, path_encoding

# Arbitrary text, and text assembled from the formats' own tokens and from
# near-miss keys, so the parsers get past their first token.
_TOKENS = [
    "(", ")", ".", " ", "\n", "1", "2", "-3", "0", "17", "x", "+2", "1_0", "\u0663", "\uff11",
    "tree:", "requests:", "subsequence:",
]
TEXTS = st.one_of(st.text(max_size=60), st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join))
KEY_LISTS = st.lists(st.integers(-50, 50), unique=True, min_size=1, max_size=12)


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


class TestInstance:
    def test_absent_request_rejected(self):
        with pytest.raises(KeyAbsentError):
            Instance((1, 7), bst_from_sequence([2, 1, 3]))

    def test_subsequence_equals_checked_instance(self, rng):
        for _ in range(50):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(0, 5))
            deleted = {i for i in range(1, inst.m + 1) if rng.random() < 0.5}
            kept = tuple(x for i, x in enumerate(inst.requests, 1) if i not in deleted)
            assert subsequence_instance(inst, deleted) == Instance(kept, inst.initial)


class TestRecords:
    """Instances, executions, traces and oracle results are tuples: an
    instance still checks its keys, and each copies, pickles and compares by
    value."""

    @pytest.mark.parametrize("by_keyword", [False, True])
    def test_instance_checks_its_keys(self, by_keyword):
        def build(requests, initial):
            if by_keyword:
                return Instance(requests=requests, initial=initial)
            return Instance(requests, initial)

        t = bst_from_sequence([2, 1, 3])
        with pytest.raises(ValueError, match="initial tree must be nonempty"):
            build((1,), None)
        with pytest.raises(KeyAbsentError) as err:
            build((1, 7, 4), t)
        assert err.value.args == ([7, 4],)
        inst = build((1, 3), t)
        assert (inst.requests, inst.initial, inst.m, inst.n) == ((1, 3), t, 2, 3)

    def test_subsequence_instance_is_an_instance(self):
        inst = Instance((1, 3, 2), bst_from_sequence([2, 1, 3]))
        sub = subsequence_instance(inst, {2})
        assert type(sub) is Instance and sub.requests == (1, 2) and sub.initial is inst.initial

    def test_records_round_trip_through_deepcopy_and_pickle(self):
        inst = Instance((3, 1, 3), bst_from_sequence([2, 1, 3]))
        result = opt_cost(inst)
        for record in (inst, result.execution, result.trace, result):
            for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert type(copied) is type(record) and copied == record
        assert result.execution.transition_trees is result.execution

    def test_empty_execution_has_length_zero(self):
        assert len(Execution(())) == 0 and Execution(()).cost == 0


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

    @pytest.mark.parametrize("q_prime, reason", [
        (None, "empty transition tree"),
        (Node(2, None, Node(9)), "key-set mismatch: [9]"),
        (Node(2, Node(3)), "transition tree is not a search tree: key 2 follows 3 in symmetric order"),
        # Disconnected and out of order: the connectivity reason comes first.
        (Node(2, Node(4)),
         "subtree not connected through root: keys [2, 4] are not connected through the root"),
        (Node(2, None, Node(2)), "transition tree is not a search tree: key 2 follows 2 in symmetric order"),
    ])
    def test_invalid_transition_names_its_reason(self, q_prime, reason):
        t = bst_from_sequence([2, 1, 3, 4])
        with pytest.raises(InvalidExecutionError) as err:
            validate(Instance((2,), t), Execution((q_prime,)))
        assert (err.value.step, err.value.reason) == (1, reason)

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

    @pytest.mark.parametrize("deleted", [set(), {2}])
    def test_invalid_execution_rejected_with_any_deletion_set(self, deleted):
        # One transition tree for two requests is invalid whether or not
        # anything is deleted.
        inst = Instance((1, 3), bst_from_sequence([2, 1, 3]))
        with pytest.raises(InvalidExecutionError, match="1 transition trees for 2 requests"):
            elide(inst, Execution((Node(3),)), deleted)

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
        assert path_encoding(inst.initial, 1) == "0" * (n - 1)
        assert size(trace.steps[0].subtree) == n
        e = Execution(tuple(step.transition for step in trace.steps))
        assert e.cost == trace.cost
        assert validate(inst, e).cost == trace.cost
        deleted = range(2, n + 1, 4)
        elided = elide(inst, e, deleted)
        assert validate(subsequence_instance(inst, deleted), elided).cost < trace.cost

    def test_rotation_model_round_trip_on_20000_key_spine(self):
        # Splay's execution of sequential access on a 20000-key left spine,
        # through both conversions: each access's listed rotations comb a
        # deep subtree, so walking each one from the root is quadratic.
        inst = generate("sequential", n=20_000).instance
        trace = algorithm_trace(inst, "splay")
        r = to_rotation_model(inst, Execution(tuple(step.transition for step in trace.steps)))
        assert sum(len(acc.rotations) for acc in r.accesses) == 136_498
        assert rotation_trace(inst, r).cost == 156_498
        back = from_rotation_model(inst, r)
        text = "\n".join(" ".join(map(str, preorder(q))) for q in back.transition_trees)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ad4945a2bb7bfc67fde730923aa22b68678d49a50752e85a13c9644729c793ef"
        )
        assert validate(inst, back).final_tree == trace.final_tree

    def test_shape_and_execution_text_on_20000_key_spines(self):
        # Both spines nest far deeper than the recursion limit: the left one
        # through left children, the right one through right children.
        for spine in (left_spine_tree(range(1, 20_001)), bst_from_sequence(range(1, 20_001))):
            assert parse_shape(shape_print(spine)) == spine
            # Accessing the root with the whole spine as its transition tree.
            e = Execution((spine,))
            assert validate(Instance((spine.key,), spine), e).cost == 20_000


# Independent references for the rotation-model conversions: the comb
# rotates on the whole tree, and the back conversion finds each access's
# component by union-find and replays its kept rotations from the access's
# start tree.


def reference_vine_rotations(q):
    out = []
    t = q
    steps = 0  # right-steps from the root to the working position
    while True:
        node = t
        for _ in range(steps):
            node = node.right
        if node is None:
            break
        if node.left is not None:
            out.append((node.left.key, node.key))
            t = rotate(t, node.left.key)
        else:
            steps += 1
    return out


def reference_rotations_between(q, q_prime):
    if q == q_prime:
        return []
    forward = [k for k, _ in reference_vine_rotations(q)]
    backward = [p for _, p in reversed(reference_vine_rotations(q_prime))]
    return forward + backward


def reference_from_rotation_model(inst, r, stats=None):
    """``stats``, when given, counts the accesses that lift the requested
    key ("lifts") and those that defer a rotation ("defers")."""
    t = inst.initial
    transition_trees = []
    pending = []
    last = inst.m
    for i, (x, acc) in enumerate(zip(inst.requests, r.accesses), start=1):
        work = t
        edges = []
        for k in (*pending, *acc.rotations):
            edges.append((k, path_nodes(work, k)[-2].key))
            work = rotate(work, k)
        undo = []
        while work.key != x:
            p = path_nodes(work, x)[-2].key
            edges.append((x, p))
            undo.append(p)
            work = rotate(work, x)
        comp = {}

        def find(a):
            while comp.get(a, a) != a:
                a = comp[a]
            return a

        for k, p in edges:
            comp[find(k)] = find(p)
        keep_root = find(x)
        if i == last:
            kept_edges, deferred = edges, []
        else:
            kept_edges = [(k, p) for (k, p) in edges if find(k) == keep_root]
            deferred = [k for (k, p) in edges if find(k) != keep_root]
        nodes_touched = {x}
        work = t
        for k, p in kept_edges:
            nodes_touched.update((k, p))
            work = rotate(work, k)
        if work.key != x:
            raise InvariantError("kept rotations must finish with the key at the root")
        span = _closure_both(t, work, nodes_touched)
        q_prime = root_subtree(work, span)
        transition_trees.append(q_prime)
        t = substitute(t, q_prime)
        if stats is not None:
            stats["lifts"] += bool(undo)
            stats["defers"] += bool(deferred)
        pending = deferred + undo[::-1]
    return Execution(tuple(transition_trees))


# The conversions as they were before the path zipper: each listed rotation
# walks its path from the root and rebuilds it, and each deferred rotation is
# undone with its own walk.


def walking_rotate_listed(t, i, x, rotations, edges=None):
    for k in rotations:
        try:
            path = path_nodes(t, k)
            t = rotate_path(path)
        except KeyAbsentError as err:
            raise InvalidExecutionError(i, f"rotation at absent key {k}") from err
        except RotationAtRootError as err:
            raise InvalidExecutionError(i, f"rotation at root key {k}") from err
        if edges is not None:
            edges.append((k, path[-2].key))
    try:
        return t, path_nodes(t, x)
    except KeyAbsentError as err:
        raise InvalidExecutionError(i, f"search key {x} absent") from err


def walking_rotation_trace(inst, r):
    t = inst.initial
    cost = 0
    depths = []
    for i, x, rotations in _rotation_accesses(inst, r):
        t, path = walking_rotate_listed(t, i, x, rotations)
        d = len(path) - 1
        cost += 1 + len(rotations) + d
        depths.append(d)
    return RotationTrace(inst, cost, tuple(depths))


def walking_from_rotation_model(inst, r):
    t = inst.initial
    transition_trees = []
    pending = []
    last = inst.m
    for i, x, rotations in _rotation_accesses(inst, r):
        edges = []
        work, path = walking_rotate_listed(t, i, x, (*pending, *rotations), edges)
        ancestors = [p.key for p in path[:-1]]
        edges.extend((x, p) for p in ancestors)
        work = access_tree(work, x, "mtr")
        adjacent = {}
        for k, p in edges:
            adjacent.setdefault(k, []).append(p)
            adjacent.setdefault(p, []).append(k)
        touched = {x}
        stack = [x]
        while stack:
            for k in adjacent.get(stack.pop(), ()):
                if k not in touched:
                    touched.add(k)
                    stack.append(k)
        if i == last:
            deferred = []
            touched.update(*edges)
        else:
            deferred = [(k, p) for k, p in edges if k not in touched]
        for _, p in reversed(deferred):
            work = rotate(work, p)
        if work.key != x:
            raise InvariantError("kept rotations must finish with the key at the root")
        span = _closure_both(t, work, touched)
        q = root_subtree(t, span)
        q_prime = root_subtree(work, span)
        if i != last and size(q) > 2 * (len(edges) - len(deferred)) + 1:
            raise InvariantError(f"access {i}: |Q| exceeds twice the kept rotations plus one")
        transition_trees.append(q_prime)
        t = substitute(t, q_prime)
        if t != work:
            raise InvariantError(f"access {i}: substitution must reproduce the rotated tree")
        pending = [k for k, _ in deferred] + ancestors
    return Execution(tuple(transition_trees))


def random_rotation_execution(rng, n, m):
    """An instance on n keys with m requests, and 0-5 rotations per access,
    each at a key that is not the root when it is rotated."""
    inst = make_random_instance(rng, n, m)
    t = inst.initial
    accesses = []
    for _ in range(m):
        rotations = []
        for _ in range(rng.randint(0, 5)):
            keys = [k for k in range(1, n + 1) if k != t.key]
            if not keys:
                break
            rotations.append(rng.choice(keys))
            t = rotate(t, rotations[-1])
        accesses.append(RotationAccess(tuple(rotations)))
    return inst, RotationExecution(tuple(accesses))


ROTATION_CONVERSIONS = (
    rotation_trace,
    from_rotation_model,
    walking_rotation_trace,
    walking_from_rotation_model,
)


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

    @pytest.mark.parametrize(
        "requests, rotations, step, reason",
        [
            ((1, 3), ((1,), (9,)), 2, "rotation at absent key 9"),
            ((1, 3), ((1,), (3, 1)), 2, "rotation at root key 1"),
            ((2,), ((2,),), 1, "rotation at root key 2"),
            ((1, 3), ((1,),), 0, "rotation access count mismatch"),
            ((1, 3), ((1,), (), ()), 0, "rotation access count mismatch"),
        ],
    )
    def test_invalid_rotation_execution_errors_match(self, requests, rotations, step, reason):
        # An absent key, a rotation at the root and a wrong access count
        # raise the same error from both functions and their walking
        # references.
        inst = Instance(requests, bst_from_sequence([2, 1, 3]))
        r = RotationExecution(tuple(RotationAccess(rots) for rots in rotations))
        for convert in ROTATION_CONVERSIONS:
            with pytest.raises(InvalidExecutionError) as info:
                convert(inst, r)
            assert (info.value.step, info.value.reason) == (step, reason)

    def test_invalid_rotation_execution_errors_match_random(self, rng):
        # from_rotation_model checks each listed rotation inside its own
        # replay, on the tree rotation_trace checks it on, so an inserted
        # rotation fails at the same step for the same reason, or at neither;
        # so do the walking references.
        for _ in range(300):
            inst = make_random_instance(rng, rng.randint(1, 6), rng.randint(1, 4))
            r = to_rotation_model(inst, make_random_execution(rng, inst))
            accesses = [list(acc.rotations) for acc in r.accesses]
            i = rng.randrange(inst.m)
            accesses[i].insert(rng.randint(0, len(accesses[i])), rng.randint(0, inst.n + 1))
            r = RotationExecution(tuple(RotationAccess(tuple(a)) for a in accesses))
            outcomes = []
            for convert in ROTATION_CONVERSIONS:
                try:
                    convert(inst, r)
                    outcomes.append(None)
                except InvalidExecutionError as err:
                    outcomes.append((err.step, err.reason))
            assert outcomes.count(outcomes[0]) == len(ROTATION_CONVERSIONS)

    def test_single_connected_group_size_bound(self, rng):
        # One access whose rotations form a connected root group collapses
        # to a single transition with at most 2e + 1 keys.
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

    def test_vine_rotations_match_reference_exhaustive(self):
        for n in range(9):
            for q in all_shapes(n):
                assert _vine_rotations(q) == reference_vine_rotations(q)

    def test_rotations_between_match_reference_exhaustive(self):
        for n in range(1, 6):
            shapes = all_shapes(n)
            for q in shapes:
                for q_prime in shapes:
                    assert rotations_between(q, q_prime) == reference_rotations_between(q, q_prime)

    def test_from_rotation_matches_reference_random(self):
        rng = random.Random(15)
        stats = {"lifts": 0, "defers": 0}
        for _ in range(3000):
            inst, r = random_rotation_execution(rng, rng.randint(1, 9), rng.randint(1, 6))
            assert from_rotation_model(inst, r) == reference_from_rotation_model(inst, r, stats)
        # Both the lift and the deferral are exercised, many times over.
        assert stats["lifts"] > 5000 and stats["defers"] > 1000

    def test_zipper_matches_walking_references_random(self):
        # The same 3,000 draws as the test above: equal costs, search depths
        # and transition trees.
        rng = random.Random(15)
        for _ in range(3000):
            inst, r = random_rotation_execution(rng, rng.randint(1, 9), rng.randint(1, 6))
            assert rotation_trace(inst, r) == walking_rotation_trace(inst, r)
            assert from_rotation_model(inst, r) == walking_from_rotation_model(inst, r)

    def test_from_rotation_rotates_each_listed_rotation_once(self, monkeypatch):
        # Splay's execution on a 1000-key random instance, as the trace
        # benchmark converts it: every search happens at the root, nothing is
        # lifted or deferred.  The listed rotations run on a path zipper,
        # which walks no path from the root, so each conversion walks from
        # the root once per search.
        inst = generate("random", n=1000, m=300, seed=1).instance
        e = Execution(tuple(step.transition for step in algorithm_trace(inst, "splay").steps))
        r = to_rotation_model(inst, e)
        assert sum(len(acc.rotations) for acc in r.accesses) == 5939
        walks = []

        def counted_path_nodes(t, key):
            walks.append(key)
            return path_nodes(t, key)

        monkeypatch.setattr(splaylab.tree, "path_nodes", counted_path_nodes)
        monkeypatch.setattr(splaylab.model, "path_nodes", counted_path_nodes)
        back = from_rotation_model(inst, r)
        assert walks == list(inst.requests)
        walks.clear()
        rotation_trace(inst, r)
        assert walks == list(inst.requests)
        monkeypatch.undo()
        assert validate(inst, back).final_tree == validate(inst, e).final_tree


class TestTextFormats:
    def test_instance_roundtrip(self):
        inst, _ = cost8_instance()
        text = format_instance(inst, (1, 6))
        parsed, sub = parse_instance(text)
        assert parsed.requests == inst.requests
        assert parsed.initial == inst.initial
        assert sub == (1, 6)

    def test_missing_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_instance("tree: 1 2 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tree: 2 1 3\nrequests: 1 2\nbogus line\n", "line 3 is not a 'tree:'"),
            ("tree: 2 1 3\nrequests: 1 2\nrequests: 3\ntree: 5 4\n", "line 3 repeats the 'requests:'"),
            ("tree: 2 1 3\nsubsequence: 1\nrequests: 1\nsubsequence: 2\n", "line 4 repeats"),
            ("tree 2 1 3\nrequests: 1\n", "line 1 is not"),
        ],
    )
    def test_unrecognised_and_repeated_lines_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_instance(text)

    def test_blank_lines_allowed(self):
        inst, sub = parse_instance("\n  \ntree: 2 1 3\n\nrequests: 1 3\n\t\n")
        assert (inst.initial, inst.requests, sub) == (bst_from_sequence([2, 1, 3]), (1, 3), None)

    def test_duplicate_tree_key_rejected(self):
        with pytest.raises(ValueError, match="key 2 appears more than once"):
            parse_instance("tree: 2 1 2\nrequests: 1\n")

    @pytest.mark.parametrize("text", ["\u0663", "1_0", "+2", "1.0", "--1", "-", "\uff11", "0x1"])
    def test_keys_are_plain_decimal_integers(self, text):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            parse_key(text)
        with pytest.raises(ValueError):
            parse_instance(f"tree: 2 1 3\nrequests: 1 {text}\n")

    def test_keys_read_back(self):
        assert [parse_key(k) for k in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]
        for text in ("", " 1", "1\n"):
            with pytest.raises(ValueError):
                parse_key(text)
        inst, sub = parse_instance("tree: -1 -3 4\nrequests: -3 4\nsubsequence: 4\n")
        assert (inst.initial, inst.requests, sub) == (bst_from_sequence([-1, -3, 4]), (-3, 4), (4,))

    @pytest.mark.parametrize("text", ["", "(", "(3", "(3 .", "(3 . .", "(3 (1 . .)", ")", "((3 . .)"])
    def test_truncated_shape_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_shape(text)

    @pytest.mark.parametrize("parse", [parse_instance, parse_shape])
    @given(text=TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_parsers_return_a_value_or_raise_value_error(self, parse, text):
        # parse_instance also names a requested key that the tree lacks.
        allowed = (ValueError, KeyAbsentError) if parse is parse_instance else ValueError
        try:
            parse(text)
        except allowed:
            pass

    @given(st.lists(st.integers(-50, 50), unique=True, max_size=20))
    def test_shape_print_round_trip(self, keys):
        t = bst_from_sequence(keys)
        assert parse_shape(shape_print(t)) == t

    @given(KEY_LISTS.flatmap(lambda keys: st.tuples(
        st.just(keys),
        st.lists(st.sampled_from(keys), max_size=10),
        st.none() | st.lists(st.sampled_from(keys), max_size=5).map(tuple),
    )))
    def test_instance_round_trip(self, case):
        keys, requests, subsequence = case
        inst = Instance(tuple(requests), bst_from_sequence(keys))
        assert parse_instance(format_instance(inst, subsequence)) == (inst, subsequence)
