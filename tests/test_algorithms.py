"""Self-adjusting algorithms: splay steps and costs, rotation-level
references for all three path algorithms, move-to-root vs the recency treap,
top-down splay parity, and deque operations."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splaylab.algorithms import (
    ALGORITHMS,
    EmptyDequeError,
    access_cost,
    access_tree,
    deque_run,
    move_to_root,
    run_accesses,
    run_totals,
    splay,
    top_down_splay,
)
from splaylab.families import generate, random_tree
from splaylab.model import Instance, algorithm_trace, validate
from splaylab.tree import (
    Node,
    all_shapes,
    bst_from_sequence,
    canonical_preorder,
    depth,
    left_spine_tree,
    path_nodes,
    root_subtree,
    rotate,
    shape_print,
    tree_keys,
)
from splaylab.wilber import recency_treap

from conftest import insert_leaf, make_random_instance, path_encoding


# ---------------------------------------------------------------------------
# References built from single rotations of ``tree.rotate``; they share no
# code with the path kernel in ``algorithms``.


def move_to_root_by_rotations(t, key):
    while t.key != key:
        t = rotate(t, key)
    return t


def _arm_pair_rotations(t, key, pairs, rotate_first):
    """Rotate each same-side path pair on the arms of a Move-to-Root result.

    The rotated element (first or second of the pair, fixed by the caller)
    sits below its partner on the arm; the rotation removes the partner from
    the arm and makes it the rotated node's child.  Pairs touching the
    accessed key are skipped.
    """
    for a, b in pairs:
        if a == key or b == key:
            continue
        if (a < key) == (b < key):
            t = rotate(t, a if rotate_first else b)
    return t


def splay_by_encoding(t, key):
    """Splay driven purely by the path encoding: first Move-to-Root, then for
    original path positions v1,v2,... above the accessed node rotate every
    same-side pair (v_{2i+1}, v_{2i+2})."""
    ascending = [p.key for p in reversed(path_nodes(t, key))]  # v0 = key, ..., root
    pairs = [(ascending[i], ascending[i + 1]) for i in range(1, len(ascending) - 1, 2)]
    # The pair element nearer the accessed node absorbs the other.
    return _arm_pair_rotations(move_to_root_by_rotations(t, key), key, pairs, True)


def top_down_splay_by_rotations(t, key):
    """Top-Down Splay in the global view: Move-to-Root, then rotate adjacent
    same-side path pairs taken from the root downward."""
    descending = [p.key for p in path_nodes(t, key)]  # p0 = root, ..., key
    pairs = [(descending[i], descending[i + 1]) for i in range(0, len(descending) - 1, 2)]
    return _arm_pair_rotations(move_to_root_by_rotations(t, key), key, pairs, False)


def crossing_count(encoding):
    """Number of crossing nodes on a path with the given encoding: both
    endpoints plus every direction alternation strictly between them."""
    d = len(encoding)
    if d == 0:
        return 1
    alternations = sum(
        1 for i in range(d - 1) if encoding[i] != encoding[i + 1]
    )
    return 2 + alternations


def classify_steps(encoding):
    """Splay-step kinds for a path, in bottom-up execution order."""
    steps = []
    i = len(encoding)
    while i >= 2:
        steps.append("zig-zag" if encoding[i - 1] != encoding[i - 2] else "zig-zig")
        i -= 2
    if i == 1:
        steps.append("zig")
    return tuple(steps)


def _inorder(t):
    out, stack = [], []
    while stack or t is not None:
        while t is not None:
            stack.append(t)
            t = t.left
        t = stack.pop()
        out.append(t.key)
        t = t.right
    return out


def assert_matches_reference_exhaustive(fn, algo, reference):
    for n in range(1, 8):
        for t in all_shapes(n):
            for key in range(1, n + 1):
                out, rec = fn(t, key)
                assert out == reference(t, key)
                assert access_tree(t, key, algo) == out
                encoding = path_encoding(t, key)
                assert rec.key == key and rec.encoding == encoding
                assert rec.cost == len(encoding) + 1
                assert rec.crossing == crossing_count(encoding)
                assert rec.steps == classify_steps(encoding)
                assert rec.bookkeeping == rec.cost - rec.crossing


class TestSplay:
    def test_root_access_is_noop(self):
        t = bst_from_sequence([2, 1, 3])
        out, rec = splay(t, 2)
        assert out == t
        assert rec.cost == 1 and rec.steps == ()

    def test_zig_zig_on_left_spine(self):
        out, rec = splay(bst_from_sequence([3, 2, 1]), 1)
        assert shape_print(out) == "(1 . (2 . (3 . .)))"
        assert rec.steps == ("zig-zig",)
        assert rec.cost == 3

    def test_single_zig(self):
        out, rec = splay(bst_from_sequence([2, 1, 3]), 1)
        assert shape_print(out) == "(1 . (2 . (3 . .)))"
        assert rec.steps == ("zig",)
        assert rec.cost == 2

    def test_absent_key(self):
        with pytest.raises(KeyError):
            splay(bst_from_sequence([2, 1, 3]), 4)

    def test_agrees_with_encoding_reference_exhaustive(self):
        assert_matches_reference_exhaustive(splay, "splay", splay_by_encoding)

    def test_step_arities_sum_to_depth(self):
        for encoding in ("", "0", "01", "001", "0110", "11111"):
            steps = classify_steps(encoding)
            total = sum(1 if s == "zig" else 2 for s in steps)
            assert total == len(encoding)
            assert all(s != "zig" for s in steps[:-1])


class TestMoveToRoot:
    def test_root_access_is_noop(self):
        t = bst_from_sequence([2, 1, 3])
        assert move_to_root(t, 2)[0] == t

    def test_left_spine(self):
        out, _ = move_to_root(bst_from_sequence([3, 2, 1]), 1)
        assert shape_print(out) == "(1 . (3 (2 . .) .))"

    def test_agrees_with_rotation_reference_exhaustive(self):
        assert_matches_reference_exhaustive(move_to_root, "mtr", move_to_root_by_rotations)

    def test_treap_law_exhaustive(self):
        # After any prefix, the tree is the unique treap whose priorities
        # are latest access times over negative postorder initials.
        import itertools

        for n in range(1, 5):
            for t in all_shapes(n):
                for m in range(1, 4):
                    for x_seq in itertools.product(range(1, n + 1), repeat=m):
                        inst = Instance(x_seq, t)
                        cur = t
                        for i, x in enumerate(x_seq, start=1):
                            cur, _ = move_to_root(cur, x)
                            assert cur == recency_treap(inst, i)

    def test_treap_law_bigger_random(self, rng):
        for _ in range(50):
            n = rng.randint(2, 5)
            inst = make_random_instance(rng, n, 4)
            cur = inst.initial
            for i, x in enumerate(inst.requests, start=1):
                cur, _ = move_to_root(cur, x)
                assert cur == recency_treap(inst, i)


class TestTopDownSplay:
    def test_root_access_is_noop(self):
        t = bst_from_sequence([2, 1, 3])
        assert top_down_splay(t, 2)[0] == t

    def test_agrees_with_rotation_reference_exhaustive(self):
        assert_matches_reference_exhaustive(top_down_splay, "tds", top_down_splay_by_rotations)

    def test_20000_key_spine(self):
        # Sequential access of a left spine: the first access has depth
        # 19999, so an access must cost O(depth), not O(depth^2).
        n = 20_000
        inst = generate("sequential", n=n).instance
        final, records = run_accesses(inst.initial, inst.requests, "tds")
        cur, expect = inst.initial, inst.m
        for x in inst.requests:
            expect += depth(cur, x)
            cur, _ = top_down_splay(cur, x)
        assert cur == final
        assert _inorder(final) == list(range(1, n + 1))
        assert sum(r.cost for r in records) == expect

    def test_depth_one_equals_splay(self):
        for n in range(2, 6):
            for t in all_shapes(n):
                for key in range(1, n + 1):
                    if len(path_encoding(t, key)) == 1:
                        assert top_down_splay(t, key)[0] == splay(t, key)[0]

    def test_odd_node_paths_match_splay_exhaustive(self):
        # Identical on access paths with an odd number of nodes, and in
        # general different on even paths longer than two.
        diverged = 0
        for n in range(1, 7):
            for t in all_shapes(n):
                for key in range(1, n + 1):
                    nodes_on_path = len(path_encoding(t, key)) + 1
                    same = top_down_splay(t, key)[0] == splay(t, key)[0]
                    if nodes_on_path % 2 == 1 or nodes_on_path == 2:
                        assert same
                    elif not same:
                        diverged += 1
        assert diverged > 0


class TestExecutionTraces:
    def test_empty_request_sequence(self):
        inst = Instance((), bst_from_sequence([2, 1, 3]))
        trace = algorithm_trace(inst, "splay")
        assert trace.cost == 0 and trace.steps == ()

    def test_spine_312_cost_pinned(self):
        t = left_spine_tree(range(1, 101))
        inst = Instance((3, 1, 2), t)
        assert algorithm_trace(inst, "splay").cost == 103

    def test_trace_validates_in_model(self, rng):
        from splaylab.model import Execution

        for algo in ("splay", "mtr", "tds"):
            for _ in range(25):
                inst = make_random_instance(rng, rng.randint(1, 8), rng.randint(0, 6))
                trace = algorithm_trace(inst, algo)
                check = validate(inst, Execution(tuple(s.transition for s in trace.steps)))
                assert check.cost == trace.cost
                assert check.final_tree == trace.final_tree

    def test_cost_formula(self, rng):
        for _ in range(20):
            inst = make_random_instance(rng, rng.randint(1, 10), rng.randint(1, 8))
            t = inst.initial
            expect = inst.m
            from splaylab.tree import depth

            cur = t
            for x in inst.requests:
                expect += depth(cur, x)
                cur, _ = splay(cur, x)
            assert algorithm_trace(inst, "splay").cost == expect


class TestPathBasedProperty:
    def test_transition_depends_only_on_encoding(self, rng):
        # Accesses with identical path encodings in different trees produce
        # transition trees of identical shape.
        seen = {}
        for algo in ("splay", "mtr", "tds"):
            seen.clear()
            for _ in range(300):
                n = rng.randint(1, 8)
                t = random_tree(n, rng)
                x = rng.randint(1, n)
                enc = path_encoding(t, x)
                trace = algorithm_trace(Instance((x,), t), algo)
                q_prime = trace.steps[0].transition
                canon = canonical_preorder(q_prime, tree_keys(q_prime))
                if (algo, enc) in seen:
                    assert seen[(algo, enc)] == canon
                else:
                    seen[(algo, enc)] = canon


    def test_transition_is_root_subtree_of_after_tree_exhaustive(self):
        # The trace takes Q' from the rearranged bare path; it must be the
        # after-tree's root subtree on the path keys.
        for algo in ("splay", "mtr", "tds"):
            for n in range(1, 7):
                for t in all_shapes(n):
                    for x in range(1, n + 1):
                        step = algorithm_trace(Instance((x,), t), algo).steps[0]
                        keys = [p.key for p in path_nodes(t, x)]
                        assert step.transition == root_subtree(step.after, keys)


class TestCostRegression:
    def test_total_cost_within_log_bound(self, rng):
        # Regression guard on the amortized-logarithmic total: the constant
        # is an implementation pin, not a theory constant.
        for _ in range(20):
            n = rng.randint(2, 200)
            m = rng.randint(1, 400)
            inst = make_random_instance(rng, n, m)
            cost = access_cost(inst.initial, inst.requests, "splay")
            assert cost <= 4 * (m + n) * math.log2(n + 1)

    def test_increment_decrement_encodings_report(self, rng):
        # Random walks over flat two-spine trees produce executions whose
        # encodings are 0, 00, 1, 11; the subsequence cost ratio is only
        # reported, never asserted.
        worst = 0.0
        for _ in range(20):
            n = rng.randint(8, 64)
            start = n // 2
            t = bst_from_sequence(
                [start] + list(range(start - 1, 0, -1)) + list(range(start + 1, n + 1))
            )
            cur = start
            xs = []
            for _ in range(200):
                step = rng.choice((-2, -1, 1, 2))
                nxt = min(max(cur + step, 1), n)
                if nxt != cur:
                    xs.append(nxt)
                    cur = nxt
            x = tuple(xs)
            y = tuple(v for v in x if rng.random() < 0.5)
            if not y:
                continue
            cx = access_cost(t, x, "splay")
            cy = access_cost(t, y, "splay")
            worst = max(worst, cy / cx)
        assert worst > 0


class TestCrossingBookkeepingSplit:
    @given(st.integers(1, 30), st.lists(st.integers(1, 30), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_level_plus_bookkeeping_is_cost(self, n, xs):
        t = bst_from_sequence(range(n, 0, -1))
        for x in xs:
            x = (x - 1) % n + 1
            t, rec = splay(t, x)
            assert rec.crossing + rec.bookkeeping == rec.cost
            assert 1 <= rec.crossing <= rec.cost


class TestRunTotals:
    @given(
        st.sampled_from(sorted(ALGORITHMS)),
        st.lists(st.integers(1, 12), unique=True, min_size=1, max_size=12),
        st.lists(st.integers(0, 11), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_fold_matches_the_records(self, algo, order, picks):
        t = bst_from_sequence(order)
        keys = [order[i % len(order)] for i in picks]
        final, records = run_accesses(t, keys, algo)
        totals = run_totals(t, keys, algo)
        assert totals.tree == final
        assert totals.cost == sum(r.cost for r in records)
        assert totals.crossing == sum(r.crossing for r in records)
        assert totals.bookkeeping == sum(r.bookkeeping for r in records)

    def test_20000_key_spine_costs_pinned(self):
        # Sequential access of a left spine: the first access has depth
        # 19999, so the kernel must not recurse on depth.  Move-to-Root pays
        # about n per access on this input, so it serves three requests.
        inst = generate("sequential", n=20_000).instance
        got = {
            algo: run_totals(inst.initial, inst.requests[:m], algo)[1:]
            for algo, m in (("splay", None), ("tds", None), ("mtr", 3))
        }
        assert got == {"splay": (108248, 52815), "tds": (126328, 59997), "mtr": (59999, 8)}


def reference_deque_run(t0, ops):
    """The deque as four separate walks: each extremum by its spine, then
    its neighbour by a search from the root."""

    def min_key(t):
        while t.left is not None:
            t = t.left
        return t.key

    def max_key(t):
        while t.right is not None:
            t = t.right
        return t.key

    def successor(t, key):
        succ = None
        while t is not None:
            if t.key > key:
                succ, t = t.key, t.left
            else:
                t = t.right
        return succ

    def predecessor(t, key):
        pred = None
        while t is not None:
            if t.key < key:
                pred, t = t.key, t.right
            else:
                t = t.left
        return pred

    t, total = t0, 0
    for op, arg in ops:
        if op in ("push", "inject"):
            if arg is None:
                raise ValueError(f"{op} needs a key")
            if t is not None:
                if op == "push" and arg >= min_key(t):
                    raise ValueError(f"push key {arg} is not a new minimum")
                if op == "inject" and arg <= max_key(t):
                    raise ValueError(f"inject key {arg} is not a new maximum")
            t, rec = splay(insert_leaf(t, arg), arg)
            total += rec.cost
        elif op in ("pop", "eject"):
            if t is None:
                raise EmptyDequeError(op)
            if t.left is None and t.right is None:
                total, t = total + 1, None
            elif op == "pop":
                t, rec = splay(t, successor(t, min_key(t)))
                total += rec.cost
                t = Node(t.key, None, t.right)
            else:
                t, rec = splay(t, predecessor(t, max_key(t)))
                total += rec.cost
                t = Node(t.key, t.left, None)
        else:
            raise ValueError(f"unknown deque op {op!r}")
    return t, total


def _deque_script(rng, n, length):
    """Valid ops on keys 1..n: pushes below, injects above, and deletes
    that drain the tree at least once when the script ends."""
    lo, hi, count, ops = 0, n + 1, n, []
    for _ in range(length):
        op = rng.choice(["push", "inject"] + (["pop", "eject"] * 2 if count else []))
        if op == "push":
            ops.append(("push", lo)); lo -= 1; count += 1
        elif op == "inject":
            ops.append(("inject", hi)); hi += 1; count += 1
        else:
            ops.append((op, None)); count -= 1
    ops += [(rng.choice(["pop", "eject"]), None) for _ in range(count)]
    ops += [("inject", hi), ("push", lo)]
    return ops


class TestDeque:
    def test_matches_four_walk_reference(self):
        # Trees of 0-12 keys; every script pops down to empty and pushes
        # into the empty tree.
        for seed in range(1300):
            rng = random.Random(seed)
            n = seed % 13
            t = random_tree(n, rng) if n else None
            ops = _deque_script(rng, n, rng.randint(0, 30))
            assert deque_run(t, ops) == reference_deque_run(t, ops), seed
            here = there = t
            for i, op in enumerate(ops):
                here, cost = deque_run(here, [op])
                there, ref_cost = reference_deque_run(there, [op])
                assert (here, cost) == (there, ref_cost), (seed, i)

    def test_bad_ops_raise_as_the_reference(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = seed % 13
            t = random_tree(n, rng) if n else None
            ops = _deque_script(rng, n, rng.randint(0, 20))
            prefix = ops[: rng.randint(0, len(ops))]
            here, _ = deque_run(t, prefix)
            bad = [("push", None), ("inject", None), ("shove", 3)]
            if here is None:
                bad += [("pop", None), ("eject", None)]
            else:
                low, high = min(tree_keys(here)), max(tree_keys(here))
                bad += [("push", low), ("push", high + 1), ("inject", high), ("inject", low - 1)]
            for op in bad:
                with pytest.raises(Exception) as got:
                    deque_run(t, prefix + [op])
                with pytest.raises(Exception) as want:
                    reference_deque_run(t, prefix + [op])
                assert (got.type, str(got.value)) == (want.type, str(want.value)), (seed, op)

    def test_push_then_pop_restores(self):
        t = bst_from_sequence([5, 4, 6])
        out, cost = deque_run(t, [("push", 1), ("pop", None)])
        assert tree_keys(out) == frozenset({4, 5, 6})
        assert cost >= 2

    def test_sequential_pops_on_right_spine_linear(self):
        n = 200
        t = bst_from_sequence(range(1, n + 1))
        out, cost = deque_run(t, [("pop", None)] * n)
        assert out is None
        assert cost <= 4 * n

    def test_mixed_ops_run(self, rng):
        n = 50
        t = random_tree(n, rng)
        lo, hi, count = 0, n + 1, n
        ops = []
        for _ in range(10 * n):
            op = rng.choice(["push", "inject"] + (["pop", "eject"] if count else []))
            if op == "push":
                ops.append(("push", lo)); lo -= 1; count += 1
            elif op == "inject":
                ops.append(("inject", hi)); hi += 1; count += 1
            else:
                ops.append((op, None)); count -= 1
        _, cost = deque_run(t, ops)
        assert cost > 0

    def test_delete_on_empty(self):
        with pytest.raises(EmptyDequeError):
            deque_run(None, [("pop", None)])

    def test_bad_push_key(self):
        with pytest.raises(ValueError):
            deque_run(bst_from_sequence([2]), [("push", 5)])
        with pytest.raises(ValueError):
            deque_run(bst_from_sequence([2]), [("inject", 1)])

    @pytest.mark.parametrize("op", ["push", "inject"])
    def test_missing_key_rejected(self, op):
        with pytest.raises(ValueError, match="needs a key"):
            deque_run(bst_from_sequence([2]), [(op, None)])
