"""Crossing-node machinery: levels, the crossing bound and its two
formulations, the splay cost decomposition, and the window decomposition."""

import itertools
import random

import pytest
from splaylab.algorithms import _rearrange, access, run_totals, splay
from splaylab.families import generate, random_tree
from splaylab.model import Instance
from splaylab.suites import (
    SuiteFailure,
    _bound_table,
    _subsequence_pairs,
    _window_walk,
    suite_window,
    suite_wilber_monotone,
)
from splaylab.transforms import build_digraph
from splaylab.tree import (
    InvariantError,
    Node,
    all_shapes,
    bst_from_sequence,
    contains,
    depth,
    path_nodes,
    preorder,
    rotate,
    shape_print,
    size,
    tree_keys,
)
from splaylab.wilber import (
    FormulaViolation,
    _reduce_to_path,
    _same_top_tree,
    _window_subtree,
    check_level_witness,
    check_window_state,
    crossing_bound,
    crossing_bound_from_insertion_tree,
    crossing_keys_on_path,
    generalized_path_keys,
    level,
    remove_one_gap,
    sequence_crossing_bound,
    splay_bookkeeping_cost,
    validate_level_formulas,
    walk_sequences,
    wilber_scores,
    window_decompose,
)

from conftest import make_random_instance


def crossing_keys_graphical(t, key):
    """Independent oracle: an inner path node is crossing when the edge from
    its parent crosses the vertical line through the accessed key's
    symmetric-order position."""
    path = path_nodes(t, key)
    if len(path) == 1:
        return (path[0].key,)
    out = [path[0].key]
    for i in range(1, len(path) - 1):
        lo, hi = sorted((path[i - 1].key, path[i].key))
        if lo < key < hi or path[i].key == key:
            out.append(path[i].key)
    out.append(key)
    return tuple(out)


class TestLevel:
    def test_root_level_one(self):
        t = bst_from_sequence([2, 1, 3])
        assert level(t, 2) == 1
        assert crossing_keys_on_path(path_nodes(t, 2)) == (2,)

    def test_left_spine_bottom(self):
        t = bst_from_sequence([3, 2, 1])
        assert crossing_keys_on_path(path_nodes(t, 1)) == (3, 1)
        assert level(t, 1) == 2

    def test_alternation_example(self):
        s = bst_from_sequence([1, 7, 4, 2, 3, 6, 5])
        assert crossing_keys_on_path(path_nodes(s, 4)) == (1, 7, 4)
        assert level(s, 4) == 3

    def test_level_in_range(self, rng):
        for _ in range(100):
            n = rng.randint(1, 10)
            t = random_tree(n, rng)
            x = rng.randint(1, n)
            path = path_nodes(t, x)
            crossing = crossing_keys_on_path(path)
            assert level(t, x) == len(crossing)
            assert 1 <= len(crossing) <= len(path)
            # The root and x head and end the crossing keys, in path order.
            assert crossing[0] == t.key and crossing[-1] == x
            assert [k for k in (p.key for p in path) if k in crossing] == list(crossing)

    def test_graphical_oracle_matches_exhaustive(self):
        for n in range(1, 7):
            for t in all_shapes(n):
                for key in range(1, n + 1):
                    assert crossing_keys_on_path(path_nodes(t, key)) == (
                        crossing_keys_graphical(t, key)
                    )


class TestCrossingBound:
    def test_root_access(self):
        t = bst_from_sequence([2, 1, 3])
        assert crossing_bound(Instance((2,), t)) == 1

    def test_hand_traced_example(self):
        t = bst_from_sequence([2, 1, 3])
        assert crossing_bound(Instance((1, 3), t)) == 4

    def test_repeated_access_adds_one(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            inst = make_random_instance(rng, n, rng.randint(1, 5))
            x = inst.requests[-1]
            doubled = Instance(inst.requests + (x,), inst.initial)
            assert crossing_bound(doubled) == crossing_bound(inst) + 1


class TestSplayDecomposition:
    def test_sum_is_cost(self, rng):
        # Per access, the crossing count is the key's level and the cost its
        # depth plus one in the tree before the access; both are summed here
        # walk by walk, apart from the kernel's own counts.
        for _ in range(60):
            inst = make_random_instance(rng, rng.randint(1, 10), rng.randint(0, 8))
            t, crossing, total = inst.initial, 0, 0
            for x in inst.requests:
                crossing += level(t, x)
                total += depth(t, x) + 1
                t = splay(t, x)[0]
            totals = run_totals(inst.initial, inst.requests, "splay")
            assert (totals.crossing, totals.cost) == (crossing, total)
            assert crossing + splay_bookkeeping_cost(inst) == total

    def test_single_root_access(self):
        t = bst_from_sequence([2, 1, 3])
        inst = Instance((2,), t)
        assert run_totals(inst.initial, inst.requests, "splay").crossing == 1
        assert splay_bookkeeping_cost(inst) == 0

    def test_splay_crossings_can_dip_below_bound(self):
        inst = Instance((3, 1, 4, 2), bst_from_sequence([3, 1, 2, 4]))
        assert crossing_bound(inst) == 9
        assert run_totals(inst.initial, inst.requests, "splay").crossing == 8


def wilber_score(x_seq, i):
    """Reference: Wilber's backward scan from access ``i`` (1-based), as the
    definition reads.  Walk crossing accesses of strictly decreasing access
    number, alternating sides of the requested key, narrowing the window at
    each step by the inside key.  Returns one less than the number of
    crossing keys found; 0 for the first access.  Rebuilds the prefix's last
    access times and rescans them per crossing, so it is quadratic in m."""
    if not 1 <= i <= len(x_seq):
        raise IndexError(i)
    if i == 1:
        return 0
    x = x_seq[i - 1]
    last_access = {}
    for j in range(i - 1):
        last_access[x_seq[j]] = j + 1
    c = i - 1
    w = x_seq[c - 1]
    found = 1
    if w == x:
        return 0
    v = float("-inf") if w > x else float("inf")
    while True:
        # Next crossing access: the latest access before c to a key between
        # x (inclusive) and the previous inside key (exclusive).
        c_next = 0
        w_next = None
        for j in range(c - 1, 0, -1):
            k = x_seq[j - 1]
            if (x <= k < v) if v > x else (v < k <= x):
                c_next, w_next = j, k
                break
        if w_next is None:
            return found - 1
        found += 1
        if w_next == x:
            return found - 1
        # Inside key: nearest to x on the crossing key's side whose latest
        # access falls in the window (c_next, c].
        best = None
        for k, b in last_access.items():
            if k == x or (k > x) != (w > x):
                continue
            if c_next < b <= c:
                if best is None or abs(k - x) < abs(best - x):
                    best = k
        if best is None:
            raise InvariantError("the crossing key itself is always eligible")
        v = best
        c, w = c_next, w_next


def assert_scores_match_reference(seq):
    assert list(wilber_scores(seq)) == [wilber_score(seq, i) for i in range(1, len(seq) + 1)], seq


class TestBackwardScan:
    def test_first_access_scores_zero(self):
        assert next(wilber_scores((5, 2, 5))) == 0
        assert wilber_score((5, 2, 5), 1) == 0

    def test_lambda2_single_request(self):
        assert sequence_crossing_bound((7,)) == 1

    def test_lambda2_two_requests(self):
        assert sequence_crossing_bound((1, 3)) == 2

    def test_empty_sequence(self):
        assert sequence_crossing_bound(()) == 0
        assert list(wilber_scores(())) == []

    def test_terminates_on_long_sequences(self, rng):
        for _ in range(200):
            m = rng.randint(1, 12)
            seq = tuple(rng.randint(1, 8) for _ in range(m))
            scores = list(wilber_scores(seq))
            assert len(scores) == m
            assert min(scores) >= 0

    def test_equivalence_identity_exhaustive_small(self):
        for keycount in range(1, 4):
            for m in range(1, 5):
                for seq in itertools.product(range(1, keycount + 1), repeat=m):
                    t = bst_from_sequence(seq)
                    assert sequence_crossing_bound(seq) == (
                        crossing_bound(Instance(seq, t)) - size(t) + 1
                    )

    def test_scores_match_reference_exhaustive(self):
        for keycount in range(1, 5):
            for m in range(7):
                for seq in itertools.product(range(1, keycount + 1), repeat=m):
                    assert_scores_match_reference(seq)

    def test_scores_match_reference_seeded(self):
        rng = random.Random(20)
        for m in [rng.randint(1, 60) for _ in range(300)] + [100, 200, 300, 500]:
            for keys in (3, 20, 1000):
                assert_scores_match_reference([rng.randint(1, keys) for _ in range(m)])

    @pytest.mark.parametrize("family,params", [
        ("random", {"n": 1000, "m": 500, "seed": 3}),
        ("sequential", {"n": 500}),
        ("mtr-bad", {"n": 300}),
        ("traversal", {"n": 500, "seed": 2}),
    ])
    def test_scores_match_reference_on_families(self, family, params):
        assert_scores_match_reference(generate(family, **params).instance.requests)

    def test_sequential_at_scale_meets_the_insertion_tree_identity(self):
        n = 20_000
        requests = generate("sequential", n=n).instance.requests
        assert sequence_crossing_bound(requests) == crossing_bound_from_insertion_tree(requests) - n + 1


def crossing_bounds(t, keys, max_m):
    """Reference: the crossing bound from ``t`` of every request sequence over
    ``keys`` of length at most ``max_m``, the empty one included, from
    Move-to-Root's own trees: one access per trie node, its running crossing
    sum kept along the walk."""

    def advance(state, x):
        after, rec = access(state[0], x, "mtr")
        return after, state[1] + rec.crossing

    return {seq: state[1] for seq, state in walk_sequences((t, 0), keys, max_m, advance)}


class TestCrossingBounds:
    def test_equals_crossing_bound_exhaustive(self):
        # The suites' digraph tables against Move-to-Root's own trees and
        # against crossing_bound on each instance.
        for n in range(1, 5):
            g = build_digraph(n, "mtr")
            for v, t in enumerate(g.vertices):
                table = _bound_table(g, v, 4)
                assert list(table.items()) == list(crossing_bounds(t, range(1, n + 1), 4).items())
                seqs = [s for m in range(5) for s in itertools.product(range(1, n + 1), repeat=m)]
                assert sorted(table) == sorted(seqs)
                for seq in seqs:
                    assert table[seq] == crossing_bound(Instance(seq, t)), (shape_print(t), seq)

    def test_zero_length(self):
        assert crossing_bounds(bst_from_sequence([2, 1, 3]), (1, 2, 3), 0) == {(): 0}
        g = build_digraph(3, "mtr")
        for v in range(len(g.vertices)):
            assert _bound_table(g, v, 0) == {(): 0}

    def test_walk_visits_each_sequence_once_in_lexicographic_order(self):
        walk = list(walk_sequences(0, (1, 2), 2, lambda state, x: 10 * state + x))
        assert walk == [
            ((), 0), ((1,), 1), ((1, 1), 11), ((1, 2), 12), ((2,), 2), ((2, 1), 21), ((2, 2), 22),
        ]


def reference_wilber_monotone(bounds=crossing_bounds):
    """The wilber-monotone sweep's exhaustive loop with each shape building
    its subsequences from its own table, the loop the per-n pair list
    replaced.  Returns the (shape preorder, sequence, subsequence) triples
    it compares, up to the first failing one, and that one's message, or
    None when none fails."""
    triples = []
    for n in range(1, 5):
        for t in all_shapes(n):
            bound = bounds(t, range(1, n + 1), 4)
            for x_seq, full in bound.items():
                for mask in range(1, 2 ** len(x_seq)):
                    sub = tuple(x for j, x in enumerate(x_seq) if not (mask >> j) & 1)
                    if not sub:
                        continue
                    triples.append((preorder(t), x_seq, sub))
                    if bound[sub] > 4 * full:
                        return triples, f"{shape_print(t)} {x_seq} -> {sub}"
    return triples, None


class TestMonotoneSweep:
    def test_pair_list_gives_the_per_shape_triples_in_order(self):
        triples, failure = reference_wilber_monotone()
        assert failure is None and len(triples) == 63152
        assert triples == [
            (preorder(t), x_seq, sub)
            for n in range(1, 5)
            for t in all_shapes(n)
            for x_seq, sub in _subsequence_pairs(range(1, n + 1), 4)
        ]

    def test_first_failing_triple_matches_the_per_shape_loop(self, monkeypatch):
        # A planted defect in one table of n = 3 fails many triples: the
        # sweep must stop at the one the per-shape loop meets first, with
        # the same message (a sweep by sequence length would stop at
        # (1, 3, 1) instead).
        def plant(t, bound):
            if size(t) == 3 and t.key == 2:
                bound[(3, 1)] += 100
            return bound

        _, expected = reference_wilber_monotone(lambda t, *rest: plant(t, crossing_bounds(t, *rest)))
        assert expected == "(2 (1 . .) (3 . .)) (1, 1, 3, 1) -> (3, 1)"
        monkeypatch.setattr(
            "splaylab.suites._bound_table",
            lambda g, v, max_m: plant(g.vertices[v], _bound_table(g, v, max_m)),
        )
        with pytest.raises(SuiteFailure) as err:
            suite_wilber_monotone()
        assert str(err.value) == expected


class TestRemoveOneGap:
    def test_empty_sequence_gap_zero(self):
        s = bst_from_sequence([2, 1, 3])
        assert remove_one_gap(s, 1, ()) == 0

    def test_retracted_bound_counterexample(self):
        s = bst_from_sequence([1, 7, 4, 2, 3, 6, 5])
        gap = remove_one_gap(s, 4, (5, 3))
        assert level(s, 4) == 3
        assert gap > 3
        assert gap <= 4 * level(s, 4)

    def test_lift_tables_give_the_gap_exhaustive(self):
        # The remove-one and window suites read each gap off two digraph
        # tables: the shape's and that of its lift, the end of its arc x.
        for n in range(1, 5):
            pairs = 0
            g = build_digraph(n, "mtr")
            for v, t in enumerate(g.vertices):
                here = _bound_table(g, v, 4)
                for x in range(1, n + 1):
                    lifted = _bound_table(g, g.arcs[v][x - 1], 4)
                    assert lifted == crossing_bounds(access(t, x, "mtr")[0], range(1, n + 1), 4)
                    for z_seq in here:
                        assert here[z_seq] - lifted[z_seq] == remove_one_gap(t, x, z_seq)
                    pairs += 1
            assert pairs == n * len(all_shapes(n))

    def test_factor_four_random(self, rng):
        for _ in range(300):
            n = rng.randint(1, 9)
            s = random_tree(n, rng)
            x = rng.randint(1, n)
            z = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
            assert remove_one_gap(s, x, z) <= 4 * level(s, x)


def reference_generalized_path(j_aug, x):
    """Access path for x with off-path subtrees dropped, x's left subtree
    replaced by its right spine and x's right subtree by its left spine,
    built as a tree."""
    path = path_nodes(j_aug, x)
    x_node = path[-1]
    left = right = None
    spine = []
    node = x_node.left
    while node is not None:
        spine.append(node.key)
        node = node.right
    for k in reversed(spine):
        left = Node(k, None, left)
    spine = []
    node = x_node.right
    while node is not None:
        spine.append(node.key)
        node = node.left
    for k in reversed(spine):
        right = Node(k, right, None)
    core = Node(x, left, right)
    for node in reversed(path[:-1]):
        core = Node(node.key, None, core) if node.key < x else Node(node.key, core, None)
    return core


def reference_reduce_to_path(j_aug, path_keys, z, x):
    """Deepest ancestor of z that is on the generalized path, or whose
    parent is on it (other than x), from its own walk."""
    path = path_nodes(j_aug, z)
    for idx in range(len(path) - 1, -1, -1):
        key = path[idx].key
        if key in path_keys:
            return key
        if idx >= 1 and path[idx - 1].key in path_keys and path[idx - 1].key != x:
            return key
    return path[0].key


def reference_top_parents(t, u, v):
    """Parent key of each key of the top tree, the root subtree of the keys
    outside the window (u, v), from one walk of it."""
    out = {t.key: None}
    stack = [t]
    while stack:
        node = stack.pop()
        for child in (node.left, node.right):
            if child is not None and not u < child.key < v:
                out[child.key] = node.key
                stack.append(child)
    return out


def reference_window_subtree(t, u, v):
    """The subtree holding exactly the window keys, plus its parent key,
    compared against the window's key set."""
    window = frozenset(k for k in tree_keys(t) if u < k < v)
    parent = None
    node = t
    while node is not None and not u < node.key < v:
        parent, node = node, node.right if node.key <= u else node.left
    if node is None or parent is None:
        raise InvariantError("the window must hang below the root")
    if tree_keys(node) != window:
        raise InvariantError("window keys must hang as one subtree")
    return node, parent.key


def window_subtree_outcome(find, t, u, v):
    try:
        return find(t, u, v)
    except InvariantError as err:
        return str(err)


class TestWindowDecomposition:
    def test_initial_state(self):
        s = bst_from_sequence([2, 1, 3])
        steps, _ = window_decompose(s, 1, ())
        st0 = steps[0]
        # The top tree holds the keys outside the window: none yet.
        assert (st0.u, st0.v) == (float("-inf"), float("inf"))
        assert st0.zipped == s
        assert st0.unzipped == access(s, 1, "mtr")[0]

    def test_after_accessing_x_everything_collapses(self):
        s = bst_from_sequence([4, 2, 1, 3, 5])
        steps, _ = window_decompose(s, 2, (2, 4, 1))
        for st_ in steps[1:]:
            assert st_.u == st_.v == 2
            assert st_.zipped is None and st_.unzipped is None
            assert st_.s_tree == st_.t_tree

    def test_delta_sum_matches_gap_random(self, rng):
        for _ in range(150):
            n = rng.randint(2, 8)
            s = random_tree(n, rng)
            x = rng.randint(1, n)
            z = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
            steps, wits = window_decompose(s, x, z)
            assert sum(w.delta_z for w in wits) == remove_one_gap(s, x, z)

    def test_formula_validator_random(self, rng):
        for _ in range(150):
            n = rng.randint(2, 8)
            s = random_tree(n, rng)
            x = rng.randint(1, n)
            z = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
            steps, wits = window_decompose(s, x, z)
            # The witnesses whose level formulas applied; the rest are
            # outside the window or degenerate.
            assert 0 <= validate_level_formulas(steps, wits, x) <= len(wits)

    def test_trie_walk_counts_match_one_validation_per_sequence(self):
        # The window suite's walk checks each prefix once, yet reports what
        # validating every sequence on its own counts.
        for n in range(1, 5):
            runs = checks = 0
            for t in all_shapes(n):
                for x in range(1, n + 1):
                    for m in range(4):
                        for z_seq in itertools.product(range(1, n + 1), repeat=m):
                            checks += validate_level_formulas(*window_decompose(t, x, z_seq), x)
                            runs += 1
            assert _window_walk(n, 3) == (runs, checks)
            assert checks > 0 or n < 3

    def test_tampered_witness_fails_its_check(self):
        s = bst_from_sequence([1, 7, 4, 2, 3, 6, 5])
        steps, wits = window_decompose(s, 4, (5, 3))
        checked = [w for w in wits if check_level_witness(steps[w.index - 1], steps[w.index], w)]
        assert checked
        wit = checked[0]
        bad = wit._replace(zipped_level=wit.zipped_level + 1)
        message = f"^step {wit.index}: zipped level {wit.zipped_level + 1} != "
        with pytest.raises(FormulaViolation, match=message):
            check_level_witness(steps[wit.index - 1], steps[wit.index], bad)
        with pytest.raises(FormulaViolation, match=message):
            validate_level_formulas(steps, [bad if w is wit else w for w in wits], 4)

    def test_kernel_crossing_defect_fails_the_delta_sum(self, monkeypatch):
        # The gap sums the kernel's crossing counts, while each delta_z is
        # measured with levels: a kernel that counts one crossing too many
        # on paths of depth 3 or more breaks the summation identity.
        def planted(*args):
            out, encoding, crossing = _rearrange(*args)
            return out, encoding, crossing + (len(encoding) >= 3)

        monkeypatch.setattr("splaylab.algorithms._rearrange", planted)
        with pytest.raises(SuiteFailure, match=r"delta sum 0 != measured gap -1$"):
            _window_walk(4, 4)
        with pytest.raises(SuiteFailure, match="delta sum"):
            suite_window()
        spine = bst_from_sequence([1, 2, 3, 4])
        with pytest.raises(FormulaViolation, match="^delta sum 0 != measured gap 1$"):
            validate_level_formulas(*window_decompose(spine, 2, (4,)), 2)

    def test_top_tree_parent_mismatch_fails_the_state_check(self):
        s = bst_from_sequence([1, 7, 4, 2, 3, 6, 5])
        steps, _ = window_decompose(s, 4, (5, 3))
        step = steps[2]
        # The top tree holds the keys outside the window: 1, 2, 3, 5, 6, 7.
        assert (step.u, step.v) == (3, 5)
        check_window_state(step, 4)
        # Same root and window; top key 6 hangs from 5 instead of 7.
        bad = step._replace(t_tree=rotate(step.t_tree, 6))
        with pytest.raises(FormulaViolation, match="^top-tree parent mismatch at step 2$"):
            check_window_state(bad, 4)

    def test_window_helpers_match_their_references_exhaustive(self):
        # Every shape on 1..n with every window a decomposition reaches for
        # key x with |Z| <= 3.  A window's bounds depend on x and Z alone, so
        # one shape gives them all.  Each top tree is compared with the
        # shape's lift and with each one-rotation tampering of the shape,
        # which shares every subtree off the rotated path: some top trees
        # differ only below the root, some only inside the window.  Below
        # five keys it is compared with every shape, which finds top trees
        # of one shape on different keys.
        hangs, same_tops = set(), set()
        for n in range(1, 7):
            keys = range(1, n + 1)
            for x in keys:
                windows = {
                    (step.u, step.v)
                    for m in range(4)
                    for z_seq in itertools.product(keys, repeat=m)
                    for step in window_decompose(all_shapes(n)[0], x, z_seq)[0]
                }
                for t in all_shapes(n):
                    others = [access(t, x, "mtr")[0]] + [rotate(t, k) for k in keys if k != t.key]
                    if n <= 4:
                        others += all_shapes(n)
                    for u, v in windows:
                        found = window_subtree_outcome(_window_subtree, t, u, v)
                        assert found == window_subtree_outcome(reference_window_subtree, t, u, v)
                        hangs.add(not isinstance(found, str))
                        for other in others:
                            same = _same_top_tree(t, other, u, v)
                            ref = reference_top_parents(t, u, v) == reference_top_parents(other, u, v)
                            assert same == ref, (shape_print(t), shape_print(other), u, v)
                            same_tops.add(same)
        assert hangs == same_tops == {True, False}

    def test_absent_key_rejected(self):
        with pytest.raises(KeyError):
            window_decompose(bst_from_sequence([2, 1, 3]), 9, (1,))

    def test_generalized_path_keys_match_tree_reference_exhaustive(self):
        for n in range(1, 7):
            for t in all_shapes(n):
                for x in range(1, n + 1):
                    ref_keys = tree_keys(reference_generalized_path(t, x))
                    keys = generalized_path_keys(path_nodes(t, x))
                    assert keys == ref_keys, (shape_print(t), x)
                    for z in range(1, n + 1):
                        z_path = path_nodes(t, z)
                        z_bar = z_path[_reduce_to_path(z_path, keys, x)].key
                        assert z_bar == reference_reduce_to_path(t, ref_keys, z, x)

    def test_witness_levels_match_their_trees_exhaustive(self):
        # Each witness reads its levels off shared path walks; every one must
        # equal the level measured afresh in the tree it describes.
        def x_level(t, x):
            return level(t, x) if t is not None else 0

        for n in range(1, 5):
            for t in all_shapes(n):
                for x in range(1, n + 1):
                    for m in range(4):
                        for z_seq in itertools.product(range(1, n + 1), repeat=m):
                            steps, wits = window_decompose(t, x, z_seq)
                            assert len(steps) == len(wits) + 1
                            for wit in wits:
                                prev, new = steps[wit.index - 1], steps[wit.index]
                                assert wit.delta_z == (
                                    level(prev.s_tree, wit.z) - level(prev.t_tree, wit.z)
                                )
                                assert wit.k_prev == x_level(prev.zipped, x)
                                assert wit.k_cur == x_level(new.zipped, x)
                                if not wit.inside:
                                    continue
                                z_bar, j, k = wit.z_bar, prev.zipped, prev.unzipped
                                j_aug, k_aug = prev.zipped_aug, prev.unzipped_aug
                                assert wit.zipped_level == level(j_aug, z_bar)
                                assert wit.unzipped_level == level(k_aug, z_bar)
                                assert wit.e == int(level(j, x) < level(j_aug, x))
                                assert wit.f == int(
                                    contains(k, z_bar) and level(k, z_bar) < level(k_aug, z_bar)
                                )
