"""Brute-force optimal execution oracle."""

import itertools
import random
from functools import lru_cache

import pytest

from splaylab.algorithms import access_cost
from splaylab.families import random_tree
from splaylab.model import (
    Execution,
    Instance,
    _elide_trace,
    elide,
    subsequence_instance,
    validate,
)
from splaylab import opt
from splaylab.opt import (
    GuardExceededError,
    _arrangements,
    _group_moves,
    _groups,
    _rooted_prints,
    _sides,
    _splice,
    check_guards,
    opt_cost,
)
from splaylab.suites import SuiteFailure, _deletion_sets, suite_opt_monotone
from splaylab.tree import (
    InvariantError,
    Node,
    all_shapes,
    bst_from_sequence,
    left_spine_tree,
    parse_shape,
    path_nodes,
    preorder,
    rooted_shapes,
    shape_print,
    shapes_on_keys,
    size,
    substitute,
    tree_keys,
)
from splaylab.model import smallest_root_subtree

from conftest import make_random_instance


def reference_keysets(t, x):
    """Every upward-closed key set of ``t`` by recursion, filtered to those
    holding ``x``."""

    def kept_sets(node):
        lefts = [frozenset()] + (kept_sets(node.left) if node.left else [])
        rights = [frozenset()] + (kept_sets(node.right) if node.right else [])
        return [lo | ro | {node.key} for lo in lefts for ro in rights]

    return sorted(tuple(sorted(s)) for s in kept_sets(t) if x in s)


def reference_transitions(shape, x):
    """Every arrangement of every root subtree, filtered to those with ``x``
    at the root, each substituted into a new tree: the slow, plain form of
    the oracle's move enumeration."""
    t = bst_from_sequence(shape)
    best = {}
    for q_keys in reference_keysets(t, x):
        cost = len(q_keys)
        for q_prime in shapes_on_keys(q_keys):
            if q_prime.key != x:
                continue
            k = preorder(substitute(t, q_prime))
            entry = (cost, shape_print(q_prime), q_prime)
            if k not in best or (best[k][0], best[k][1]) > (cost, entry[1]):
                best[k] = entry
    return tuple((k, v[2], v[0]) for k, v in best.items())


def reference_opt_cost(inst):
    """The layered DP over whole-tree states on the reference moves, with
    ties to the smaller transition-tree print."""
    layer = {preorder(inst.initial): 0}
    parents = []
    expanded = 0
    for x in inst.requests:
        nxt, back = {}, {}
        for shape, dist in layer.items():
            expanded += 1
            for after, q_prime, cost in reference_transitions(shape, x):
                cand = dist + cost
                if after not in nxt or cand < nxt[after] or (
                    cand == nxt[after]
                    and shape_print(q_prime) < shape_print(back[after][1])
                ):
                    nxt[after] = cand
                    back[after] = (shape, q_prime)
        layer = nxt
        parents.append(back)
    cur = min(layer, key=lambda s: (layer[s], s))
    total = layer[cur]
    trees = []
    for back in reversed(parents):
        cur, q_prime = back[cur]
        trees.append(q_prime)
    return total, Execution(tuple(reversed(trees))), expanded


def preorder_nodes(t):
    nodes = []
    stack = [t]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    return nodes


def child_preorders(t, shape):
    """For each key of ``t``, whose preorder is ``shape``: the preorders of
    its left and right subtrees, as slices of ``shape``."""
    nodes = preorder_nodes(t)
    # A subtree's preorder ends where its right subtree's ends, or else its
    # left subtree's; the right subtree starts where the left one ends.
    ends, below, above = {}, {}, {}
    for p in range(len(nodes) - 1, -1, -1):
        node = nodes[p]
        mid = ends[node.left.key] if node.left is not None else p + 1
        end = ends[node.right.key] if node.right is not None else mid
        ends[node.key] = end
        below[node.key] = shape[p + 1:mid]
        above[node.key] = shape[mid:end]
    return below, above


def root_subtree_keysets(t, x):
    """Key sets of connected root subtrees of ``t`` containing ``x``, each a
    sorted tuple, in sorted order, from the tree and x's access path."""
    on_path = {node.key for node in path_nodes(t, x)}
    # Children before parents: kept[k] lists the key sets of the subtree at
    # k that hold k and, if k is on x's access path, x.
    kept = {}
    for node in reversed(preorder_nodes(t)):
        sides = []
        for child in (node.left, node.right):
            if child is None:
                sides.append([()])
            else:
                sets = kept.pop(child.key)
                sides.append(sets if child.key in on_path else [()] + sets)
        kept[node.key] = [lo + (node.key,) + ro for lo in sides[0] for ro in sides[1]]
    return sorted(kept[t.key])


def reference_groups(shape, x):
    """The (keys, fill) pairs of :func:`_groups` read off a ``Node`` tree:
    each hanging subtree found by the consecutive-key rule."""
    t = bst_from_sequence(shape)
    below, above = child_preorders(t, shape)
    position = {k: p for p, k in enumerate(shape)}
    out = []
    for q_keys in root_subtree_keysets(t, x):
        # Of two consecutive keys of Q one is the other's ancestor, so it
        # comes first in preorder, and the gap between them holds the inner
        # child of the other.
        fill = [below[q_keys[0]]]
        for lo, hi in zip(q_keys, q_keys[1:]):
            fill.append(below[hi] if position[hi] > position[lo] else above[lo])
        fill.append(above[q_keys[-1]])
        out.append((q_keys, tuple(fill)))
    return tuple(out)


@lru_cache(maxsize=None)
def _printed_rooted_shapes(keys: tuple[int, ...], x: int) -> tuple[tuple[Node, str], ...]:
    """:func:`rooted_shapes` paired with their prints, the DP's tie-break;
    each print is composed from those of the two sides."""
    i = keys.index(x)
    lefts = [shape_print(s) for s in shapes_on_keys(keys[:i])]
    rights = [shape_print(s) for s in shapes_on_keys(keys[i + 1:])]
    prints = (f"({x} {left} {right})" for left in lefts for right in rights)
    return tuple(zip(rooted_shapes(keys, x), prints))


@lru_cache(maxsize=None)
def _slot_runs(keys: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each arrangement of ``keys`` in :func:`shapes_on_keys` order, its
    preorder cut at its |keys| + 1 empty slots: run j holds the keys met
    after slot j - 1 and before slot j."""
    out = []
    for arrangement in shapes_on_keys(keys):
        runs: list[tuple[int, ...]] = []
        run: list[int] = []
        stack = [arrangement]
        while stack:
            node = stack.pop()
            if node is None:
                runs.append(tuple(run))
                run = []
            else:
                run.append(node.key)
                stack.append(node.right)
                stack.append(node.left)
        out.append(tuple(runs))
    return tuple(out)


def per_state_transitions(shape, x):
    """The oracle's moves for one state, spliced per state and reduced to
    the cheapest (transition tree, print) pair per after-shape, ties to the
    smaller print: the move enumeration the grouped DP replaced."""
    best = {}
    for q_keys, fill in reference_groups(shape, x):
        cost = len(q_keys)
        i = q_keys.index(x)
        heads = [(x,) + _splice(runs, fill[:i + 1]) for runs in _slot_runs(q_keys[:i])]
        tails = [_splice(runs, fill[i + 1:]) for runs in _slot_runs(q_keys[i + 1:])]
        rooted = iter(_printed_rooted_shapes(q_keys, x))
        for head in heads:
            for tail in tails:
                rooted_pair = next(rooted)
                q_print = rooted_pair[1]
                k = head + tail
                old = best.get(k)
                if old is None or cost < old[0] or (cost == old[0] and q_print < old[1]):
                    best[k] = (cost, q_print, rooted_pair)
    return tuple((k, v[2], v[0]) for k, v in best.items())


def per_state_opt_cost(inst):
    """The layered DP that relaxes every state's own moves, ties to the
    smaller transition-tree print: the loop the grouped DP replaced.
    Returns the cost, the execution and the states per layer."""
    layer = {preorder(inst.initial): 0}
    parents = []
    per_layer = []
    for x in inst.requests:
        nxt, back = {}, {}
        per_layer.append(len(layer))
        for shape, dist in layer.items():
            for after, rooted_pair, cost in per_state_transitions(shape, x):
                cand = dist + cost
                known = nxt.get(after)
                if known is None or cand < known or (
                    cand == known and rooted_pair[1] < back[after][1][1]
                ):
                    nxt[after] = cand
                    back[after] = (shape, rooted_pair)
        layer = nxt
        parents.append(back)
    cur = min(layer, key=lambda s: (layer[s], s))
    total = layer[cur]
    trees = []
    for back in reversed(parents):
        cur, (q_prime, _) = back[cur]
        trees.append(q_prime)
    return total, Execution(tuple(reversed(trees))), tuple(per_layer)


def cheapest_group_moves(shape, x):
    """The grouped moves of one state, reduced to the cheapest move per
    after-shape, ties to the smaller print, as (after, print of Q', cost)."""
    best = {}
    for q_keys, fill in _groups(shape, x):
        cost = len(q_keys)
        for after, q_print in _group_moves(q_keys, fill, x):
            old = best.get(after)
            if old is None or (cost, q_print) < old:
                best[after] = (cost, q_print)
    return [(k, q_print, cost) for k, (cost, q_print) in best.items()]


def assert_same_result(result, cost, execution):
    assert result.cost == cost
    assert [shape_print(q) for q in result.execution.transition_trees] == [
        shape_print(q) for q in execution.transition_trees
    ]


class TestTransitions:
    def test_keysets_match_reference(self):
        for n in range(1, 7):
            for t in all_shapes(n):
                for x in range(1, n + 1):
                    keysets = [q_keys for q_keys, _ in _groups(preorder(t), x)]
                    assert keysets == reference_keysets(t, x)

    def test_groups_match_tree_reference_exhaustive(self):
        # Key sets and fills from the access-path descent equal those read off
        # a Node tree, for every shape with n <= 7 and every request.
        for n in range(1, 8):
            for t in all_shapes(n):
                shape = preorder(t)
                for x in range(1, n + 1):
                    assert _groups(shape, x) == reference_groups(shape, x)

    def test_groups_and_sides_need_no_sort_exhaustive(self):
        # The tables are composed in order, never sorted: sorted for the
        # groups and for a plain side table, and for a lead table each key
        # tuple compares as if a key above all keys followed it.
        def lead(group):
            return group[0] + (float("inf"),), group[1]

        for n in range(1, 8):
            for t in all_shapes(n):
                shape = preorder(t)
                assert _sides(shape, False) == tuple(sorted(_sides(shape, False)))
                assert _sides(shape, True) == tuple(sorted(_sides(shape, True), key=lead))
                assert sorted(_sides(shape, True)) == list(_sides(shape, False))
                for x in range(1, n + 1):
                    assert _groups(shape, x) == tuple(sorted(_groups(shape, x)))

    def test_match_reference_exhaustive(self):
        # The grouped moves, reduced per after-shape, are the reference moves
        # in the same order, with the same chosen transition tree and cost,
        # for every shape with n <= 6 and every request.
        for n in range(1, 7):
            for t in all_shapes(n):
                shape = preorder(t)
                for x in range(1, n + 1):
                    assert cheapest_group_moves(shape, x) == [
                        (k, shape_print(q), c) for k, q, c in reference_transitions(shape, x)
                    ]
                    # Every move's after-shape, not only the cheapest, is
                    # its printed Q' substituted into the state.
                    for q_keys, fill in _groups(shape, x):
                        for after, q_print in _group_moves(q_keys, fill, x):
                            assert after == preorder(substitute(t, parse_shape(q_print)))

    def test_per_state_transitions_match_reference_exhaustive(self):
        for n in range(1, 7):
            for t in all_shapes(n):
                shape = preorder(t)
                for x in range(1, n + 1):
                    moves = per_state_transitions(shape, x)
                    assert [(k, q, c) for k, (q, _), c in moves] == list(
                        reference_transitions(shape, x)
                    )

    def test_arrangements_match_trees(self):
        # Each composed entry is the print and slot runs of the arrangement
        # in the same place of shapes_on_keys, on 1..n and on keys 5, 8, ...
        for n in range(9):
            for keys in (tuple(range(1, n + 1)), tuple(range(5, 5 + 3 * n, 3))):
                assert _arrangements(keys) == tuple(
                    zip(map(shape_print, shapes_on_keys(keys)), _slot_runs(keys))
                )

    def test_rooted_prints_match_rooted_shapes(self):
        for n in range(1, 9):
            keys = tuple(range(1, n + 1))
            for x in keys:
                assert list(_rooted_prints(keys, x)) == [
                    shape_print(q) for q in rooted_shapes(keys, x)
                ]

    def test_opt_cost_builds_no_arrangement_trees(self):
        # A cold call fills no tree cache: its only trees are the m
        # transition trees parsed from their prints.
        for cached in vars(opt).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        shapes_on_keys.cache_clear()
        rooted_shapes.cache_clear()
        inst = make_random_instance(random.Random(6), 6, 6)
        assert opt_cost(inst).cost >= inst.m
        assert shapes_on_keys.cache_info().currsize == 0
        assert rooted_shapes.cache_info().currsize == 0

    def test_rooted_shapes_are_the_filtered_arrangements(self):
        for n in range(1, 7):
            keys = tuple(range(1, n + 1))
            for x in keys:
                assert list(rooted_shapes(keys, x)) == [
                    s for s in shapes_on_keys(keys) if s.key == x
                ]

    def test_opt_cost_matches_reference_dp_n7(self):
        rng = random.Random(7)
        for _ in range(4):
            inst = Instance(
                tuple(rng.randint(1, 7) for _ in range(4)), random_tree(7, rng)
            )
            result = opt_cost(inst)
            cost, execution, expanded = reference_opt_cost(inst)
            assert result.cost == cost
            assert result.states_expanded == expanded
            assert [shape_print(q) for q in result.execution.transition_trees] == [
                shape_print(q) for q in execution.transition_trees
            ]

    def test_opt_cost_matches_reference_dp_long(self):
        # Six to eight requests reach tie-breaks across several layers.
        rng = random.Random(11)
        for m in (6, 7, 8):
            for _ in range(4):
                inst = make_random_instance(rng, rng.randint(4, 6), m)
                result = opt_cost(inst)
                cost, execution, expanded = reference_opt_cost(inst)
                assert_same_result(result, cost, execution)
                assert result.states_expanded == expanded

    def test_opt_cost_matches_per_state_dp(self):
        # Which state a group keeps decides the reconstructed execution.
        rng = random.Random(10)
        for _ in range(300):
            inst = make_random_instance(rng, rng.randint(1, 7), rng.randint(0, 8))
            result = opt_cost(inst)
            cost, execution, per_layer = per_state_opt_cost(inst)
            assert_same_result(result, cost, execution)
            assert result.states_per_layer == per_layer

    def test_opt_cost_matches_per_state_dp_n8(self, monkeypatch):
        monkeypatch.setenv("SPLAYLAB_GUARD_OVERRIDE", "1")
        rng = random.Random(8)
        inst = Instance(tuple(rng.randint(1, 8) for _ in range(6)), random_tree(8, rng))
        result = opt_cost(inst)
        cost, execution, per_layer = per_state_opt_cost(inst)
        assert_same_result(result, cost, execution)
        assert result.states_per_layer == per_layer

    def test_states_per_layer(self, rng):
        for _ in range(20):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(0, 4))
            result = opt_cost(inst)
            assert len(result.states_per_layer) == inst.m
            assert sum(result.states_per_layer) == result.states_expanded
            assert result.states_per_layer[:1] in ((), (1,))

    def test_groups_per_layer(self, rng):
        # One group per distinct (kept set, fill) pair of the layer, whose
        # states are those the reference moves reach; each group relaxes one
        # move per arrangement of its kept set with x at the root.
        for _ in range(20):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(0, 5))
            result = opt_cost(inst)
            assert len(result.groups_per_layer) == len(result.moves_per_layer) == inst.m
            layer = {preorder(inst.initial)}
            for x, groups, moves in zip(
                inst.requests, result.groups_per_layer, result.moves_per_layer
            ):
                pairs = {g for s in layer for g in reference_groups(s, x)}
                assert groups == len(pairs)
                assert moves == sum(len(rooted_shapes(q_keys, x)) for q_keys, _ in pairs)
                layer = {k for s in layer for k, _, _ in per_state_transitions(s, x)}


class TestOracleBasics:
    def test_root_access(self):
        t = bst_from_sequence([2, 1, 3])
        assert opt_cost(Instance((2,), t)).cost == 1

    def test_forced_path(self):
        t = left_spine_tree([1, 2, 3])
        assert opt_cost(Instance((1,), t)).cost == 3

    def test_execution_achieves_reported_cost(self, rng):
        for _ in range(60):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(0, 4))
            result = opt_cost(inst)
            trace = validate(inst, result.execution)
            assert trace.cost == result.cost

    def test_cost_at_least_m(self, rng):
        for _ in range(60):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(1, 4))
            assert opt_cost(inst).cost >= inst.m

    def test_never_beats_oracle(self, rng):
        for _ in range(40):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(1, 4))
            best = opt_cost(inst).cost
            assert best <= access_cost(inst.initial, inst.requests, "splay")
            assert best <= access_cost(inst.initial, inst.requests, "mtr")

    def test_cost_at_least_tree_size_when_all_nodes_needed(self, rng):
        # When the initial tree is the smallest root subtree spanning the
        # requested keys, even an optimal execution visits every node.
        found = 0
        for _ in range(300):
            inst = make_random_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
            span = smallest_root_subtree(inst.initial, set(inst.requests))
            if span == inst.initial:
                found += 1
                assert opt_cost(inst).cost >= inst.n
        assert found > 10


class TestGuards:
    def test_guard_exceeded(self):
        t = bst_from_sequence(range(8, 0, -1))
        with pytest.raises(GuardExceededError):
            opt_cost(Instance((1,), t))

    def test_override_env(self, monkeypatch):
        t = bst_from_sequence(range(8, 0, -1))
        monkeypatch.setenv("SPLAYLAB_GUARD_OVERRIDE", "1")
        assert opt_cost(Instance((8,), t)).cost >= 1

    @pytest.mark.parametrize("value", ["0", "", "false", "yes"])
    def test_only_one_lifts_the_guards(self, monkeypatch, value):
        monkeypatch.setenv("SPLAYLAB_GUARD_OVERRIDE", value)
        with pytest.raises(GuardExceededError):
            check_guards(9, 20)
        monkeypatch.setenv("SPLAYLAB_GUARD_OVERRIDE", "1")
        check_guards(9, 20)


class TestEliedOptimal:
    def test_elided_cost_between_sub_opt_and_full(self, rng):
        for _ in range(60):
            inst = make_random_instance(rng, rng.randint(1, 4), rng.randint(1, 3))
            best = opt_cost(inst)
            deleted = {i for i in range(1, inst.m + 1) if rng.random() < 0.5}
            if not deleted or len(deleted) == inst.m:
                continue
            pruned = elide(inst, best.execution, deleted)
            sub = subsequence_instance(inst, deleted)
            cost = validate(sub, pruned).cost
            assert cost < best.cost
            assert cost >= opt_cost(sub).cost

    def test_one_trace_serves_every_mask_exhaustive(self):
        # The opt-monotone suite validates each optimal execution once and
        # elides every deletion set from that trace.
        for n in range(1, 4):
            for t in all_shapes(n):
                for m in range(1, 4):
                    for x_seq in itertools.product(range(1, n + 1), repeat=m):
                        inst = Instance(x_seq, t)
                        best = opt_cost(inst).execution
                        trace = validate(inst, best)
                        for mask in range(1, 2 ** m):
                            deleted = {i + 1 for i in range(m) if (mask >> i) & 1}
                            assert _elide_trace(trace, deleted) == elide(inst, best, deleted)


class TestOptMonotoneSweep:
    def test_deletion_sets_in_mask_order(self):
        # Each m's sets are built once per sweep, as the per-instance loop
        # built them for every mask.
        for m in range(5):
            assert _deletion_sets(m) == tuple(
                {i + 1 for i in range(m) if (mask >> i) & 1} for mask in range(1, 2**m)
            )

    def test_elision_failure_names_the_deletion_set(self, monkeypatch):
        # A planted defect that makes one elision as dear as the full
        # execution: the message prints the deletion set as a set.
        real = validate

        def tampered(inst, execution):
            trace = real(inst, execution)
            if inst.requests == (1, 1):
                return trace._replace(cost=trace.cost + 100)
            return trace

        monkeypatch.setattr("splaylab.suites.validate", tampered)
        message = r"^elision not cheaper: \(1 \. \.\) \(1, 1, 1\) \{1\}$"
        with pytest.raises(SuiteFailure, match=message):
            suite_opt_monotone(max_n=1, max_m=3)


def initial_tree_shift(x_seq, t, t_prime):
    """Difference in optimum cost from swapping the initial tree; its
    magnitude never exceeds the tree size."""
    if tree_keys(t) != tree_keys(t_prime):
        raise ValueError("initial trees must hold the same keys")
    a = opt_cost(Instance(x_seq, t)).cost
    b = opt_cost(Instance(x_seq, t_prime)).cost
    shift = a - b
    if abs(shift) > size(t):
        raise InvariantError(f"initial-tree shift {shift} exceeds the tree size {size(t)}")
    return shift


class TestInitialTreeShift:
    def test_same_tree_is_zero(self):
        t = bst_from_sequence([2, 1, 3])
        assert initial_tree_shift((1, 2), t, t) == 0

    def test_bound_exhaustive_n4(self):
        shapes = all_shapes(4)
        for t in shapes:
            for t_prime in shapes:
                for m in range(1, 3):
                    for x_seq in itertools.product(range(1, 5), repeat=m):
                        shift = initial_tree_shift(x_seq, t, t_prime)
                        assert abs(shift) <= 4

    def test_bound_random_n5(self, rng):
        for _ in range(40):
            t = random_tree(5, rng)
            t_prime = random_tree(5, rng)
            x_seq = tuple(rng.randint(1, 5) for _ in range(3))
            assert abs(initial_tree_shift(x_seq, t, t_prime)) <= 5

    def test_key_set_mismatch(self):
        with pytest.raises(ValueError):
            initial_tree_shift((1,), bst_from_sequence([1, 2]), bst_from_sequence([1, 3]))
