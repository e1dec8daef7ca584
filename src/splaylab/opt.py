"""Exact brute-force optimal execution cost by layered dynamic programming
over tree shapes.

State after i requests is the whole tree arrangement.  A request x is served
by replacing a connected root subtree Q holding x with an arrangement Q' of
its keys, x at the root, at cost |Q|; the after-tree depends only on Q' and
Q's hanging subtrees.  So each layer's (state, Q) pairs are grouped by
(Q's keys, hanging-subtree preorders): a group keeps its least distance and
relaxes its moves once (see :func:`_groups`).  The arrangements are (x L R)
for every L on Q's keys below x and every R on those above, left-major,
shared through :func:`splaylab.tree.rooted_shapes`.  No after-tree is built
for a move: its state key, a preorder, is spliced from the preorders of L, R
and Q's hanging subtrees (see :func:`_group_moves`).  Guards keep the state
space at desk scale; the environment variable SPLAYLAB_GUARD_OVERRIDE lifts
them at the caller's risk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .model import Execution, ExecutionTrace, Instance, validate
from .tree import (
    InvariantError,
    Node,
    bst_from_sequence,
    contains,
    path_nodes,
    rooted_shapes,
    shape_key,
    shape_print,
    shapes_on_keys,
)

DEFAULT_GUARD_N = 7
DEFAULT_GUARD_M = 8


class GuardExceededError(ValueError):
    """Instance larger than the oracle guards allow."""


@dataclass(frozen=True)
class OptResult:
    cost: int
    execution: Execution
    states_expanded: int
    # States expanded before each request; sums to ``states_expanded``.
    states_per_layer: tuple[int, ...]
    # (Kept set, hanging subtrees) groups relaxed before each request; each
    # is at most that layer's count of (state, kept set) pairs.
    groups_per_layer: tuple[int, ...]
    trace: ExecutionTrace  # the validated trace of ``execution``


def check_guards(n: int, m: int, guard_n: int = DEFAULT_GUARD_N, guard_m: int = DEFAULT_GUARD_M) -> None:
    """Reject n keys and m requests beyond the guards, unless
    SPLAYLAB_GUARD_OVERRIDE is set."""
    if os.environ.get("SPLAYLAB_GUARD_OVERRIDE"):
        return
    if n > guard_n or m > guard_m:
        raise GuardExceededError(f"n={n}, m={m} exceeds guards n<={guard_n}, m<={guard_m}")


# A kept key set and the preorders of its hanging subtrees: see _groups.
_Group = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=200_000)
def _groups(shape: tuple[int, ...], x: int) -> tuple[_Group, ...]:
    """The (Q's keys, fill) pair of every connected root subtree Q of the
    state containing ``x``, in sorted key-set order: ``fill`` holds the
    preorders of Q's hanging subtrees in symmetric order.

    The pair fixes the request's moves through Q (see :func:`_group_moves`),
    so states sharing a pair share them.
    """
    t = _tree_from_shape(shape)
    below, above = _child_preorders(t, shape)
    position = {k: p for p, k in enumerate(shape)}
    out = []
    for q_keys in _root_subtree_keysets(t, x):
        # Of two consecutive keys of Q one is the other's ancestor, so it
        # comes first in preorder, and the gap between them holds the inner
        # child of the other.
        fill = [below[q_keys[0]]]
        for lo, hi in zip(q_keys, q_keys[1:]):
            fill.append(below[hi] if position[hi] > position[lo] else above[lo])
        fill.append(above[q_keys[-1]])
        out.append((q_keys, tuple(fill)))
    return tuple(out)


@lru_cache(maxsize=200_000)
def _group_moves(
    q_keys: tuple[int, ...], fill: tuple[tuple[int, ...], ...], x: int
) -> tuple[tuple[tuple[int, ...], tuple[Node, str]], ...]:
    """The (after-shape key, (transition tree, its print)) move of every
    arrangement Q' of ``q_keys`` with ``x`` at the root, in
    :func:`_printed_rooted_shapes` order, whose pairs it shares.

    No after-tree is built: with Q' = (x L R), the after-shape's preorder is
    ``x``, then L's preorder with its empty slots filled by ``fill``'s first
    preorders, then R's with the rest, since a preorder meets a tree's empty
    slots in symmetric order.  Distinct arrangements give distinct
    after-shapes, whose root subtree on ``q_keys`` is Q'.
    """
    i = q_keys.index(x)
    heads = [(x,) + _splice(runs, fill[:i + 1]) for runs in _slot_runs(q_keys[:i])]
    tails = [_splice(runs, fill[i + 1:]) for runs in _slot_runs(q_keys[i + 1:])]
    afters = (head + tail for head in heads for tail in tails)
    return tuple(zip(afters, _printed_rooted_shapes(q_keys, x)))


@lru_cache(maxsize=None)
def _printed_rooted_shapes(keys: tuple[int, ...], x: int) -> tuple[tuple[Node, str], ...]:
    """:func:`rooted_shapes` paired with their prints, the DP's tie-break;
    each print is composed from those of the two sides."""
    i = keys.index(x)
    lefts = [shape_print(s) for s in shapes_on_keys(keys[:i])]
    rights = [shape_print(s) for s in shapes_on_keys(keys[i + 1:])]
    prints = (f"({x} {left} {right})" for left in lefts for right in rights)
    return tuple(zip(rooted_shapes(keys, x), prints))


def _splice(
    runs: tuple[tuple[int, ...], ...], fill: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for run, sub in zip(runs, fill):
        out += run + sub
    return out


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


def _child_preorders(
    t: Node, shape: tuple[int, ...]
) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """For each key of ``t``, whose preorder is ``shape``: the preorders of
    its left and right subtrees, as slices of ``shape``."""
    nodes = _preorder_nodes(t)
    # A subtree's preorder ends where its right subtree's ends, or else its
    # left subtree's; the right subtree starts where the left one ends.
    ends: dict[int, int] = {}
    below: dict[int, tuple[int, ...]] = {}
    above: dict[int, tuple[int, ...]] = {}
    for p in range(len(nodes) - 1, -1, -1):
        node = nodes[p]
        mid = ends[node.left.key] if node.left is not None else p + 1
        end = ends[node.right.key] if node.right is not None else mid
        ends[node.key] = end
        below[node.key] = shape[p + 1:mid]
        above[node.key] = shape[mid:end]
    return below, above


def _preorder_nodes(t: Node) -> list[Node]:
    nodes: list[Node] = []
    stack = [t]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    return nodes


@lru_cache(maxsize=50_000)
def _tree_from_shape(shape: tuple[int, ...]) -> Node:
    t = bst_from_sequence(shape)
    if t is None:
        raise InvariantError("a state's shape holds no keys")
    return t


def _root_subtree_keysets(t: Node, x: int) -> list[tuple[int, ...]]:
    """Key sets of connected root subtrees of ``t`` containing ``x``, each a
    sorted tuple, in sorted order."""
    if not contains(t, x):
        return []
    on_path = {node.key for node in path_nodes(t, x)}
    # Children before parents: kept[k] lists the key sets of the subtree at
    # k that hold k and, if k is on x's access path, x.  Left keys precede
    # the node's key and right keys follow it, so each set comes out sorted.
    kept: dict[int, list[tuple[int, ...]]] = {}
    for node in reversed(_preorder_nodes(t)):
        sides = []
        for child in (node.left, node.right):
            if child is None:
                sides.append([()])
            else:
                sets = kept.pop(child.key)
                sides.append(sets if child.key in on_path else [()] + sets)
        mid = (node.key,)
        kept[node.key] = [lo + mid + ro for lo in sides[0] for ro in sides[1]]
    return sorted(kept[t.key])


def opt_cost(
    inst: Instance,
    guard_n: int = DEFAULT_GUARD_N,
    guard_m: int = DEFAULT_GUARD_M,
) -> OptResult:
    """Exact minimum execution cost and one optimal execution achieving it."""
    check_guards(inst.n, inst.m, guard_n, guard_m)
    start = shape_key(inst.initial)
    layer: dict[tuple[int, ...], int] = {start: 0}
    # back[after] = (shape, (transition tree, its print))
    parents: list[dict[tuple[int, ...], tuple[tuple[int, ...], tuple[Node, str]]]] = []
    per_layer: list[int] = []
    groups_per_layer: list[int] = []
    for x in inst.requests:
        per_layer.append(len(layer))
        # Each group keeps its least distance and the first state in layer
        # order at it; groups keep the order of their first (state, Q).
        groups: dict[_Group, tuple[int, tuple[int, ...]]] = {}
        for shape, dist in layer.items():
            for group in _groups(shape, x):
                known = groups.get(group)
                if known is None or dist < known[0]:
                    groups[group] = (dist, shape)
        groups_per_layer.append(len(groups))
        nxt: dict[tuple[int, ...], int] = {}
        back: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[Node, str]]] = {}
        for (q_keys, fill), (dist, shape) in groups.items():
            cand = dist + len(q_keys)
            for after, rooted_pair in _group_moves(q_keys, fill, x):
                known = nxt.get(after)
                # Equal prints mean the same Q' and after-shape, so the same
                # group, whose kept state is the first in layer order at its
                # distance, as a per-state relaxation would choose.
                if known is None or cand < known or (
                    cand == known and rooted_pair[1] < back[after][1][1]
                ):
                    nxt[after] = cand
                    back[after] = (shape, rooted_pair)
        layer = nxt
        parents.append(back)
    best_shape = min(layer, key=lambda s: (layer[s], s))
    total = layer[best_shape]
    # Reconstruct one optimal execution.
    trees: list[Node] = []
    cur = best_shape
    for back in reversed(parents):
        shape, (q_prime, _) = back[cur]
        trees.append(q_prime)
        cur = shape
    trees.reverse()
    execution = Execution(tuple(trees))
    trace = validate(inst, execution)
    if trace.cost != total:
        raise InvariantError(
            f"reconstructed execution costs {trace.cost}, not the optimum {total}"
        )
    return OptResult(
        total, execution, sum(per_layer), tuple(per_layer), tuple(groups_per_layer), trace
    )
