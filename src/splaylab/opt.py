"""Exact brute-force optimal execution cost by layered dynamic programming
over tree shapes.

State after i requests is the whole tree arrangement, kept as its preorder.
A request x is served by replacing a connected root subtree Q holding x with
an arrangement Q' of its keys, x at the root, at cost |Q|; the after-tree
depends only on Q' and Q's hanging subtrees.  So each layer's (state, Q)
pairs are grouped by (Q's keys, hanging-subtree preorders): a group keeps its
least distance and relaxes its moves once.  A state's pairs are found by
descending x's access path only, each hanging preorder a slice of the
state's, with no tree built for the state (see :func:`_groups`): what Q can
take from a subtree off the path depends on that subtree's preorder alone,
so one table per subtree preorder serves every state and request that
share it (see :func:`_sides`).  The arrangements are (x L R)
for every L on Q's keys below x and every R on those above, left-major.  A
move is an after-state and the print of Q', the tie-break; it builds no
tree.  The after-state, a preorder, is spliced from the preorders of L, R
and Q's hanging subtrees (see :func:`_group_moves`); the sides' prints and
preorders come from one table composed from smaller sides (see
:func:`_arrangements`).  Only the m transition trees of the reconstructed
execution are built, from their prints.  Guards keep the state space at
desk scale; SPLAYLAB_GUARD_OVERRIDE=1 lifts them at the caller's risk.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

from .model import Execution, ExecutionTrace, Instance, validate
from .tree import InvariantError, Node, parse_shape, preorder

DEFAULT_GUARD_N = 7
DEFAULT_GUARD_M = 8


class GuardExceededError(ValueError):
    """Instance larger than the oracle guards allow."""


class OptResult(NamedTuple):
    cost: int
    execution: Execution
    states_expanded: int
    # States expanded before each request; sums to ``states_expanded``.
    states_per_layer: tuple[int, ...]
    # (Kept set, hanging subtrees) groups relaxed before each request; each
    # is at most that layer's count of (state, kept set) pairs.
    groups_per_layer: tuple[int, ...]
    # Moves relaxed before each request: each group's arrangements of its
    # kept set with the request at the root.
    moves_per_layer: tuple[int, ...]
    trace: ExecutionTrace  # the validated trace of ``execution``


def check_guards(n: int, m: int, guard_m: int = DEFAULT_GUARD_M) -> None:
    """Reject n keys and m requests beyond the guards, unless
    SPLAYLAB_GUARD_OVERRIDE is 1."""
    if os.environ.get("SPLAYLAB_GUARD_OVERRIDE") == "1":
        return
    if n > DEFAULT_GUARD_N or m > guard_m:
        raise GuardExceededError(
            f"n={n}, m={m} exceeds guards n<={DEFAULT_GUARD_N}, m<={guard_m}"
        )


# A kept key set and the preorders of its hanging subtrees: see _groups.
_Group = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=200_000)
def _groups(shape: tuple[int, ...], x: int) -> tuple[_Group, ...]:
    """The (Q's keys, fill) pair of every connected root subtree Q of the
    state with preorder ``shape`` containing ``x``, in sorted key-set order:
    ``fill`` holds the preorders of Q's hanging subtrees in symmetric order.

    The pair fixes the request's moves through Q (see :func:`_group_moves`),
    so states sharing a pair share them.  Only x's access path is walked:
    the subtree off each path node comes from its :func:`_sides` entry, and
    x's own subtree is its entry without the option of hanging it whole.
    """
    return _path_groups(shape, x, False)


def _path_groups(sub: tuple[int, ...], x: int, lead: bool) -> tuple[_Group, ...]:
    """The (keys, fill) pairs of the connected subtrees at the root of the
    subtree with preorder ``sub`` that hold the root and ``x``, in sorted
    order, or in lead order if ``lead`` (see :func:`_sides`)."""
    root = sub[0]
    if root == x:
        sides = _sides(sub, lead)
        return sides[:-1] if lead else sides[1:]
    mid = _right_start(sub)
    if x < root:
        return _join(_path_groups(sub[1:mid], x, True), root, _sides(sub[mid:], lead))
    return _join(_sides(sub[1:mid], True), root, _path_groups(sub[mid:], x, lead))


@lru_cache(maxsize=200_000)
def _sides(sub: tuple[int, ...], lead: bool) -> tuple[_Group, ...]:
    """What a kept set can take from the subtree with preorder ``sub``
    hanging below it: the subtree hanging whole, and each connected
    subtree at its root with its fill.  The empty subtree leaves one empty
    slot.  Depends on ``sub`` alone, so states and requests share it.

    Each key set appears once, in sorted order, so hanging whole comes
    first; or in lead order, each key tuple compared as if a key above all
    keys followed it, so hanging whole comes last.  A left side compares in
    lead order inside a join, since the root follows its keys: so lead
    lefts joined with sorted rights come out sorted, and with lead rights
    in lead order, and no table is ever sorted."""
    if not sub:
        return (((), ((),)),)
    mid = _right_start(sub)
    kept = _join(_sides(sub[1:mid], True), sub[0], _sides(sub[mid:], lead))
    whole = (((), (sub,)),)
    return kept + whole if lead else whole + kept


def _right_start(sub: tuple[int, ...]) -> int:
    """Where the right subtree starts in the preorder ``sub``: at its first
    key above the root's."""
    root = sub[0]
    for mid in range(1, len(sub)):
        if sub[mid] > root:
            return mid
    return len(sub)


def _join(lefts: tuple[_Group, ...], root: int, rights: tuple[_Group, ...]) -> tuple[_Group, ...]:
    """Every left pair with every right one around ``root``: left keys and
    slots precede the root's and right ones follow, so keys and fill come
    out in symmetric order."""
    key = (root,)
    return tuple((lk + key + rk, lf + rf) for lk, lf in lefts for rk, rf in rights)


@lru_cache(maxsize=200_000)
def _group_moves(
    q_keys: tuple[int, ...], fill: tuple[tuple[int, ...], ...], x: int
) -> tuple[tuple[tuple[int, ...], str], ...]:
    """The (after-shape key, transition-tree print) move of every
    arrangement Q' of ``q_keys`` with ``x`` at the root, in
    :func:`_rooted_prints` order, whose prints it shares.

    No after-tree is built: with Q' = (x L R), the after-shape's preorder is
    ``x``, then L's preorder with its empty slots filled by ``fill``'s first
    preorders, then R's with the rest, since a preorder meets a tree's empty
    slots in symmetric order.  Distinct arrangements give distinct
    after-shapes, whose root subtree on ``q_keys`` is Q'.
    """
    i = q_keys.index(x)
    heads = [(x,) + _splice(runs, fill[:i + 1]) for _, runs in _arrangements(q_keys[:i])]
    tails = [_splice(runs, fill[i + 1:]) for _, runs in _arrangements(q_keys[i + 1:])]
    afters = (head + tail for head in heads for tail in tails)
    return tuple(zip(afters, _rooted_prints(q_keys, x)))


@lru_cache(maxsize=None)
def _rooted_prints(keys: tuple[int, ...], x: int) -> tuple[str, ...]:
    """The prints of the arrangements of ``keys`` with ``x`` at the root,
    left arrangements major: the DP's tie-break."""
    i = keys.index(x)
    lefts = _arrangements(keys[:i])
    rights = [right for right, _ in _arrangements(keys[i + 1:])]
    return tuple(f"({x} {left} {right})" for left, _ in lefts for right in rights)


def _splice(
    runs: tuple[tuple[int, ...], ...], fill: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for run, sub in zip(runs, fill):
        out += run + sub
    return out


@lru_cache(maxsize=None)
def _arrangements(keys: tuple[int, ...]) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
    """For each arrangement of the sorted ``keys``, root major, then left
    arrangement, then right (the order of
    :func:`splaylab.tree.shapes_on_keys`): its print and its preorder cut
    at its |keys| + 1 empty slots, run j holding the keys met after slot
    j - 1 and before slot j.  Each is composed from the two sides' entries,
    so no tree is built."""
    if not keys:
        return ((".", ((),)),)
    out = []
    for i, k in enumerate(keys):
        rights = _arrangements(keys[i + 1:])
        for left, left_runs in _arrangements(keys[:i]):
            head = ((k,) + left_runs[0],) + left_runs[1:]
            out.extend((f"({k} {left} {right})", head + runs) for right, runs in rights)
    return tuple(out)


def opt_cost(inst: Instance, guard_m: int = DEFAULT_GUARD_M) -> OptResult:
    """Exact minimum execution cost and one optimal execution achieving it."""
    check_guards(inst.n, inst.m, guard_m)
    start = preorder(inst.initial)
    layer: dict[tuple[int, ...], int] = {start: 0}
    # back[after] = (shape, transition-tree print)
    parents: list[dict[tuple[int, ...], tuple[tuple[int, ...], str]]] = []
    per_layer: list[int] = []
    groups_per_layer: list[int] = []
    moves_per_layer: list[int] = []
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
        back: dict[tuple[int, ...], tuple[tuple[int, ...], str]] = {}
        relaxed = 0
        for (q_keys, fill), (dist, shape) in groups.items():
            cand = dist + len(q_keys)
            moves = _group_moves(q_keys, fill, x)
            relaxed += len(moves)
            for after, q_print in moves:
                known = nxt.get(after)
                # Equal prints mean the same Q' and after-shape, so the same
                # group, whose kept state is the first in layer order at its
                # distance, as a per-state relaxation would choose.
                if known is None or cand < known or (
                    cand == known and q_print < back[after][1]
                ):
                    nxt[after] = cand
                    back[after] = (shape, q_print)
        moves_per_layer.append(relaxed)
        layer = nxt
        parents.append(back)
    best_shape = min(layer, key=lambda s: (layer[s], s))
    total = layer[best_shape]
    # Reconstruct one optimal execution: its m transition trees are the only
    # trees the oracle builds.
    trees: list[Node] = []
    cur = best_shape
    for back in reversed(parents):
        cur, q_print = back[cur]
        trees.append(parse_shape(q_print))
    trees.reverse()
    execution = Execution(tuple(trees))
    trace = validate(inst, execution)
    if trace.cost != total:
        raise InvariantError(
            f"reconstructed execution costs {trace.cost}, not the optimum {total}"
        )
    return OptResult(
        total, execution, sum(per_layer), tuple(per_layer), tuple(groups_per_layer),
        tuple(moves_per_layer), trace,
    )
