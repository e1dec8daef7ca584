"""Self-adjusting algorithms as pure tree-to-tree functions: bottom-up Splay,
Move-to-Root, Top-Down Splay, and splay-based deque operations.

Each access returns the new tree together with an :class:`AccessRecord`
carrying the path encoding, the cost and the crossing count; the splay-step
kinds and the bookkeeping cost derive from those.

The three algorithms are path-based: the rearranged top of the tree is a
function of the access path's binary encoding alone, and subtrees hanging
off the path are re-attached wherever symmetric order forces them.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .tree import KeyAbsentError, Node, Tree, outer_spine, rebuild_path


class AccessRecord(NamedTuple):
    """Bookkeeping for one access."""

    key: int
    encoding: str  # access path from the root: 0 = left, 1 = right
    cost: int  # depth + 1
    crossing: int  # crossing nodes on the access path (the level)

    @property
    def bookkeeping(self) -> int:
        return self.cost - self.crossing

    @property
    def steps(self) -> tuple[str, ...]:
        """Splay-step kinds of bottom-up Splay on this path, in execution
        order: same-side pairs from the accessed node up, then a lone zig."""
        e = self.encoding
        pairs = tuple(
            "zig-zig" if e[i] == e[i - 1] else "zig-zag" for i in range(len(e) - 1, 0, -2)
        )
        return pairs + ("zig",) if len(e) % 2 else pairs


def _rearrange(
    t: Tree, key: int, pair_start: Callable[[int], int], make: Callable[..., Node] = Node
) -> tuple[Node, str, int]:
    """The path kernel shared by Splay, Move-to-Root and Top-Down Splay.

    Descends the access path p[0] (root) .. p[d] = ``key`` once, one
    same-side run at a time, then rebuilds bottom-up, unzipping each node
    onto its side of ``key``: smaller nodes onto the right spine of the new
    left subtree, larger ones onto the left spine of the new right subtree,
    each keeping its hanging subtree on the outside.  The one exception is a
    fold.  With s = ``pair_start(d)``, a pair (p[i], p[i+1]) with s <= i,
    i = s (mod 2) and i+1 < d is folded when both nodes lie on one side:
    p[i+1] takes the pair's place on the spine, p[i] becomes its outer child
    and keeps its hanging subtree outside, and p[i+1]'s hanging subtree goes
    between them.  Returns the new tree, built from d+1 new nodes by
    ``make``, the path encoding, and the crossing count: both ends of the
    path plus one node per change of direction, so one more than the number
    of runs.

    ``make`` is :class:`_Cell` in a batch run, which keeps no intermediate
    tree and freezes only its final one (:func:`_freeze`).  Every other
    caller builds ``Node``s over a tree of ``Node``s, so a ``Node`` is never
    built above a cell.
    """
    path: list[Node] = []
    runs: list[str] = []
    node = t
    while node is not None and key != node.key:
        top = len(path)
        if key < node.key:
            while node is not None and key < node.key:
                path.append(node)
                node = node.left
            runs.append("0" * (len(path) - top))
        else:
            while node is not None and key > node.key:
                path.append(node)
                node = node.right
            runs.append("1" * (len(path) - top))
    if node is None:
        raise KeyAbsentError(key)
    d = len(path)
    if d == 0:
        return node, "", 1
    encoding = "".join(runs)
    s = pair_start(d)
    left, right = node.left, node.right
    i = d - 1
    while i >= 0:
        p = path[i]
        if i > s and (i - 1 - s) % 2 == 0 and encoding[i - 1] == encoding[i]:
            q = path[i - 1]
            if encoding[i] == "1":
                left = make(p.key, make(q.key, q.left, p.left), left)
            else:
                right = make(p.key, right, make(q.key, p.right, q.right))
            i -= 2
        else:
            if encoding[i] == "1":
                left = make(p.key, p.left, left)
            else:
                right = make(p.key, right, p.right)
            i -= 1
    return make(key, left, right), encoding, len(runs) + 1


# Each path algorithm by name, given as where its folded pairs start on an
# access path of depth d (see ``_rearrange``).
ALGORITHMS: dict[str, Callable[[int], int]] = {
    "splay": lambda d: d % 2,  # pairs from the accessed node upward
    "mtr": lambda d: d,  # no pair fits: nothing folds
    "tds": lambda d: 0,  # pairs from the root downward
}


def access(t: Tree, key: int, algo: str = "splay") -> tuple[Node, AccessRecord]:
    """One access by the named algorithm: the new tree and its record."""
    out, encoding, crossing = _rearrange(t, key, ALGORITHMS[algo])
    return out, AccessRecord(key, encoding, len(encoding) + 1, crossing)


def access_tree(t: Tree, key: int, algo: str = "splay") -> Node:
    """The tree after one access by the named algorithm, with no record."""
    return _rearrange(t, key, ALGORITHMS[algo])[0]


def splay(t: Tree, key: int) -> tuple[Node, AccessRecord]:
    """Bottom-up splay: zig-zig and zig-zag steps pair the path from the
    accessed node upward, and a lone zig finishes the access.  A zig-zig
    step is a fold of the path kernel; a zig-zag step leaves both nodes
    unzipped, as Move-to-Root does."""
    return access(t, key, "splay")


def move_to_root(t: Tree, key: int) -> tuple[Node, AccessRecord]:
    """Rotate the searched node all the way to the root.

    Equivalent unzip view: path nodes smaller than the key form the right
    spine of its new left subtree in increasing order, larger ones the left
    spine of its new right subtree in decreasing order; every path node keeps
    its off-path subtree on the outside.
    """
    return access(t, key, "mtr")


def top_down_splay(t: Tree, key: int) -> tuple[Node, AccessRecord]:
    """Top-Down Splay in the global view: Move-to-Root, then rotate adjacent
    same-side path pairs taken from the root downward.  Identical to the
    bottom-up variant on access paths with an odd number of nodes, different
    on even paths longer than two.
    """
    return access(t, key, "tds")


class _Cell:
    """A node of a batch run's intermediate trees: ``Node``'s slots without
    its assignment guard, so it builds in about half the time.  No caller
    sees a cell: :func:`_freeze` turns a run's final tree into ``Node``s
    before it is returned, and the readers of :func:`_fold`'s sums drop its
    tree."""

    __slots__ = ("key", "left", "right")

    def __init__(self, key: int, left: Tree, right: Tree) -> None:
        self.key = key
        self.left = left
        self.right = right


def _freeze(t: Tree) -> Tree:
    """Make every cell of ``t`` a ``Node`` in place, in one iterative walk
    from the root.  The walk stops at each ``Node``: none is built above a
    cell, so everything below one is frozen already."""
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is _Cell:
            node.__class__ = Node
            stack.append(node.left)
            stack.append(node.right)
    return t


def run_accesses(
    t: Tree, keys: Iterable[int], algo: str = "splay"
) -> tuple[Tree, list[AccessRecord]]:
    """Apply one algorithm along a request sequence; returns the final tree
    and the per-access records.  The run builds cells and freezes only its
    final tree."""
    pair_start = ALGORITHMS[algo]
    records = []
    for k in keys:
        t, encoding, crossing = _rearrange(t, k, pair_start, _Cell)
        records.append(AccessRecord(k, encoding, len(encoding) + 1, crossing))
    return _freeze(t), records


class RunTotals(NamedTuple):
    """The final tree and summed costs of one algorithm's run."""

    tree: Tree
    cost: int
    crossing: int

    @property
    def bookkeeping(self) -> int:
        return self.cost - self.crossing


def _fold(t: Tree, keys: Iterable[int], algo: str) -> tuple[Tree, int, int]:
    """The one place that sums a run's costs: the final tree, which may hold
    cells, the summed cost and the summed crossing count.  Callers that read
    only the sums leave the tree unfrozen; :func:`run_totals` freezes it."""
    pair_start = ALGORITHMS[algo]
    cost = crossing = 0
    for k in keys:
        t, encoding, c = _rearrange(t, k, pair_start, _Cell)
        cost += len(encoding) + 1
        crossing += c
    return t, cost, crossing


def run_totals(t: Tree, keys: Iterable[int], algo: str = "splay") -> RunTotals:
    """Apply one algorithm along a request sequence, keeping no per-access
    records.  The run builds cells and freezes only its final tree."""
    t, cost, crossing = _fold(t, keys, algo)
    return RunTotals(_freeze(t), cost, crossing)


def access_cost(t: Tree, keys: Iterable[int], algo: str = "splay") -> int:
    return _fold(t, keys, algo)[1]


# ---------------------------------------------------------------------------
# Deque operations via splaying.


class EmptyDequeError(ValueError):
    """Delete requested on an empty tree."""


def deque_run(t0: Tree, ops: Iterable[tuple[str, Optional[int]]]) -> tuple[Tree, int]:
    """Run ``push k`` / ``inject k`` / ``pop`` / ``eject`` operations.

    Push and inject are insertion splays of a new minimum or maximum.  Pop
    splays the successor of the minimum and detaches the minimum node (and
    symmetrically for eject); a tree of one node is splayed and dropped.
    Returns the final tree and the summed splay costs.
    """
    t = t0
    total = 0
    for op, arg in ops:
        if op in ("push", "inject"):
            if arg is None:
                raise ValueError(f"{op} needs a key")
            spine = outer_spine(t, op == "push")
            if spine:
                end = spine[-1].key
                if arg >= end if op == "push" else arg <= end:
                    extreme = "minimum" if op == "push" else "maximum"
                    raise ValueError(f"{op} key {arg} is not a new {extreme}")
            # A new extreme is a leaf below the old one, on the outer side.
            t, rec = splay(rebuild_path(spine, arg, Node(arg)), arg)
            total += rec.cost
        elif op in ("pop", "eject"):
            if t is None:
                raise EmptyDequeError(op)
            inward = _inward_key(outer_spine(t, op == "pop"), op == "pop")
            if inward is None:
                total += 1  # splaying the extremum at the root
                t = None
                continue
            t, rec = splay(t, inward)
            total += rec.cost
            # The detached side of the new root is exactly the extremum.
            t = Node(t.key, None, t.right) if op == "pop" else Node(t.key, t.left, None)
        else:
            raise ValueError(f"unknown deque op {op!r}")
    return t, total


def _inward_key(spine: list[Node], leftmost: bool) -> Optional[int]:
    """The key next inward from the end of the nonempty outer ``spine``:
    the nearest key of the end's inner subtree, else its parent's; None
    when the tree is one node."""
    near = spine[-1].right if leftmost else spine[-1].left
    if near is None:
        return spine[-2].key if len(spine) > 1 else None
    return outer_spine(near, leftmost)[-1].key
