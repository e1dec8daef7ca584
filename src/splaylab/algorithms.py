"""Self-adjusting algorithms as pure tree-to-tree functions: bottom-up Splay
with step classification, Move-to-Root, Top-Down Splay, insertion splaying,
and splay-based deque operations.

Each access returns the new tree together with an :class:`AccessRecord`
carrying the path encoding, splay-step classification, and the crossing /
bookkeeping split of its cost.

The three algorithms are path-based: the rearranged top of the tree is a
function of the access path's binary encoding alone, and subtrees hanging
off the path are re-attached wherever symmetric order forces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from .tree import (
    KeyAbsentError,
    Node,
    Tree,
    insert_leaf,
    parse_key,
    path_nodes,
)


@dataclass(frozen=True)
class AccessRecord:
    """Bookkeeping for one access."""

    key: int
    encoding: str
    steps: tuple[str, ...]  # splay-step kinds, bottom-up (empty for MTR/TDS)
    cost: int  # depth + 1
    crossing: int  # crossing nodes on the access path (the level)
    bookkeeping: int  # cost - crossing


def crossing_count(encoding: str) -> int:
    """Number of crossing nodes on a path with the given encoding: both
    endpoints plus every direction alternation strictly between them."""
    d = len(encoding)
    if d == 0:
        return 1
    alternations = sum(
        1 for i in range(d - 1) if encoding[i] != encoding[i + 1]
    )
    return 2 + alternations


def classify_steps(encoding: str) -> tuple[str, ...]:
    """Splay-step kinds for a path, in bottom-up execution order."""
    steps = []
    i = len(encoding)
    while i >= 2:
        steps.append("zig-zag" if encoding[i - 1] != encoding[i - 2] else "zig-zig")
        i -= 2
    if i == 1:
        steps.append("zig")
    return tuple(steps)


def _record(key: int, encoding: str, steps: tuple[str, ...]) -> AccessRecord:
    cost = len(encoding) + 1
    crossing = crossing_count(encoding)
    return AccessRecord(key, encoding, steps, cost, crossing, cost - crossing)


def _rearrange(t: Tree, key: int, pair_start: Callable[[int], int]) -> tuple[Node, str]:
    """The path kernel shared by Splay, Move-to-Root and Top-Down Splay.

    Walks the access path p[0] (root) .. p[d] = ``key`` once, bottom-up, and
    unzips each node onto its side of ``key``: smaller nodes onto the right
    spine of the new left subtree, larger ones onto the left spine of the new
    right subtree, each keeping its hanging subtree on the outside.  The one
    exception is a fold.  With s = ``pair_start(d)``, a pair (p[i], p[i+1])
    with s <= i, i = s (mod 2) and i+1 < d is folded when both nodes lie on
    one side: p[i+1] takes the pair's place on the spine, p[i] becomes its
    outer child and keeps its hanging subtree outside, and p[i+1]'s hanging
    subtree goes between them.  Returns the new tree, built from d+1 new
    nodes, and the path encoding.
    """
    path = path_nodes(t, key)
    encoding = "".join("1" if p.key < key else "0" for p in path[:-1])
    d = len(path) - 1
    if d == 0:
        return path[0], encoding
    s = pair_start(d)
    left, right = path[-1].left, path[-1].right
    i = d - 1
    while i >= 0:
        p = path[i]
        if i > s and (i - 1 - s) % 2 == 0 and encoding[i - 1] == encoding[i]:
            q = path[i - 1]
            if encoding[i] == "1":
                left = Node(p.key, Node(q.key, q.left, p.left), left)
            else:
                right = Node(p.key, right, Node(q.key, p.right, q.right))
            i -= 2
        else:
            if encoding[i] == "1":
                left = Node(p.key, p.left, left)
            else:
                right = Node(p.key, right, p.right)
            i -= 1
    return Node(key, left, right), encoding


def splay(t: Tree, key: int) -> tuple[Node, AccessRecord]:
    """Bottom-up splay: zig-zig and zig-zag steps pair the path from the
    accessed node upward, and a lone zig finishes the access.  A zig-zig
    step is a fold of the path kernel; a zig-zag step leaves both nodes
    unzipped, as Move-to-Root does."""
    out, encoding = _rearrange(t, key, lambda d: d % 2)
    return out, _record(key, encoding, classify_steps(encoding))


def move_to_root(t: Tree, key: int) -> tuple[Node, AccessRecord]:
    """Rotate the searched node all the way to the root.

    Equivalent unzip view: path nodes smaller than the key form the right
    spine of its new left subtree in increasing order, larger ones the left
    spine of its new right subtree in decreasing order; every path node keeps
    its off-path subtree on the outside.
    """
    out, encoding = _rearrange(t, key, lambda d: d)  # no pair fits: nothing folds
    return out, _record(key, encoding, ())


def top_down_splay(t: Tree, key: int) -> tuple[Node, AccessRecord]:
    """Top-Down Splay in the global view: Move-to-Root, then rotate adjacent
    same-side path pairs taken from the root downward.  Identical to the
    bottom-up variant on access paths with an odd number of nodes, different
    on even paths longer than two.
    """
    out, encoding = _rearrange(t, key, lambda d: 0)
    return out, _record(key, encoding, ())


def insertion_splay(t: Tree, key: int) -> Node:
    """Insert a key at a leaf, then splay the new node to the root."""
    grown = insert_leaf(t, key)
    out, _ = splay(grown, key)
    return out


AccessFn = Callable[[Tree, int], tuple[Node, AccessRecord]]

ALGORITHMS: dict[str, AccessFn] = {
    "splay": splay,
    "mtr": move_to_root,
    "tds": top_down_splay,
}


def run_accesses(
    t: Tree, keys: Iterable[int], algo: str = "splay"
) -> tuple[Tree, list[AccessRecord]]:
    """Apply one algorithm along a request sequence; returns the final tree
    and the per-access records."""
    fn = ALGORITHMS[algo]
    records = []
    for k in keys:
        t, rec = fn(t, k)
        records.append(rec)
    return t, records


class RunTotals(NamedTuple):
    """The final tree and summed costs of one algorithm's run."""

    tree: Tree
    cost: int
    crossing: int

    @property
    def bookkeeping(self) -> int:
        return self.cost - self.crossing


def run_totals(t: Tree, keys: Iterable[int], algo: str = "splay") -> RunTotals:
    """Apply one algorithm along a request sequence, keeping no per-access
    records; the one place that sums a run's costs."""
    fn = ALGORITHMS[algo]
    cost = crossing = 0
    for k in keys:
        t, rec = fn(t, k)
        cost += rec.cost
        crossing += rec.crossing
    return RunTotals(t, cost, crossing)


def access_cost(t: Tree, keys: Iterable[int], algo: str = "splay") -> int:
    return run_totals(t, keys, algo).cost


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
            if t is not None:
                if op == "push" and arg >= _min_key(t):
                    raise ValueError(f"push key {arg} is not a new minimum")
                if op == "inject" and arg <= _max_key(t):
                    raise ValueError(f"inject key {arg} is not a new maximum")
            grown = insert_leaf(t, arg)
            t, rec = splay(grown, arg)
            total += rec.cost
        elif op in ("pop", "eject"):
            if t is None:
                raise EmptyDequeError(op)
            if t.left is None and t.right is None:
                total += 1  # splaying the extremum at the root
                t = None
                continue
            if op == "pop":
                low = _min_key(t)
                succ = _successor(t, low)
                t, rec = splay(t, succ)
                total += rec.cost
                t = Node(t.key, None, t.right)  # left subtree is exactly the minimum
            else:
                high = _max_key(t)
                pred = _predecessor(t, high)
                t, rec = splay(t, pred)
                total += rec.cost
                t = Node(t.key, t.left, None)
        else:
            raise ValueError(f"unknown deque op {op!r}")
    return t, total


def _min_key(t: Node) -> int:
    while t.left is not None:
        t = t.left
    return t.key


def _max_key(t: Node) -> int:
    while t.right is not None:
        t = t.right
    return t.key


def _successor(t: Node, key: int) -> int:
    succ = None
    node: Tree = t
    while node is not None:
        if node.key > key:
            succ = node.key
            node = node.left
        else:
            node = node.right
    if succ is None:
        raise KeyAbsentError(f"{key} has no successor")
    return succ


def _predecessor(t: Node, key: int) -> int:
    pred = None
    node: Tree = t
    while node is not None:
        if node.key < key:
            pred = node.key
            node = node.right
        else:
            node = node.left
    if pred is None:
        raise KeyAbsentError(f"{key} has no predecessor")
    return pred


def parse_deque_script(text: str) -> list[tuple[str, Optional[int]]]:
    """One op per line: ``push k`` | ``inject k`` | ``pop`` | ``eject``."""
    ops: list[tuple[str, Optional[int]]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("push", "inject"):
            if len(parts) != 2:
                raise ValueError(f"bad deque op line: {line!r}")
            ops.append((parts[0], parse_key(parts[1])))
        elif parts[0] in ("pop", "eject") and len(parts) == 1:
            ops.append((parts[0], None))
        else:
            raise ValueError(f"bad deque op line: {line!r}")
    return ops
