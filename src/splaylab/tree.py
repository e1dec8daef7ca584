"""Immutable binary search trees over integer keys, plus the structural
primitives everything else is built from: construction, traversal, rotation,
root-subtree extraction and substitution, and exhaustive shape enumeration.

Trees are values: every operation returns a new tree and never mutates its
input.  Two trees are equal when they have the same keys in the same
arrangement.  The empty tree is ``None``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import AbstractSet, Callable, Iterable, Optional, Sequence


class KeyAbsentError(KeyError):
    """A named key is not present in the tree."""


class DuplicateKeyError(ValueError):
    """A key given twice where the keys of one tree must be distinct."""


class RotationAtRootError(ValueError):
    """Rotation at the root is undefined."""


class DisconnectedSubtreeError(ValueError):
    """A key set does not induce a connected subtree of the root."""


class SymmetricOrderError(ValueError):
    """A tree's keys are not in symmetric (search-tree) order."""


class InvariantError(AssertionError):
    """An internal invariant failed; checked explicitly, so also under -O."""


class Node:
    """One node of an immutable binary search tree."""

    # Not a frozen dataclass: its generated ``__init__`` calls
    # ``object.__setattr__`` once per field, and every access, rotation and
    # substitution builds d + 1 nodes.
    __slots__ = ("key", "left", "right")

    key: int
    left: Tree
    right: Tree

    def __init__(self, key: int, left: Tree = None, right: Tree = None) -> None:
        _set_key(self, key)
        _set_left(self, left)
        _set_right(self, right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Node is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Node is immutable")

    def __reduce__(self) -> tuple[Callable[[str], Tree], tuple[str]]:
        # pickle and copy get the print form and rebuild through the
        # iterative parser, so deep spines round-trip.
        return (parse_shape, (shape_print(self),))

    # Structural equality and hashing are iterative: spines can be tens of
    # thousands of nodes deep, far past the recursion limit.
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a is None or b is None or a.key != b.key:
                return False
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        return True

    def __hash__(self) -> int:
        return hash(preorder(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({shape_print(self)})"


# The slot descriptors' setters, bound once; ``Node.__init__`` stores through
# them because ``Node.__setattr__`` refuses every assignment.
_set_key = Node.key.__set__
_set_left = Node.left.__set__
_set_right = Node.right.__set__

Tree = Optional[Node]


def size(t: Tree) -> int:
    return len(preorder(t))


def tree_keys(t: Tree) -> frozenset[int]:
    return frozenset(preorder(t))


def contains(t: Tree, key: int) -> bool:
    while t is not None:
        if key == t.key:
            return True
        t = t.left if key < t.key else t.right
    return False


def path_nodes(t: Tree, key: int) -> list[Node]:
    """Access path from the root to ``key``, inclusive."""
    path = []
    node = t
    while node is not None:
        path.append(node)
        if key == node.key:
            return path
        node = node.left if key < node.key else node.right
    raise KeyAbsentError(key)


def depth(t: Tree, key: int) -> int:
    return len(path_nodes(t, key)) - 1


def preorder(t: Tree) -> tuple[int, ...]:
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            out.append(node.key)
            stack.append(node.right)
            stack.append(node.left)
    return tuple(out)


def postorder(t: Tree) -> tuple[int, ...]:
    # Reverse of (key, right, left) preorder.
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            out.append(node.key)
            stack.append(node.left)
            stack.append(node.right)
    out.reverse()
    return tuple(out)


def rebuild_path(path: Sequence[Node], key: int, new: Tree) -> Tree:
    """Rebuild the access path ``path`` (root first) bottom-up around
    ``new``, which replaces the child of its last node on ``key``'s side;
    returns ``new`` itself for an empty path."""
    for parent in reversed(path):
        if key < parent.key:
            new = Node(parent.key, new, parent.right)
        else:
            new = Node(parent.key, parent.left, new)
    return new


def bst_from_sequence(keys: Iterable[int]) -> Tree:
    """Insertion tree: insert keys in order of first appearance.

    Built as the treap whose priority is the negated first-appearance index,
    which is the same tree leaf insertion builds, in O(n log n) instead of
    O(n^2) for adversarial orders.
    """
    first: dict[int, int] = {}
    for i, k in enumerate(keys):
        if k not in first:
            first[k] = -i
    return treap_build(first.items())


def treap_build(items: Iterable[tuple[int, float]]) -> Tree:
    """The unique tree in symmetric order by key and max-heap order by
    priority, built along the right spine in key order."""
    spine: list[tuple[int, float, Tree]] = []  # (key, priority, left subtree)

    def collapse(min_priority: float) -> Tree:
        sub: Tree = None
        while spine and spine[-1][1] < min_priority:
            k, _, left = spine.pop()
            sub = Node(k, left, sub)
        return sub

    for key, pri in sorted(items):
        left = collapse(pri)
        spine.append((key, pri, left))
    return collapse(float("inf"))


def rotate(t: Tree, key: int) -> Node:
    """Single rotation at ``key``; its parent must exist."""
    return rotate_path(path_nodes(t, key))


def rotate_path(path: Sequence[Node]) -> Node:
    """Single rotation at the last node of the access path ``path``, from
    the root down; rebuilds the path above the rotated pair."""
    if len(path) == 1:
        raise RotationAtRootError(f"rotation at the root key {path[0].key} is undefined")
    x = path[-1]
    return rebuild_path(path[:-2], x.key, _rotate_pair(x, path[-2]))


def _rotate_pair(x: Node, y: Node) -> Node:
    """``x`` rotated above its parent ``y``.  Reads only ``y``'s key and its
    child on the side away from ``x``, so ``y`` may be a stale copy whose
    child on ``x``'s side is out of date."""
    if x.key < y.key:
        # x rises, y becomes its right child.
        return Node(x.key, x.left, Node(y.key, x.right, y.right))
    return Node(x.key, Node(y.key, y.left, x.left), x.right)


_INF = float("inf")


class PathZipper:
    """A tree opened along one root path for a run of single rotations.

    It holds a focus subtree, the open key bounds of that subtree, and one
    frame per ancestor of the focus, root first: the ancestor as the zipper
    passed it on the way down, and the open key bounds of its subtree.  Only
    an ancestor's child toward the focus is stale.  To reach a rotation key
    the zipper climbs until the key lies inside the focus's bounds, copying
    each ancestor it leaves, then descends, so a rotation next to the
    previous one costs O(1).  A failed rotation leaves the zipper spent.
    """

    __slots__ = ("_focus", "_lo", "_hi", "_frames")

    def __init__(self, t: Node) -> None:
        self._focus: Node = t
        self._lo = -_INF
        self._hi = _INF
        self._frames: list[tuple[Node, float, float]] = []

    def rotate(self, key: int) -> int:
        """Single rotation at ``key``; returns the key of its parent, which
        becomes its child.  Raises :class:`KeyAbsentError` for an absent
        key and :class:`RotationAtRootError` for the root's, naming it."""
        focus, lo, hi, frames = self._focus, self._lo, self._hi, self._frames
        while not lo < key < hi:
            parent, lo, hi = frames.pop()
            focus = rebuild_path((parent,), focus.key, focus)
        while key != focus.key:
            frames.append((focus, lo, hi))
            if key < focus.key:
                hi = focus.key
                focus = focus.left
            else:
                lo = focus.key
                focus = focus.right
            if focus is None:
                raise KeyAbsentError(key)
        if not frames:
            raise RotationAtRootError(f"rotation at the root key {key} is undefined")
        parent, self._lo, self._hi = frames.pop()
        self._focus = _rotate_pair(focus, parent)
        return parent.key

    def close(self) -> Node:
        """The whole tree, zipped back to the root, where the zipper now
        stands."""
        focus = self._focus
        self._focus = rebuild_path([parent for parent, _, _ in self._frames], focus.key, focus)
        self._frames.clear()
        self._lo, self._hi = -_INF, _INF
        return self._focus


def root_subtree(t: Tree, keys: Iterable[int]) -> Node:
    """The induced subtree on ``keys``, which must form a connected subtree
    containing the root.  Visits only those nodes and their children."""
    want = frozenset(keys)
    return _induced(_root_walk(t, want)[0], want)


def _induced(pre: list[Node], want: AbstractSet[int]) -> Node:
    """A copy of the root subtree on ``want`` whose nodes ``pre`` lists in
    preorder."""
    # Reversed preorder finishes every subtree before its parent, so the
    # stack holds the left child's copy on top of the right child's.
    built: list[Node] = []
    for node in reversed(pre):
        left = built.pop() if node.left is not None and node.left.key in want else None
        right = built.pop() if node.right is not None and node.right.key in want else None
        built.append(Node(node.key, left, right))
    return built[0]


def substitute(t: Tree, q_prime: Tree) -> Node:
    """Replace the root subtree on ``q_prime``'s keys with ``q_prime``,
    re-attaching hanging subtrees in the slots forced by symmetric order.
    Costs O(|Q|); raises :class:`SymmetricOrderError` when ``q_prime`` is
    not a search tree, after any key-set or connectivity error."""
    return _substitution(t, q_prime)[2]


def replace_root_subtree(t: Tree, q_prime: Tree) -> tuple[Node, Node, int]:
    """Q, the root subtree of ``t`` on ``q_prime``'s keys as arranged in
    ``t``; the after-tree of :func:`substitute`, with its errors; and |Q|.
    Walks each tree once."""
    pre, want, after = _substitution(t, q_prime)
    return _induced(pre, want), after, len(pre)


def _substitution(t: Tree, q_prime: Tree) -> tuple[list[Node], AbstractSet[int], Node]:
    """Q's nodes in preorder, Q's keys and the after-tree of
    :func:`substitute`, from one in-order walk of ``q_prime`` and one
    :func:`_root_walk` of ``t``."""
    pre: list[Node] = []  # Q' in preorder: the push order of its in-order walk
    ordered: list[int] = []
    fault = None
    stack: list[Node] = []
    node = q_prime
    while stack or node is not None:
        while node is not None:
            pre.append(node)
            stack.append(node)
            node = node.left
        node = stack.pop()
        if fault is None and ordered and node.key <= ordered[-1]:
            fault = f"key {node.key} follows {ordered[-1]} in symmetric order"
        ordered.append(node.key)
        node = node.right
    rank = {k: r for r, k in enumerate(ordered)}
    q_pre, slots = _root_walk(t, rank.keys())
    # Raised only now, so key-set and connectivity errors come first.
    if fault is not None:
        raise SymmetricOrderError(fault)
    # Q's |Q| + 1 boundary slots fill Q''s empty ones in symmetric order: the
    # left slot of the key of rank r is slot r, its right slot is r + 1.
    built: list[Node] = []
    for node in reversed(pre):
        r = rank[node.key]
        left = built.pop() if node.left is not None else slots[r]
        right = built.pop() if node.right is not None else slots[r + 1]
        built.append(Node(node.key, left, right))
    return q_pre, rank.keys(), built[0]


def _root_walk(t: Tree, want: AbstractSet[int]) -> tuple[list[Node], list[Tree]]:
    """Symmetric-order walk of the root subtree of ``t`` on ``want``, which
    must be connected and hold the root: its nodes in preorder, and its
    |Q| + 1 boundary slots (each hanging subtree, or ``None``) in symmetric
    order.  Visits nothing else."""
    if t is None or not want:
        raise DisconnectedSubtreeError("empty tree or key set")
    if t.key not in want:
        raise DisconnectedSubtreeError(f"root {t.key} not in key set")
    pre: list[Node] = []
    slots: list[Tree] = []
    stack: list[Node] = []
    node = t
    while True:
        while node is not None and node.key in want:
            pre.append(node)
            stack.append(node)
            node = node.left
        slots.append(node)
        if not stack:
            break
        node = stack.pop().right
    if len(pre) != len(want):
        missing = sorted(k for k in want if not contains(t, k))
        if missing:
            raise KeyAbsentError(missing)
        raise DisconnectedSubtreeError(f"keys {sorted(want)} are not connected through the root")
    return pre, slots


def frontier(t: Node, keys: AbstractSet[int]) -> list[tuple[int, int]]:
    """(depth, key) of each child hanging off the root subtree of ``t`` on
    ``keys``, which must be connected and hold the root, in the order a
    stack walk meets them: the children of each popped node left to right,
    inner nodes popped right subtree first."""
    out = []
    stack = [(t, 0)]
    while stack:
        node, d = stack.pop()
        for child in (node.left, node.right):
            if child is not None:
                if child.key in keys:
                    stack.append((child, d + 1))
                else:
                    out.append((d + 1, child.key))
    return out


def all_shapes(n: int) -> tuple[Tree, ...]:
    """Every binary search tree on keys 1..n, exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return shapes_on_keys(tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def shapes_on_keys(keys: tuple[int, ...]) -> tuple[Tree, ...]:
    """Every arrangement of the given (sorted) key tuple."""
    if not keys:
        return (None,)
    out: list[Tree] = []
    for i, k in enumerate(keys):
        for left in shapes_on_keys(keys[:i]):
            for right in shapes_on_keys(keys[i + 1:]):
                out.append(Node(k, left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def rooted_shapes(keys: tuple[int, ...], x: int) -> tuple[Node, ...]:
    """Every arrangement of the sorted key tuple ``keys`` with ``x`` at the
    root, in :func:`shapes_on_keys` order: left arrangements major, right
    arrangements minor.  Cached, so callers share the nodes."""
    i = keys.index(x)
    rights = shapes_on_keys(keys[i + 1:])
    return tuple(Node(x, left, right) for left in shapes_on_keys(keys[:i]) for right in rights)


def left_spine_tree(keys: Iterable[int]) -> Tree:
    """Tree whose every node is on the left spine (root holds the maximum)."""
    t: Tree = None
    for k in sorted(keys):
        t = Node(k, t, None)
    return t


def outer_spine(t: Tree, leftmost: bool) -> list[Node]:
    """The outer spine from the root down, left to the minimum or right to
    the maximum; empty for the empty tree."""
    spine = []
    while t is not None:
        spine.append(t)
        t = t.left if leftmost else t.right
    return spine


def is_right_spine(t: Tree) -> bool:
    return all(node.left is None for node in outer_spine(t, False))


def shape_print(t: Tree) -> str:
    """Parenthesized print form: ``(key left right)`` with ``.`` for absent."""
    if t is None:
        return "."
    parts: list[str] = []
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item is None:
            parts.append(".")
        else:
            parts.append(f"({item.key}")
            stack.append(")")
            stack.append(item.right)
            stack.append(" ")
            stack.append(item.left)
            stack.append(" ")
    return "".join(parts)


def parse_key(text: str) -> int:
    """A key as the text formats write it: a plain decimal integer."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"key {text!r} is not a decimal integer")
    return int(text)


def parse_shape(text: str) -> Tree:
    """Inverse of :func:`shape_print`; iterative, so deep spines parse."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    open_nodes: list[tuple[int, list[Tree]]] = []  # key, left subtree once parsed
    try:
        while True:
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                open_nodes.append((parse_key(tokens[pos]), []))
                pos += 1
                continue
            if tok != ".":
                raise ValueError(f"unexpected token {tok!r} in shape text")
            # A finished subtree is its parent's left child, or its right
            # child, which finishes the parent in turn.
            sub: Tree = None
            while open_nodes and open_nodes[-1][1]:
                key, (left,) = open_nodes.pop()
                if tokens[pos] != ")":
                    raise ValueError("unbalanced parentheses in shape text")
                pos += 1
                sub = Node(key, left, sub)
            if not open_nodes:
                break
            open_nodes[-1][1].append(sub)
    except IndexError:
        raise ValueError("shape text ends early") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens in shape text")
    return sub


def canonical_preorder(t: Tree, keys: Iterable[int]) -> tuple[int, ...]:
    """The preorder of the root subtree of ``t`` on ``keys``, the nodes
    reached from the root through those keys alone, with each key replaced
    by its rank, counting from 1, in the sorted ``keys``.  Visits only those
    nodes and their children, and builds no tree."""
    rank = {k: r for r, k in enumerate(sorted(keys), 1)}
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None and node.key in rank:
            out.append(rank[node.key])
            stack.append(node.right)
            stack.append(node.left)
    return tuple(out)
