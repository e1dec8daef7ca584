"""Immutable binary search trees over integer keys, plus the structural
primitives everything else is built from: construction, traversal, rotation,
path encodings, root-subtree extraction and substitution, and exhaustive
shape enumeration.

Trees are values: every operation returns a new tree and never mutates its
input.  Two trees are equal when they have the same keys in the same
arrangement.  The empty tree is ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Iterable, Mapping, Optional


class KeyAbsentError(KeyError):
    """A named key is not present in the tree."""


class DuplicateKeyError(ValueError):
    """Insertion of a key that is already present."""


class RotationAtRootError(ValueError):
    """Rotation at the root is undefined."""


class DisconnectedSubtreeError(ValueError):
    """A key set does not induce a connected subtree of the root."""


class SymmetricOrderError(ValueError):
    """A tree's keys are not in symmetric (search-tree) order."""


class InvariantError(AssertionError):
    """An internal invariant failed; checked explicitly, so also under -O."""


@dataclass(frozen=True, eq=False, slots=True)
class Node:
    """One node of an immutable binary search tree."""

    key: int
    left: Optional["Node"] = None
    right: Optional["Node"] = None

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
        return hash(shape_key(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({shape_print(self)})"


Tree = Optional[Node]


def size(t: Tree) -> int:
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            n += 1
            stack.append(node.left)
            stack.append(node.right)
    return n


def tree_keys(t: Tree) -> frozenset[int]:
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            out.append(node.key)
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


def contains(t: Tree, key: int) -> bool:
    while t is not None:
        if key == t.key:
            return True
        t = t.left if key < t.key else t.right
    return False


def find(t: Tree, key: int) -> Node:
    while t is not None:
        if key == t.key:
            return t
        t = t.left if key < t.key else t.right
    raise KeyAbsentError(key)


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


def path_encoding(t: Tree, key: int) -> str:
    """Binary encoding of the access path: 0 = left, 1 = right, empty = root."""
    bits = []
    node = t
    while node is not None:
        if key == node.key:
            return "".join(bits)
        if key < node.key:
            bits.append("0")
            node = node.left
        else:
            bits.append("1")
            node = node.right
    raise KeyAbsentError(key)


def decode_path(t: Tree, encoding: str) -> int:
    """Follow an encoding from the root; the landing node must exist."""
    node = t
    for bit in encoding:
        if node is None:
            break
        node = node.left if bit == "0" else node.right
    if node is None:
        raise KeyAbsentError(f"encoding {encoding!r} leaves the tree")
    return node.key


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


def shape_key(t: Tree) -> tuple[int, ...]:
    """Canonical dictionary key: the preorder uniquely identifies the
    arrangement among trees on the same key set."""
    return preorder(t)


def insert_leaf(t: Tree, key: int) -> Node:
    """Standard leaf insertion; rebuilds the access path."""
    path = []
    node = t
    while node is not None:
        if key == node.key:
            raise DuplicateKeyError(key)
        path.append(node)
        node = node.left if key < node.key else node.right
    new: Node = Node(key)
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
    if t is None:
        raise KeyAbsentError(key)
    path = path_nodes(t, key)
    if len(path) == 1:
        raise RotationAtRootError(f"rotation at the root key {key} is undefined")
    x = path[-1]
    y = path[-2]
    if y.left is x:
        # x rises, y becomes its right child.
        new = Node(x.key, x.left, Node(y.key, x.right, y.right))
    else:
        new = Node(x.key, Node(y.key, y.left, x.left), x.right)
    for parent in reversed(path[:-2]):
        if new.key < parent.key:
            new = Node(parent.key, new, parent.right)
        else:
            new = Node(parent.key, parent.left, new)
    return new


def parent_key(t: Tree, key: int) -> Optional[int]:
    path = path_nodes(t, key)
    return path[-2].key if len(path) >= 2 else None


def root_subtree(t: Tree, keys: Iterable[int]) -> Node:
    """The induced subtree on ``keys``, which must form a connected subtree
    containing the root.  Visits only those nodes and their children."""
    want = frozenset(keys)
    pre, _ = _root_walk(t, want)
    # Reversed preorder finishes every subtree before its parent, so the
    # stack holds the left child's copy on top of the right child's.
    built: list[Node] = []
    for node in reversed(pre):
        left = built.pop() if node.left is not None and node.left.key in want else None
        right = built.pop() if node.right is not None and node.right.key in want else None
        built.append(Node(node.key, left, right))
    return built[0]


def hanging_subtrees(t: Tree, keys: frozenset[int]) -> list[Tree]:
    """Subtrees of ``t`` hanging off the root subtree induced by ``keys``
    (which must be connected and hold the root), in symmetric order."""
    return [sub for sub in _root_walk(t, keys)[1] if sub is not None]


def substitute(t: Tree, q_prime: Tree) -> Node:
    """Replace the root subtree on ``q_prime``'s keys with ``q_prime``,
    re-attaching hanging subtrees in the slots forced by symmetric order.
    Costs O(|Q|); raises :class:`SymmetricOrderError` when ``q_prime`` is
    not a search tree."""
    pre: list[Node] = []  # Q' in preorder: the push order of its in-order walk
    ordered: list[int] = []
    stack: list[Node] = []
    node = q_prime
    while stack or node is not None:
        while node is not None:
            pre.append(node)
            stack.append(node)
            node = node.left
        node = stack.pop()
        if ordered and node.key <= ordered[-1]:
            raise SymmetricOrderError(f"key {node.key} follows {ordered[-1]} in symmetric order")
        ordered.append(node.key)
        node = node.right
    rank = {k: r for r, k in enumerate(ordered)}
    _, slots = _root_walk(t, rank.keys())
    # Q's |Q| + 1 boundary slots fill Q''s empty ones in symmetric order: the
    # left slot of the key of rank r is slot r, its right slot is r + 1.
    built: list[Node] = []
    for node in reversed(pre):
        r = rank[node.key]
        left = built.pop() if node.left is not None else slots[r]
        right = built.pop() if node.right is not None else slots[r + 1]
        built.append(Node(node.key, left, right))
    return built[0]


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


def catalan(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


@lru_cache(maxsize=None)
def _shapes_range(lo: int, hi: int) -> tuple[Tree, ...]:
    if lo > hi:
        return (None,)
    out: list[Tree] = []
    for k in range(lo, hi + 1):
        for left in _shapes_range(lo, k - 1):
            for right in _shapes_range(k + 1, hi):
                out.append(Node(k, left, right))
    return tuple(out)


def all_shapes(n: int) -> tuple[Tree, ...]:
    """Every binary search tree on keys 1..n, exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _shapes_range(1, n)


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


def right_spine_tree(keys: Iterable[int]) -> Tree:
    t: Tree = None
    for k in sorted(keys, reverse=True):
        t = Node(k, None, t)
    return t


def is_right_spine(t: Tree) -> bool:
    while t is not None:
        if t.left is not None:
            return False
        t = t.right
    return True


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


def parse_shape(text: str) -> Tree:
    """Inverse of :func:`shape_print`; iterative, so deep spines parse."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    open_nodes: list[tuple[int, list[Tree]]] = []  # key, left subtree once parsed
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            open_nodes.append((int(tokens[pos]), []))
            pos += 1
            continue
        if tok != ".":
            raise ValueError(f"unexpected token {tok!r} in shape text")
        # A finished subtree is its parent's left child, or its right child,
        # which finishes the parent in turn.
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
    if pos != len(tokens):
        raise ValueError("trailing tokens in shape text")
    return sub


def canonical_relabel(t: Tree) -> tuple[Tree, dict[int, int]]:
    """Relabel keys to 1..n preserving symmetric order.  Returns the new tree
    and the map from original keys to canonical ones."""
    to_canonical = {k: i + 1 for i, k in enumerate(sorted(tree_keys(t)))}
    return relabel(t, to_canonical), to_canonical


def relabel(t: Tree, mapping: Mapping[int, int]) -> Tree:
    """The same arrangement with every key ``k`` replaced by ``mapping[k]``."""
    pre: list[Node] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            pre.append(node)
            stack.append(node.right)
            stack.append(node.left)
    # Reversed preorder finishes every subtree before its parent, so the
    # stack holds the left child's copy on top of the right child's.
    built: list[Node] = []
    for node in reversed(pre):
        left = built.pop() if node.left is not None else None
        right = built.pop() if node.right is not None else None
        built.append(Node(mapping[node.key], left, right))
    return built[0] if built else None


def child_pointer_diff(a: Tree, b: Tree) -> int:
    """Number of child pointers that differ between two trees on the same
    keys, counting the root handle as one pointer."""

    def pointers(t: Tree) -> dict[tuple[int, str], Optional[int]]:
        out: dict[tuple[int, str], Optional[int]] = {}
        stack = [t]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            out[(node.key, "L")] = node.left.key if node.left else None
            out[(node.key, "R")] = node.right.key if node.right else None
            stack.append(node.left)
            stack.append(node.right)
        return out

    pa, pb = pointers(a), pointers(b)
    diff = sum(1 for slot in pa if pa[slot] != pb.get(slot))
    root_a = a.key if a else None
    root_b = b.key if b else None
    return diff + (1 if root_a != root_b else 0)
