"""Tree primitives: construction, rotation, traversal, subtree extraction
and substitution, shape enumeration; and the path-encoding and leaf-insertion
references the other tests build on."""

import ast
import copy
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splaylab.families import random_tree
from splaylab.tree import (
    DisconnectedSubtreeError,
    DuplicateKeyError,
    KeyAbsentError,
    Node,
    PathZipper,
    RotationAtRootError,
    SymmetricOrderError,
    all_shapes,
    bst_from_sequence,
    canonical_preorder,
    left_spine_tree,
    frontier,
    outer_spine,
    parse_shape,
    path_nodes,
    postorder,
    preorder,
    rebuild_path,
    replace_root_subtree,
    root_subtree,
    rotate,
    rotate_path,
    shape_print,
    shapes_on_keys,
    size,
    substitute,
    tree_keys,
    _root_walk,
)

from conftest import insert_leaf, path_encoding


def decode_path(t, encoding):
    """Follow an encoding from the root; the landing node must exist."""
    node = t
    for bit in encoding:
        if node is None:
            break
        node = node.left if bit == "0" else node.right
    if node is None:
        raise KeyAbsentError(f"encoding {encoding!r} leaves the tree")
    return node.key


def hanging_subtrees(t, keys):
    """Subtrees of ``t`` hanging off the root subtree induced by ``keys``
    (which must be connected and hold the root), in symmetric order."""
    return [sub for sub in _root_walk(t, keys)[1] if sub is not None]


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def child_pointer_diff(a, b):
    """Number of child pointers that differ between two trees on the same
    keys, counting the root handle as one pointer."""

    def pointers(t):
        out = {}
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


def reference_rotate(t, key):
    """Single rotation at ``key``, rebuilt recursively from the root."""
    if key < t.key:
        if key == t.left.key:
            x = t.left
            return Node(x.key, x.left, Node(t.key, x.right, t.right))
        return Node(t.key, reference_rotate(t.left, key), t.right)
    if key == t.right.key:
        x = t.right
        return Node(x.key, Node(t.key, t.left, x.left), x.right)
    return Node(t.key, t.left, reference_rotate(t.right, key))


def naive_insertion_tree(keys):
    t = None
    seen = set()
    for k in keys:
        if k not in seen:
            t = insert_leaf(t, k)
            seen.add(k)
    return t


NODE_SHAPES = [
    "(1 . .)",
    "(2 (1 . .) (3 . .))",
    "(4 (2 (1 . .) (3 . .)) (6 (5 . .) (7 . .)))",
    "(5 (1 . (3 (2 . .) (4 . .))) .)",
]


class TestNode:
    @pytest.mark.parametrize("shape", NODE_SHAPES)
    def test_pickle_and_copy_round_trip(self, shape):
        t = parse_shape(shape)
        for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert type(clone) is Node
            assert clone == t
            assert hash(clone) == hash(t)

    def test_deep_spine_round_trips(self):
        t = left_spine_tree(range(1, 20_001))
        for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert type(clone) is Node and clone is not t
            assert clone == t
            assert size(clone) == 20_000

    def test_round_trip_keeps_a_tree_out_of_symmetric_order(self):
        t = Node(1, Node(5, None, Node(5)), Node(0, None, Node(9)))
        for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert clone == t
            assert preorder(clone) == (1, 5, 5, 0, 9)

    @pytest.mark.parametrize("name", ["key", "left", "right", "other"])
    def test_assignment_and_deletion_raise(self, name):
        t = Node(2, Node(1), Node(3))
        with pytest.raises(AttributeError):
            setattr(t, name, Node(4))
        with pytest.raises(AttributeError):
            delattr(t, name)
        assert t == Node(2, Node(1), Node(3))

    def test_no_instance_dict(self):
        assert not hasattr(Node(1), "__dict__")

    def test_keyword_and_positional_construction_agree(self):
        for t in all_shapes(4):
            assert Node(t.key, t.left, t.right) == Node(key=t.key, left=t.left, right=t.right)

    def test_children_default_to_none(self):
        t = Node(5)
        assert (t.key, t.left, t.right) == (5, None, None)

    def test_equal_trees_hash_equal(self):
        for a in all_shapes(5):
            b = bst_from_sequence(preorder(a))
            assert a is not b and a == b
            assert hash(a) == hash(b)


class TestConstruction:
    def test_empty(self):
        assert bst_from_sequence(()) is None

    def test_balanced(self):
        assert shape_print(bst_from_sequence([2, 1, 3])) == "(2 (1 . .) (3 . .))"

    def test_descending_gives_left_spine(self):
        assert shape_print(bst_from_sequence([3, 2, 1])) == "(3 (2 (1 . .) .) .)"

    @given(st.lists(st.integers(1, 40), max_size=40))
    def test_matches_naive_insertion(self, keys):
        assert bst_from_sequence(keys) == naive_insertion_tree(keys)

    def test_preorder_roundtrip_exhaustive(self):
        for n in range(0, 6):
            for t in all_shapes(n):
                assert bst_from_sequence(preorder(t)) == t

    def test_big_spine_is_fast(self):
        t = bst_from_sequence(range(20_000, 0, -1))
        assert size(t) == 20_000
        assert t.key == 20_000


class TestRotation:
    def test_rotate_left_child(self):
        t = rotate(bst_from_sequence([2, 1, 3]), 1)
        assert shape_print(t) == "(1 . (2 . (3 . .)))"

    def test_rotation_inverse_exhaustive(self):
        for n in range(2, 6):
            for t in all_shapes(n):
                for key in range(1, n + 1):
                    if t.key == key:
                        continue
                    parent = None
                    node = t
                    while node.key != key:
                        parent = node
                        node = node.left if key < node.key else node.right
                    assert rotate(rotate(t, key), parent.key) == t

    def test_rotate_path_matches_reference_exhaustive(self):
        for n in range(2, 7):
            for t in all_shapes(n):
                for key in range(1, n + 1):
                    if t.key == key:
                        continue
                    expect = reference_rotate(t, key)
                    assert rotate_path(path_nodes(t, key)) == expect == rotate(t, key)

    def test_rotate_path_of_one_node_is_error(self):
        t = bst_from_sequence([2, 1, 3])
        with pytest.raises(RotationAtRootError):
            rotate_path(path_nodes(t, 2))
        with pytest.raises(RotationAtRootError):
            rotate_path([Node(5)])

    def test_rotate_at_root_is_error(self):
        with pytest.raises(RotationAtRootError):
            rotate(bst_from_sequence([2, 1, 3]), 2)

    def test_rotate_absent_key_is_error(self):
        with pytest.raises(KeyAbsentError):
            rotate(bst_from_sequence([2, 1, 3]), 9)

    def test_rotation_changes_three_pointers(self):
        for n in range(2, 6):
            for t in all_shapes(n):
                for key in range(1, n + 1):
                    if t.key == key:
                        continue
                    assert child_pointer_diff(t, rotate(t, key)) == 3

    def test_path_zipper_matches_single_rotations(self, rng):
        # Runs of rotations on one zipper, closed now and then, equal the same
        # rotations done one by one from the root, parent keys included.
        for _ in range(1000):
            n = rng.randint(1, 12)
            t = random_tree(n, rng)
            zipper = PathZipper(t)
            for _ in range(rng.randint(0, 12)):
                key = rng.randint(1, n)
                if key == t.key:
                    continue
                assert zipper.rotate(key) == path_nodes(t, key)[-2].key
                t = rotate(t, key)
                if rng.random() < 0.2:
                    assert zipper.close() == t
            assert zipper.close() == t

    def test_path_zipper_keeps_untouched_subtrees(self):
        # Rotating deep in one subtree and back shares the other one.
        t = bst_from_sequence([8, 4, 12, 2, 6, 10, 14])
        zipper = PathZipper(t)
        zipper.rotate(2)
        zipper.rotate(4)
        out = zipper.close()
        assert out == t and out.right is t.right and out.left.right is t.left.right

    @pytest.mark.parametrize(
        "keys, error, message",
        [
            ((9,), KeyAbsentError, "9"),
            ((1, 9), KeyAbsentError, "9"),
            ((2,), RotationAtRootError, "rotation at the root key 2 is undefined"),
            ((1, 1), RotationAtRootError, "rotation at the root key 1 is undefined"),
        ],
    )
    def test_path_zipper_errors_name_the_key(self, keys, error, message):
        zipper = PathZipper(bst_from_sequence([2, 1, 3]))
        with pytest.raises(error, match=message):
            for key in keys:
                zipper.rotate(key)


class TestTraversals:
    def test_empty(self):
        assert preorder(None) == ()
        assert postorder(None) == ()

    def test_small(self):
        t = bst_from_sequence([2, 1, 3])
        assert preorder(t) == (2, 1, 3)
        assert postorder(t) == (1, 3, 2)


class TestPathEncoding:
    def test_root_is_empty(self):
        assert path_encoding(bst_from_sequence([5]), 5) == ""

    def test_left_spine(self):
        assert path_encoding(bst_from_sequence([3, 2, 1]), 1) == "00"

    def test_right_child(self):
        assert path_encoding(bst_from_sequence([2, 1, 3]), 3) == "1"

    def test_absent_key(self):
        with pytest.raises(KeyAbsentError):
            path_encoding(bst_from_sequence([2, 1, 3]), 4)

    def test_decode_reaches_key_exhaustive(self):
        for n in range(1, 6):
            for t in all_shapes(n):
                for key in range(1, n + 1):
                    assert decode_path(t, path_encoding(t, key)) == key


class TestRootSubtree:
    def test_single_root(self):
        t = bst_from_sequence([2, 1, 3])
        assert shape_print(root_subtree(t, {2})) == "(2 . .)"

    def test_whole_tree(self):
        t = bst_from_sequence([2, 1, 3])
        assert root_subtree(t, {1, 2, 3}) == t

    def test_disconnected(self):
        t = bst_from_sequence([3, 2, 1])
        with pytest.raises(DisconnectedSubtreeError):
            root_subtree(t, {3, 1})

    def test_root_missing(self):
        t = bst_from_sequence([3, 2, 1])
        with pytest.raises(DisconnectedSubtreeError):
            root_subtree(t, {2, 1})


def reference_root_subtree(t, keys):
    """Whole-tree reference: check membership against every key of ``t``,
    then copy the induced subtree recursively."""
    want = frozenset(keys)
    if t is None or not want:
        raise DisconnectedSubtreeError("empty tree or key set")
    if t.key not in want:
        raise DisconnectedSubtreeError(f"root {t.key} not in key set")
    missing = set(want) - tree_keys(t)
    if missing:
        raise KeyAbsentError(sorted(missing))

    def build(node):
        if node is None or node.key not in want:
            return None
        return Node(node.key, build(node.left), build(node.right))

    q = build(t)
    if size(q) != len(want):
        raise DisconnectedSubtreeError("not connected through the root")
    return q


def reference_substitute(t, q_prime):
    """Interval reference: each hanging subtree goes to the slot of Q' whose
    open key interval, bounded by Q's keys, contains its keys."""
    keys = tree_keys(q_prime)
    reference_root_subtree(t, keys)
    hangers = {}

    def collect(node):
        if node is None:
            return
        if node.key in keys:
            collect(node.left)
            collect(node.right)
        else:
            hangers[_slot_interval(keys, node.key)] = node

    collect(t)

    def rebuild(node, lo, hi):
        if node is None:
            return hangers.get((lo, hi))
        return Node(node.key, rebuild(node.left, lo, node.key), rebuild(node.right, node.key, hi))

    return rebuild(q_prime, float("-inf"), float("inf"))


def _slot_interval(keys, probe):
    lo, hi = float("-inf"), float("inf")
    for k in keys:
        if lo < k < probe:
            lo = k
        elif probe < k < hi:
            hi = k
    return (lo, hi)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (KeyAbsentError, DisconnectedSubtreeError) as err:
        return type(err)


class TestRootSubtreeAgainstReference:
    def test_every_key_set_exhaustive(self):
        # Every subset of 1..n+1 (n+1 is never present): equal subtrees on
        # connected root sets, the same error type on all others.
        for n in range(0, 6):
            universe = range(1, n + 2)
            for t in all_shapes(n):
                for mask in range(1 << len(universe)):
                    keys = [k for i, k in enumerate(universe) if mask >> i & 1]
                    expected = _outcome(reference_root_subtree, t, keys)
                    assert _outcome(root_subtree, t, keys) == expected

    def test_absent_key_listed(self):
        t = bst_from_sequence([2, 1, 3])
        with pytest.raises(KeyAbsentError) as err:
            root_subtree(t, {2, 9, 7})
        assert err.value.args == ([7, 9],)

    def test_deep_spine(self):
        t = bst_from_sequence(range(20_000, 0, -1))  # left spine, root 20000
        top = frozenset(range(10_001, 20_001))
        assert root_subtree(t, range(1, 20_001)) == t
        assert root_subtree(t, top) == left_spine_tree(top)
        [hanging] = hanging_subtrees(t, top)
        assert hanging.key == 10_000 and size(hanging) == 10_000


def all_root_subtree_keysets(t):
    from splaylab.opt import _groups

    return [q_keys for q_keys, _ in _groups(preorder(t), t.key)]


class TestSubstitute:
    def test_identity(self):
        t = bst_from_sequence([2, 1, 3])
        q = root_subtree(t, {2, 1})
        assert substitute(t, q) == t

    def test_involution(self):
        t = bst_from_sequence([4, 2, 1, 3, 5])
        q = root_subtree(t, {4, 2})
        other = Node(2, None, Node(4))
        swapped = substitute(t, other)
        assert substitute(swapped, q) == t

    def test_symmetric_order_exhaustive(self):
        # Every rearrangement of every root subtree reattaches hanging
        # subtrees into the unique symmetric-order slots, as the interval
        # reference places them.
        for n in range(1, 7):
            for t in all_shapes(n):
                for keyset in all_root_subtree_keysets(t):
                    for arrangement in shapes_on_keys(keyset):
                        out = substitute(t, arrangement)
                        assert out == reference_substitute(t, arrangement)
                        assert replace_root_subtree(t, arrangement) == (
                            root_subtree(t, keyset), out, len(keyset)
                        )
                        assert tree_keys(out) == tree_keys(t)
                        assert sorted(preorder(out)) == list(range(1, n + 1))
                        _assert_search_order(out)

    def test_same_errors_as_reference(self):
        t = bst_from_sequence([3, 2, 1, 4])
        for q_prime in (None, Node(9), Node(2, Node(1)), Node(3, Node(1)),
                        Node(3, Node(2), Node(9))):
            expected = _outcome(reference_substitute, t, q_prime)
            assert isinstance(expected, type)
            assert _outcome(substitute, t, q_prime) == expected
            assert _outcome(replace_root_subtree, t, q_prime) == expected

    def test_out_of_order_transition_rejected(self):
        # Keys {2, 3} are a connected root subtree, but 2 sits right of 3.
        t = bst_from_sequence([2, 1, 3, 4])
        with pytest.raises(SymmetricOrderError):
            substitute(t, Node(3, None, Node(2)))
        with pytest.raises(SymmetricOrderError):
            substitute(t, Node(2, Node(2)))

    def test_deep_spine_reversal(self):
        # The top half of a 20000-key left spine becomes a right spine; the
        # bottom half hangs left of its new root.
        t = bst_from_sequence(range(20_000, 0, -1))
        out = substitute(t, bst_from_sequence(range(10_001, 20_001)))
        assert preorder(out) == (
            (10_001,) + tuple(range(10_000, 0, -1)) + tuple(range(10_002, 20_001))
        )


def _assert_search_order(t, lo=float("-inf"), hi=float("inf")):
    if t is None:
        return
    assert lo < t.key < hi
    _assert_search_order(t.left, lo, t.key)
    _assert_search_order(t.right, t.key, hi)


class TestShapes:
    def test_counts_match_catalan(self):
        for n in range(0, 9):
            assert len(all_shapes(n)) == catalan(n)

    def test_shapes_distinct(self):
        for n in range(0, 7):
            seen = {preorder(t) for t in all_shapes(n)}
            assert len(seen) == catalan(n)

    def test_small_counts(self):
        assert len(all_shapes(0)) == 1
        assert len(all_shapes(3)) == 5
        assert len(all_shapes(4)) == 14

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            all_shapes(-1)


class TestPrintForms:
    def test_roundtrip(self):
        for n in range(0, 5):
            for t in all_shapes(n):
                assert parse_shape(shape_print(t)) == t

    def test_spines(self):
        assert shape_print(left_spine_tree([1, 2])) == "(2 (1 . .) .)"
        assert shape_print(bst_from_sequence([1, 2])) == "(1 . (2 . .))"

    def test_unbalanced_parentheses_rejected(self):
        with pytest.raises(ValueError, match="^unbalanced parentheses in shape text$"):
            parse_shape("(1 (2 . .) . . )")


class TestOuterSpine:
    def test_empty_tree(self):
        assert outer_spine(None, True) == outer_spine(None, False) == []

    def test_both_directions(self):
        t = parse_shape("(4 (2 (1 . .) (3 . .)) (6 (5 . .) .))")
        assert [node.key for node in outer_spine(t, True)] == [4, 2, 1]
        assert [node.key for node in outer_spine(t, False)] == [4, 6]

    def test_deep_left_spine(self):
        t = left_spine_tree(range(1, 20_001))
        assert [node.key for node in outer_spine(t, True)] == list(range(20_000, 0, -1))
        assert outer_spine(t, False) == [t]


class TestCanonicalPreorder:
    def test_ranks_in_the_sorted_keys(self):
        t = bst_from_sequence([20, 7, 93])
        assert canonical_preorder(t, [93, 20, 7]) == (2, 1, 3)
        assert canonical_preorder(t.left, [7, 20, 93]) == (1,)

    def test_shifted_shapes_keep_their_preorder(self):
        for n in range(0, 6):
            for t in all_shapes(n):
                shifted = bst_from_sequence(10 * k for k in preorder(t))
                keys = tree_keys(shifted)
                assert canonical_preorder(shifted, keys) == preorder(t)

    def test_deep_spines(self):
        # Spines far deeper than the recursion limit.
        n = 20_000
        shifted = left_spine_tree(range(6, n + 6))
        expect = preorder(left_spine_tree(range(1, n + 1)))
        assert canonical_preorder(shifted, range(6, n + 6)) == expect


class TestRebuildPath:
    def test_empty_path_returns_the_subtree(self):
        t = bst_from_sequence([2, 1, 3])
        assert rebuild_path([], 5, t) is t
        assert rebuild_path((), 5, None) is None


class TestFrontier:
    def test_children_hanging_off_the_key_set(self):
        t = parse_shape("(4 (2 (1 . .) (3 . .)) (6 (5 . .) (7 . .)))")
        assert frontier(t, {4}) == [(1, 2), (1, 6)]
        assert frontier(t, {4, 2, 6}) == [(2, 5), (2, 7), (2, 1), (2, 3)]
        assert frontier(t, {4, 2, 1, 3, 6, 5, 7}) == []


def test_duplicate_insert_rejected():
    with pytest.raises(DuplicateKeyError):
        insert_leaf(bst_from_sequence([1]), 1)


SOURCES = Path(__file__).resolve().parents[1] / "src" / "splaylab"


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")))
def test_no_bare_asserts(module):
    # Invariants must hold under ``python -O`` too.
    path = SOURCES / module
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in {module} at lines {found}"


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")))
def test_no_unused_imports(module):
    # No linter runs in CI, so an import left behind by a deletion shows here.
    tree = ast.parse((SOURCES / module).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"names imported but never used in {module}: {unused}"


def _private_names(stmt):
    """The module-level ``_name`` (not dunder) names a statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _public_defs(stmt):
    """The public name a module-level ``def`` or ``class`` defines."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {stmt.name} if isinstance(stmt, defs) and not stmt.name.startswith("_") else set()


def _unread_names(defines):
    """Module-level names ``defines`` picks out that no statement in
    ``src/splaylab`` reads, with where each is defined.  Reads are name
    loads, attribute names and ``from .x import name``; a definition reading
    itself, as a recursive helper does, is not one."""
    defined, read = {}, set()
    for path in SOURCES.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = defines(stmt)
            defined.update((name, f"{path.name}:{stmt.lineno}") for name in own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                else:
                    continue
                read |= names - own
    return {name: where for name, where in defined.items() if name not in read}


def test_no_unread_private_names():
    # A private helper that no module reads is left over from a deletion.
    unread = _unread_names(_private_names)
    assert unread == {}, f"private names no module reads: {unread}"


def test_every_public_name_has_a_reader():
    # A public function or class that only its own tests read is a capability
    # nothing in the lab uses.  The benchmark reads some names that no module
    # does, so a name that appears as a word in ``perfbench/*.py`` passes.
    perfbench = SOURCES.parents[1] / "perfbench"
    words = {w for p in perfbench.glob("*.py") for w in re.findall(r"\w+", p.read_text())}
    unread = {n: where for n, where in _unread_names(_public_defs).items() if n not in words}
    assert unread == {}, f"public names neither src/ nor perfbench/ reads: {unread}"
