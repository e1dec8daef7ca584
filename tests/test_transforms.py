"""Transformation machinery: digraphs, restricted rotations, splay-realized
transforms, embeddings, and the repetition construction."""

import hashlib
import random

import pytest

import splaylab.transforms
import splaylab.tree
from splaylab.algorithms import access_cost, move_to_root, splay, top_down_splay
from splaylab.families import generate, random_tree
from splaylab.model import (
    Execution,
    Instance,
    _closure_both,
    algorithm_trace,
    smallest_root_subtree,
    validate,
)
from splaylab.suites import _is_subsequence, random_execution
from splaylab.transforms import (
    TransformUnreachableError,
    _frame_tree,
    _framed_rotation_keys,
    _maneuver,
    _strip_frame,
    augmented_repeat,
    build_digraph,
    diameter,
    embedding_blocks,
    flatten_restricted,
    is_restricted_path,
    realize_restricted_rotation,
    replay,
    restricted_rotation_script,
    shortest_path,
    simulation_embedding,
    simultaneous_transform4,
    topdown_embedding,
    transform_sequence,
    universal_transform,
)
from splaylab.tree import (
    InvariantError,
    Node,
    all_shapes,
    bst_from_sequence,
    frontier,
    is_right_spine,
    left_spine_tree,
    parse_shape,
    path_nodes,
    preorder,
    rebuild_path,
    root_subtree,
    rotate,
    rotate_path,
    shapes_on_keys,
    size,
    substitute,
    tree_keys,
)

from conftest import make_random_execution, make_random_instance


class TestDigraphs:
    def test_out_degree_and_self_loop(self):
        for algo in ("splay", "mtr", "tds"):
            g = build_digraph(3, algo)
            for i, t in enumerate(g.vertices):
                assert len(g.arcs[i]) == 3
                assert g.arcs[i][t.key - 1] == i  # accessing the root loops

    def test_vertex_counts(self):
        assert len(build_digraph(4, "splay").vertices) == 14
        assert len(build_digraph(5, "splay").vertices) == 42

    def test_size_guard(self):
        with pytest.raises(ValueError):
            build_digraph(9, "splay")

    def test_trivial_shortest_path(self):
        g = build_digraph(3, "splay")
        t = g.vertices[0]
        assert shortest_path(g, t, t) == ()

    def test_g4_diameter_pinned(self):
        assert diameter(build_digraph(4, "splay")) == 5


class TestFlatten:
    def test_already_flat(self):
        t = bst_from_sequence([1, 2, 3, 4])
        assert flatten_restricted(t) == []

    def test_all_four_node_shapes(self):
        for t in all_shapes(4):
            rots = flatten_restricted(t)
            assert len(rots) <= 8
            cur = t
            for key, parent in rots:
                assert is_restricted_path(path_nodes(cur, key))
                path_parent = _parent_of(cur, key)
                assert path_parent == parent
                cur = rotate(cur, key)
            assert is_right_spine(cur)

    def test_random_larger(self, rng):
        for n in (16, 64):
            for _ in range(10):
                t = random_tree(n, rng)
                rots = flatten_restricted(t)
                assert len(rots) <= 2 * n
                cur = t
                for key, _ in rots:
                    assert is_restricted_path(path_nodes(cur, key))
                    cur = rotate(cur, key)
                assert is_right_spine(cur)


def _parent_of(t, key):
    node, parent = t, None
    while node.key != key:
        parent = node
        node = node.left if key < node.key else node.right
    return parent.key


class TestRealizeRotation:
    def test_matches_direct_rotation(self, rng):
        for _ in range(150):
            n = rng.randint(4, 12)
            t = random_tree(n, rng)
            candidates = []
            if t.left is not None:
                candidates.append(t.left.key)
                if t.left.left is not None:
                    candidates.append(t.left.left.key)
                if t.left.right is not None:
                    candidates.append(t.left.right.key)
            if t.right is not None:
                candidates.append(t.right.key)
            key = rng.choice(candidates)
            out, keys, costs = realize_restricted_rotation(t, key)
            assert out == rotate(t, key)
            assert len(keys) <= 5
            assert sum(costs) <= 20

    @pytest.mark.parametrize("tree", [left_spine_tree(range(1, 8)), bst_from_sequence(range(1, 8))])
    def test_unrestricted_rotation_is_rejected(self, tree):
        # Key 3 sits four levels down the left spine and is the right child
        # of the root's right child on the right spine: neither rotation is
        # restricted.
        with pytest.raises(ValueError, match="rotation at 3 is not restricted"):
            realize_restricted_rotation(tree, 3)

    def test_window_growth_breaks_ties_toward_the_left_spine_exhaustive(self):
        # Reference: an explicit left-spine preference before the key order.
        def grow_by_spine(t, keys):
            spine, node = set(), t
            while node is not None:
                spine.add(node.key)
                node = node.left
            selected = set(keys)
            while len(selected) < 4 and frontier(t, selected):
                selected.add(min((d, k not in spine, k) for d, k in frontier(t, selected))[2])
            return tuple(sorted(selected))

        for n in range(1, 9):
            for t in all_shapes(n):
                grown = {frozenset({t.key})}
                for _ in range(2):
                    grown |= {s | {k} for s in grown for _, k in frontier(t, s)}
                for keys in grown:
                    assert splaylab.transforms._grow_keys(t, keys) == grow_by_spine(t, keys)

    def test_framed_keys_reject_unrestricted_paths(self):
        path = path_nodes(bst_from_sequence(range(1, 8)), 3)
        with pytest.raises(InvariantError, match="rotation at 3 is not restricted"):
            splaylab.transforms._framed_rotation_keys(path, 1, 7)


def _count_walks(monkeypatch):
    """Count the access-path walks made from now on, through the tree
    module's ``path_nodes`` as every caller reaches it."""
    walks = []

    def counted_path_nodes(t, key):
        walks.append(key)
        return path_nodes(t, key)

    monkeypatch.setattr(splaylab.tree, "path_nodes", counted_path_nodes)
    monkeypatch.setattr(splaylab.transforms, "path_nodes", counted_path_nodes)
    return walks


class TestOneWalkPerRotation:
    def test_transform_sequence_walks_once_per_realized_rotation(self, monkeypatch):
        rng = random.Random(3)
        s, t = random_tree(16, rng), random_tree(16, rng)
        walks = _count_walks(monkeypatch)
        plan = transform_sequence(s, t)
        assert plan.rotation_count == 55
        assert len(walks) == plan.rotation_count
        monkeypatch.undo()
        assert replay(plan) == t

    def test_topdown_embedding_walks_once_per_framed_rotation(self, monkeypatch):
        rng = random.Random(11)
        inst = make_random_instance(rng, 12, 6)
        e = random_execution(rng, inst)
        framed = []
        framed_rotation_keys = splaylab.transforms._framed_rotation_keys

        def counted_framed_rotation_keys(path, a, z):
            framed.append(path[-1].key)
            return framed_rotation_keys(path, a, z)

        monkeypatch.setattr(
            splaylab.transforms, "_framed_rotation_keys", counted_framed_rotation_keys
        )
        walks = _count_walks(monkeypatch)
        topdown_embedding(inst, e)
        assert len(framed) == 70
        assert len(walks) == len(framed)


class TestTransformSequence:
    def test_identity_is_root_key(self):
        t = bst_from_sequence([2, 1, 3, 4])
        plan = transform_sequence(t, t)
        assert plan.keys == (2,)
        assert replay(plan) == t

    def test_exhaustive_small_pairs(self):
        for n in (2, 4, 5):
            shapes = all_shapes(n)
            for s in shapes:
                for t in shapes:
                    plan = transform_sequence(s, t)
                    assert replay(plan) == t
                    assert plan.cost <= 80 * n
                    assert plan.cost == access_cost(s, plan.keys)

    def test_sampled_six_node_pairs(self, rng):
        # The full 17424-pair sweep also passes but takes too long for the
        # routine suite; sample it.
        shapes = all_shapes(6)
        for _ in range(400):
            s, t = rng.choice(shapes), rng.choice(shapes)
            plan = transform_sequence(s, t)
            assert replay(plan) == t
            assert plan.cost <= 80 * 6
            assert plan.cost == access_cost(s, plan.keys)

    def test_three_node_unreachable_pairs_raise(self):
        spine = left_spine_tree([1, 2, 3])
        zigzag = parse_shape("(3 (1 . (2 . .)) .)")
        with pytest.raises(TransformUnreachableError):
            transform_sequence(spine, zigzag)

    def test_key_set_mismatch(self):
        with pytest.raises(ValueError):
            transform_sequence(bst_from_sequence([1, 2]), bst_from_sequence([2, 3]))


def _replayed_block_costs(inst, e):
    """Reference: replay the embedding's blocks from the initial tree and
    measure (splay cost, transition size, longest splay path) per access."""
    trace = validate(inst, e)
    out = []
    t = inst.initial
    for step, (block, _, _, _) in zip(trace.steps, embedding_blocks(inst, e)):
        cost = maxpath = 0
        for k in block:
            d = len(path_nodes(t, k))
            cost += d
            maxpath = max(maxpath, d)
            t, _ = splay(t, k)
        out.append((cost, size(step.transition), maxpath))
    return out


class TestSimulationEmbedding:
    def test_identity_execution_embeds_to_requests(self):
        t = bst_from_sequence([4, 2, 6, 1, 3, 5, 7])
        inst = Instance((4, 4, 4), t)
        e = Execution((Node(4), Node(4), Node(4)))
        assert simulation_embedding(inst, e) == inst.requests

    def test_random_subsequence_and_costs(self, rng):
        for _ in range(150):
            inst = make_random_instance(rng, rng.randint(1, 6), rng.randint(1, 4))
            e = make_random_execution(rng, inst)
            trace = validate(inst, e)
            seq = simulation_embedding(inst, e)
            assert _is_subsequence(inst.requests, seq)
            blocks = embedding_blocks(inst, e)
            assert sum(cost for _, cost, _, _ in blocks) <= 80 * trace.cost
            assert all(maxpath <= 4 for _, _, _, maxpath in blocks)

    def test_2000_key_sequential_spine_pinned(self):
        # Splay's execution of sequential access on a left spine: the first
        # transition holds every key, and each block's landing check compares
        # trees of 2000 keys.
        inst = generate("sequential", n=2000).instance
        trace = algorithm_trace(inst, "splay")
        seq = simulation_embedding(inst, Execution(tuple(s.transition for s in trace.steps)))
        assert len(seq) == 34563
        assert hashlib.sha256(" ".join(map(str, seq)).encode()).hexdigest() == (
            "9e00737dd06b4f5d567921c07e9916c74a1061d9557f8d79af97e5350901ae3e"
        )

    def test_one_pass_costs_match_replay(self, rng):
        for _ in range(300):
            inst = make_random_instance(rng, rng.randint(1, 7), rng.randint(1, 5))
            e = make_random_execution(rng, inst)
            blocks = embedding_blocks(inst, e)
            assert [b[1:] for b in blocks] == _replayed_block_costs(inst, e)
            keys = [k for block, _, _, _ in blocks for k in block]
            assert sum(cost for _, cost, _, _ in blocks) == access_cost(inst.initial, keys)


class TestAugmentedRepeat:
    def test_cost_scales_exactly(self, rng):
        for _ in range(30):
            inst = make_random_instance(rng, rng.randint(4, 16), rng.randint(1, 8))
            unit = augmented_repeat(inst, 1)
            tripled = augmented_repeat(inst, 3)
            unit_cost = access_cost(inst.initial, unit, "splay")
            assert access_cost(inst.initial, tripled, "splay") == 3 * unit_cost
            assert unit_cost >= access_cost(inst.initial, inst.requests, "splay")

    def test_unit_resets_shape(self, rng):
        for _ in range(30):
            inst = make_random_instance(rng, rng.randint(4, 12), rng.randint(1, 6))
            t = inst.initial
            for k in augmented_repeat(inst, 1):
                t, _ = splay(t, k)
            assert t == inst.initial

    def test_bad_repeat_count(self, rng):
        inst = make_random_instance(rng, 5, 2)
        with pytest.raises(ValueError):
            augmented_repeat(inst, 0)


class TestUniversalTransform:
    def test_superset_equal_to_subtree(self, rng):
        for _ in range(20):
            keys = sorted(rng.sample(range(1, 60), 5))
            q = rng.choice(shapes_on_keys(tuple(keys)))
            t = q
            for k in universal_transform(q):
                t, _ = splay(t, k)
            assert smallest_root_subtree(t, keys) == q

    def test_cleanup_normalizes_despite_foreign_nodes(self, rng):
        # After a reverse sequential access leaves at most one foreign node
        # between adjacent keys, splaying the triple pattern chains the
        # three keys at the top no matter which gaps were occupied.
        for _ in range(60):
            t = random_tree(40, rng)
            q1, q2, q3 = sorted(rng.sample(range(1, 41), 3))
            for k in (q3, q2, q1):  # the reverse-access phase for a triple
                t, _ = splay(t, k)
            for k in (q3, q2, q3, q1, q2, q3):
                t, _ = splay(t, k)
            assert t.key == q3
            assert t.left is not None and t.left.key == q2
            assert t.left.left is not None and t.left.left.key == q1

    def test_size_and_parity_guards(self):
        with pytest.raises(ValueError):
            universal_transform(bst_from_sequence([2, 1, 3]))
        with pytest.raises(ValueError):
            universal_transform(bst_from_sequence([4, 2, 1, 3, 6, 5]))


class TestSimultaneous:
    def test_spine_to_spine(self):
        left = left_spine_tree([1, 2, 3, 4])
        seq = simultaneous_transform4(left, bst_from_sequence([1, 2, 3, 4]))
        s = m = left
        for k in seq:
            s, _ = splay(s, k)
            m, _ = move_to_root(m, k)
        assert is_right_spine(s) and s == m

    def test_single_access_is_not_simultaneous(self):
        # The lone access to the middle key drives the two algorithms to
        # different shapes, so a joint walk cannot take that arc.
        left = left_spine_tree([1, 2, 3, 4])
        s, _ = splay(left, 2)
        m, _ = move_to_root(left, 2)
        assert s != m

    def test_all_pairs(self):
        shapes = all_shapes(4)
        for s0 in shapes:
            for t0 in shapes:
                seq = simultaneous_transform4(s0, t0)
                s = m = s0
                for k in seq:
                    s, _ = splay(s, k)
                    m, _ = move_to_root(m, k)
                assert s == t0 and m == t0

    def test_walks_are_shortest(self):
        # Every request sequence of up to five accesses, run under both
        # algorithms from every source: the fewest accesses reaching each
        # target under both must equal the walk's length.
        shapes = all_shapes(4)
        for s0 in shapes:
            fewest = {}
            level = [(s0, s0)]
            for length in range(6):
                for s, m in level:
                    if s == m:
                        fewest.setdefault(s, length)
                if len(fewest) == len(shapes):
                    break
                level = [(splay(s, k)[0], move_to_root(m, k)[0]) for s, m in level for k in range(1, 5)]
            assert len(fewest) == len(shapes)
            for t0 in shapes:
                assert len(simultaneous_transform4(s0, t0)) == fewest[t0]

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            simultaneous_transform4(bst_from_sequence([2, 1, 3]), bst_from_sequence([2, 1, 3]))


class TestTopDownEmbedding:
    def test_small_tree_rejected(self):
        t = bst_from_sequence([2, 1, 3])
        with pytest.raises(ValueError):
            topdown_embedding(Instance((1,), t), Execution((Node(1),)))

    def test_random_executions(self, rng):
        for _ in range(60):
            inst = make_random_instance(rng, rng.randint(4, 7), rng.randint(1, 3))
            e = make_random_execution(rng, inst)
            trace = validate(inst, e)
            seq = topdown_embedding(inst, e)
            assert _is_subsequence(inst.requests, seq)
            t = inst.initial
            for k in seq:
                t, _ = top_down_splay(t, k)
            keys = sorted(tree_keys(inst.initial))
            assert t.key == keys[-1]
            assert t.left is not None and t.left.key == keys[1]
            assert t.left.left is not None and t.left.left.key == keys[0]


    def test_strip_frame_on_deep_spines(self):
        # Spines far deeper than the recursion limit.
        n = 20_000
        frame = (1, 2, n)
        assert _strip_frame(left_spine_tree(range(1, n + 1)), frame) == left_spine_tree(range(3, n))
        assert _strip_frame(bst_from_sequence(range(1, n + 1)), frame) == bst_from_sequence(
            range(3, n)
        )

    def test_strip_frame_removes_only_the_frame_keys_held(self):
        frame = (1, 2, 9)
        for keys in ((1, 2, 9), (2, 9), (1,), (9,), (2, 5, 9), (1, 3, 4), (3, 4, 5)):
            for shape in shapes_on_keys(keys):
                stripped = _strip_frame(shape, frame)
                left = [k for k in keys if k not in frame]
                if not left:
                    assert stripped is None
                    continue
                assert tree_keys(stripped) == frozenset(left)
                assert stripped == reference_strip_frame(shape, [k for k in keys if k in frame])

    def test_stripped_execution_substitutes_stripped_transitions(self):
        # Stripping the frame commutes with every step: the stripped T_i is
        # the stripped T_{i-1} with the stripped Q'_i substituted in, or the
        # stripped T_{i-1} itself when Q'_i holds only frame keys.
        rng = random.Random(23)
        frame_only = 0
        for _ in range(600):
            inst = make_random_instance(rng, rng.randint(4, 12), rng.randint(1, 8))
            trace = validate(inst, make_random_execution(rng, inst))
            keys = sorted(tree_keys(inst.initial))
            frame = (keys[0], keys[1], keys[-1])
            before = _strip_frame(inst.initial, frame)
            for step in trace.steps:
                after = _strip_frame(step.after, frame)
                q_target = _strip_frame(step.transition, frame)
                if q_target is None:
                    frame_only += 1
                    assert after == before
                else:
                    assert after == substitute(before, q_target)
                    assert root_subtree(before, tree_keys(q_target)) == _strip_frame(
                        step.subtree, frame
                    )
                before = after
        assert frame_only > 0

    def test_matches_reference_on_random_executions(self):
        rng = random.Random(29)
        for _ in range(300):
            inst = make_random_instance(rng, rng.randint(4, 12), rng.randint(1, 8))
            e = make_random_execution(rng, inst)
            assert topdown_embedding(inst, e) == reference_topdown_embedding(inst, e)

    @pytest.mark.parametrize("algo", ["splay", "tds"])
    def test_matches_reference_on_500_key_sequential_spine(self, algo):
        inst = generate("sequential", n=500).instance
        e = Execution(tuple(s.transition for s in algorithm_trace(inst, algo).steps))
        assert topdown_embedding(inst, e) == reference_topdown_embedding(inst, e)

    def test_4000_key_sequential_spine_pinned(self):
        # Splay's execution of sequential access on a left spine: the first
        # transition holds every key.  Comparing each step's framed subtree
        # with a separately stripped after-tree made this quadratic.
        inst = generate("sequential", n=4000).instance
        trace = algorithm_trace(inst, "splay")
        seq = topdown_embedding(inst, Execution(tuple(s.transition for s in trace.steps)))
        assert len(seq) == 225_957
        assert hashlib.sha256(" ".join(map(str, seq)).encode()).hexdigest() == (
            "911a179404d74a5fede1ce53a990a8ebbb143fd93aacc6ee362786eacfc897f5"
        )


def reference_strip_frame(t, frame_keys):
    """Remove the given frame keys, each an extreme when its turn comes, by
    rebuilding the tree from its preorder without them."""
    return bst_from_sequence(k for k in preorder(t) if k not in frame_keys)


def _reference_drop_extreme(t, leftmost):
    spine = []
    child = t.left if leftmost else t.right
    while child is not None:
        spine.append(t)
        t = child
        child = t.left if leftmost else t.right
    return rebuild_path(spine, t.key, t.right if leftmost else t.left)


def reference_topdown_embedding(inst, e):
    """The top-down embedding as it was first written: every step strips the
    after-tree and transforms the framed subtree's root region that both
    trees share, closed under access paths in each."""
    trace = validate(inst, e)
    keys = sorted(tree_keys(inst.initial))
    a, b, z = keys[0], keys[1], keys[-1]

    def strip(t):
        for leftmost in (True, True, False):
            t = _reference_drop_extreme(t, leftmost)
        return t

    out = []
    t = inst.initial

    def serve(keys):
        nonlocal t
        out.extend(keys)
        for k in keys:
            t, _ = top_down_splay(t, k)

    def run_script(core_now, core_target, touched):
        if core_now == core_target:
            return core_now
        span = _closure_both(core_now, core_target, touched)
        before = root_subtree(core_now, span)
        after = root_subtree(core_target, span)
        for rot in restricted_rotation_script(before, after):
            path = path_nodes(core_now, rot)
            serve(_framed_rotation_keys(path, a, z))
            core_now = rotate_path(path)
            assert t == _frame_tree(core_now, a, b, z)
        assert core_now == core_target
        return core_now

    serve((z, b, a, z))
    core = run_script(t.left.right, strip(inst.initial), tree_keys(t.left.right))
    for step in trace.steps:
        touched = tree_keys(step.transition) - {a, b, z}
        core = run_script(core, strip(step.after), touched or {core.key})
        serve(_maneuver(step.requested, a, b, z))
        assert t == _frame_tree(core, a, b, z)
    return tuple(out)


class TestMoveToRootNonMonotone:
    def test_subsequence_blowup_grows_linearly(self):
        # Serving the ascending subsequence costs a linear factor more than
        # the full zigzag supersequence under Move-to-Root.  The measured
        # growth is n/8 plus lower-order terms.
        for n in (16, 64):
            t = left_spine_tree(range(1, n + 1))
            x = tuple(list(range(n, 0, -1)) + list(range(2, n + 1)))
            y = tuple(range(1, n + 1))
            ratio = access_cost(t, y, "mtr") / access_cost(t, x, "mtr")
            assert ratio > n / 8
