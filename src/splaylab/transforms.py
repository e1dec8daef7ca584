"""Transformation machinery: transition digraphs, restricted-rotation
flattening, splay-realized tree transformations, simulation embeddings,
augmented repetitions, universal and simultaneous transforms, and the
top-down-splay embedding.

A restricted rotation rotates a node whose parent is either the root or the
root's left child.  Flattening a tree into the right spine takes at most 2n
restricted rotations, so any tree maps to any other in at most 4n; a single
restricted rotation is realized by at most five splays of keys inside a
four-node window at the top of the tree, each of cost at most four.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .algorithms import access_cost, access_tree, run_accesses, run_totals
from .model import Execution, Instance, _closure_both, validate
from .tree import (
    InvariantError,
    Node,
    Tree,
    all_shapes,
    canonical_preorder,
    frontier,
    is_right_spine,
    left_spine_tree,
    path_nodes,
    preorder,
    rebuild_path,
    root_subtree,
    rotate_path,
    shape_print,
    size,
    tree_keys,
)


class TransformUnreachableError(ValueError):
    """No request sequence drives the algorithm between these shapes."""


# ---------------------------------------------------------------------------
# Transition digraphs.

MAX_DIGRAPH_N = 8


@dataclass(frozen=True)
class TransitionDigraph:
    n: int
    algo: str
    vertices: tuple[Node, ...]
    index: dict[tuple[int, ...], int]
    arcs: tuple[tuple[int, ...], ...]  # arcs[v][key-1] = target vertex


def build_digraph(n: int, algo: str = "splay") -> TransitionDigraph:
    if not 1 <= n <= MAX_DIGRAPH_N:
        raise ValueError(f"digraph size {n} outside 1..{MAX_DIGRAPH_N}")
    vertices = tuple(all_shapes(n))
    index = {preorder(v): i for i, v in enumerate(vertices)}
    arcs = tuple(
        tuple(index[preorder(access_tree(v, key, algo))] for key in range(1, n + 1))
        for v in vertices
    )
    return TransitionDigraph(n, algo, vertices, index, arcs)


def _bfs(g: TransitionDigraph, src: int) -> tuple[list[int], list[Optional[tuple[int, int]]]]:
    dist = [-1] * len(g.vertices)
    back: list[Optional[tuple[int, int]]] = [None] * len(g.vertices)
    dist[src] = 0
    queue = [src]
    for v in queue:
        for key_minus, w in enumerate(g.arcs[v]):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                back[w] = (v, key_minus + 1)
                queue.append(w)
    return dist, back


def eccentricities(g: TransitionDigraph) -> list[int]:
    """Each vertex's eccentricity, or -1 when some vertex is unreachable."""
    out = []
    for src in range(len(g.vertices)):
        dist, _ = _bfs(g, src)
        out.append(max(dist) if min(dist) >= 0 else -1)
    return out


def strongly_connected(g: TransitionDigraph) -> bool:
    """True when every vertex reaches every other."""
    return min(eccentricities(g)) >= 0


def diameter(g: TransitionDigraph) -> int:
    """The largest eccentricity."""
    eccs = eccentricities(g)
    if min(eccs) < 0:
        raise TransformUnreachableError(
            f"digraph for {g.algo} on {g.n} keys is not strongly connected"
        )
    return max(eccs)


def shortest_path(g: TransitionDigraph, s: Node, t: Node) -> tuple[int, ...]:
    """Request keys realizing the cheapest transition from shape s to t."""
    si = g.index[preorder(s)]
    ti = g.index[preorder(t)]
    if si == ti:
        return ()
    dist, back = _bfs(g, si)
    if dist[ti] < 0:
        raise TransformUnreachableError(
            f"{shape_print(t)} unreachable from {shape_print(s)} under {g.algo}"
        )
    keys: list[int] = []
    cur = ti
    while cur != si:
        prev, key = back[cur]  # type: ignore[misc]
        keys.append(key)
        cur = prev
    keys.reverse()
    return tuple(keys)


# ---------------------------------------------------------------------------
# Restricted rotations and flattening.


def is_restricted_path(path: Sequence[Node]) -> bool:
    """True when the access path ``path`` ends at a node whose parent is the
    root or the root's left child, so rotating that node is restricted."""
    return len(path) == 2 or (len(path) == 3 and path[1] is path[0].left)


def flatten_restricted(t: Node) -> list[tuple[int, int]]:
    """Restricted rotations (key, parent key) combing ``t`` into the right
    spine: lift the maximum to the root, then repeatedly raise the left
    subtree's maximum to the root's left child and push the root onto the
    finished chain.  At most 2n rotations: every key is push-rotated at most
    once, and a key is lift-rotated only while it is a right child, which
    stops being true after its first lift.
    """
    if is_right_spine(t):
        return []
    rots: list[tuple[int, int]] = []
    while t.right is not None:
        rots.append((t.right.key, t.key))
        t = rotate_path((t, t.right))
    while t.left is not None:
        left = t.left
        while left.right is not None:
            rots.append((left.right.key, left.key))
            t = rotate_path((t, left, left.right))
            left = t.left
        rots.append((left.key, t.key))
        t = rotate_path((t, left))
    return rots


def restricted_rotation_script(source: Node, target: Node) -> list[int]:
    """Keys of restricted rotations mapping ``source`` to ``target`` through
    the flat form; inverses of the target's flattening run in reverse,
    rotating at the recorded parents."""
    if tree_keys(source) != tree_keys(target):
        raise ValueError("transforms require identical key sets")
    forward = [k for k, _ in flatten_restricted(source)]
    backward = [p for _, p in reversed(flatten_restricted(target))]
    return forward + backward


# ---------------------------------------------------------------------------
# Realizing restricted rotations with splays of a small top window.


@lru_cache(maxsize=1)
def _g4_paths() -> dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
    g = build_digraph(4, "splay")
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    for s in g.vertices:
        for t in g.vertices:
            table[(preorder(s), preorder(t))] = shortest_path(g, s, t)
    return table


def _g4_block(keys: Sequence[int], source: Node, target: Node) -> tuple[int, ...]:
    """Keys of a shortest splay walk turning the root subtree of ``source``
    on the four sorted ``keys`` into that of ``target``."""
    canon = (canonical_preorder(source, keys), canonical_preorder(target, keys))
    return tuple(keys[k - 1] for k in _g4_paths()[canon])


def _splay_keys(t: Node, keys: Iterable[int]) -> tuple[Node, list[int]]:
    """Splay each key in turn; returns the final tree and each splay's cost
    (the nodes on its access path)."""
    t, records = run_accesses(t, keys, "splay")
    return t, [record.cost for record in records]


def _grow_keys(t: Node, keys: Iterable[int]) -> tuple[int, ...]:
    """Grow a root-connected key set to the topmost window of four nodes (or
    the whole tree), shallowest child first, ties broken toward the smaller
    key.  That favours the root's left spine: its node at each depth holds
    the smallest key there, since every other path to that depth turns right
    where the spine turns left."""
    selected = set(keys)
    while len(selected) < 4:
        candidates = frontier(t, selected)
        if not candidates:
            break
        selected.add(min(candidates)[1])
    return tuple(sorted(selected))


def _window_block(
    t: Node, keys: Iterable[int], after: Node
) -> tuple[Node, tuple[int, ...], list[int]]:
    """Splay a shortest walk of the four-node top window grown around the
    root-connected ``keys`` from its arrangement in ``t`` to its arrangement
    in ``after``; returns the new tree, the splayed keys, and each splay's
    cost."""
    window = _grow_keys(t, keys)
    block = _g4_block(window, t, after)
    t, costs = _splay_keys(t, block)
    return t, block, costs


def realize_restricted_rotation(t: Node, key: int) -> tuple[Node, tuple[int, ...], list[int]]:
    """Splay keys inside a four-node top window to enact one restricted
    rotation, checking that the walk enacts exactly that rotation; returns
    the new tree, the splayed keys, and each splay's cost."""
    path = path_nodes(t, key)
    if not is_restricted_path(path):
        raise ValueError(f"rotation at {key} is not restricted")
    expect = rotate_path(path)
    t, block, costs = _window_block(t, (node.key for node in path), expect)
    if t != expect:
        raise InvariantError("window realization must enact exactly the rotation")
    return t, block, costs


def _realize_script(t: Node, script: Iterable[int]) -> tuple[Node, list[int], list[int]]:
    """Realize restricted rotations one after another; returns the final
    tree, the splayed keys, and each splay's cost."""
    keys: list[int] = []
    costs: list[int] = []
    for rot in script:
        t, block, block_costs = realize_restricted_rotation(t, rot)
        keys.extend(block)
        costs.extend(block_costs)
    return t, keys, costs


@dataclass(frozen=True)
class TransformPlan:
    source: Node
    target: Node
    keys: tuple[int, ...]
    cost: int  # measured cost of replaying the keys
    rotation_count: int  # restricted rotations realized (0 for small trees)


def replay(plan: TransformPlan) -> Node:
    return run_totals(plan.source, plan.keys, "splay").tree


def transform_sequence(source: Node, target: Node) -> TransformPlan:
    """Request sequence inducing Splay to turn ``source`` into ``target``;
    identical trees map to the bare root key."""
    if tree_keys(source) != tree_keys(target):
        raise ValueError("transforms require identical key sets")
    n = size(source)
    if source == target:
        return TransformPlan(source, target, (source.key,), 1, 0)
    if n < 4:
        keys = shortest_path(build_digraph(n, "splay"), source, target)
        return TransformPlan(source, target, keys, access_cost(source, keys), 0)
    script = restricted_rotation_script(source, target)
    t, keys, costs = _realize_script(source, script)
    if t != target:
        raise InvariantError("the rotation script must reach the target")
    return TransformPlan(source, target, tuple(keys), sum(costs), len(script))


# ---------------------------------------------------------------------------
# Simulation embedding for Splay.


def embedding_blocks(inst: Instance, e: Execution) -> list[tuple[tuple[int, ...], int, int, int]]:
    """Per-access (keys, splay cost, transition size, longest splay path)
    of the simulation embedding; the costs come from the splays that check
    each block lands on the access's after-tree.

    Trees of at most three keys are served directly by the requests
    themselves, splayed one after another: each splay costs at most the tree
    size, which is within the constant budget, and no transformation
    bookkeeping is needed.  Otherwise an access whose transition keeps its
    subtree's arrangement costs one splay of the root; a transition of at
    most four keys is enacted by one shortest splay walk of a four-node
    window; larger transitions go through restricted rotations.
    """
    trace = validate(inst, e)
    blocks: list[tuple[tuple[int, ...], int, int, int]] = []
    t = inst.initial
    small = inst.n <= 3
    for step in trace.steps:
        q, q_prime, x = step.subtree, step.transition, step.requested
        qsize = size(q)
        if small or q == q_prime:
            block: tuple[int, ...] = (x,)
            landed, costs = _splay_keys(t, block)
        elif qsize <= 4:
            landed, block, costs = _window_block(t, preorder(q), step.after)
        else:
            landed, keys, costs = _realize_script(t, restricted_rotation_script(q, q_prime))
            block = tuple(keys)
        if not block or block[-1] != x:
            raise InvariantError("every block finishes at the request")
        if not small and landed != step.after:
            raise InvariantError("block must land exactly on the after-tree")
        blocks.append((block, sum(costs), qsize, max(costs)))
        # Continue from the after-tree once it is checked equal, so the next
        # comparison meets shared nodes and stops early instead of walking
        # two separately built trees.
        t = landed if small else step.after
    return blocks


def simulation_embedding(inst: Instance, e: Execution) -> tuple[int, ...]:
    """Request sequence driving Splay through the execution's subtree
    substitutions; the original requests appear in order as a subsequence,
    and the splay cost stays within a constant factor of the execution's."""
    return tuple(k for block, _, _, _ in embedding_blocks(inst, e) for k in block)


# ---------------------------------------------------------------------------
# Augmented repetition.


def augmented_repeat(inst: Instance, k: int) -> tuple[int, ...]:
    """The request sequence X followed by the transformation resetting the
    splayed tree to its initial shape, repeated k times."""
    if k < 1:
        raise ValueError("repetition count must be at least 1")
    t = run_totals(inst.initial, inst.requests, "splay").tree
    reset = transform_sequence(t, inst.initial).keys
    return (inst.requests + reset) * k


# ---------------------------------------------------------------------------
# Universal transforms.


def universal_transform(q: Node) -> tuple[int, ...]:
    """Key sequence that leaves ``q`` as a connected root subtree when
    splayed from any tree containing its keys: a reverse sequential access,
    cleanup groups normalizing consecutive key triples onto the left spine,
    and the left-spine-to-q transformation."""
    keys = sorted(tree_keys(q))
    if len(keys) < 5 or len(keys) % 2 == 0:
        raise ValueError("universal transforms need an odd key count >= 5")
    reverse_access = tuple(reversed(keys))
    cleanup: list[int] = []
    for i in range(0, len(keys) - 2, 2):
        x, y, z = keys[i], keys[i + 1], keys[i + 2]
        cleanup.extend((z, y, z, x, y, z))
    spine = left_spine_tree(keys)
    to_shape = transform_sequence(spine, q).keys
    return reverse_access + tuple(cleanup) + to_shape


# ---------------------------------------------------------------------------
# Simultaneous transforms for four-node trees.

# The lone access (2,) is sometimes quoted for the sixth target, but the two
# algorithms disagree on it (a zig-zig splits the path, a plain rotation walk
# does not); (3, 2) is the shortest sequence they agree on.
_SIMULTANEOUS_BASE: tuple[tuple[int, ...], ...] = (
    (3, 1, 4, 1),
    (2, 3, 4, 1, 2, 1),
    (2, 3, 4, 1, 3, 1),
    (2, 3, 4, 2, 4, 1),
    (3, 2),
    (2, 3, 4, 2, 4, 1, 2),
)

_MIRROR = {1: 4, 2: 3, 3: 2, 4: 1}


def _run_both(t: Node, keys: Sequence[int]) -> Node:
    s = run_totals(t, keys, "splay").tree
    m = run_totals(t, keys, "mtr").tree
    if s != m:
        raise InvariantError("sequence must drive Splay and Move-to-Root identically")
    return s


@lru_cache(maxsize=1)
def _simultaneous_table() -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map from each four-node shape (keys 1..4) to a request sequence that
    drives both Splay and Move-to-Root onto it from the left spine."""
    left = left_spine_tree(range(1, 5))
    table: dict[tuple[int, ...], tuple[int, ...]] = {
        preorder(left): (1, 2, 3, 4),
    }
    right_route = (4, 3, 2, 1)
    table[preorder(_run_both(left, right_route))] = right_route
    for seq in _SIMULTANEOUS_BASE:
        table[preorder(_run_both(left, seq))] = seq
        mirrored = right_route + tuple(_MIRROR[k] for k in seq)
        table[preorder(_run_both(left, mirrored))] = mirrored
    if len(table) != 14:
        raise InvariantError("all four-node shapes must be covered")
    return table


def simultaneous_transform4(source: Node, target: Node) -> tuple[int, ...]:
    """Request sequence turning ``source`` into ``target`` under both Splay
    and Move-to-Root simultaneously (four-node trees)."""
    if size(source) != 4 or tree_keys(source) != tree_keys(target):
        raise ValueError("simultaneous transforms are defined on equal four-key sets")
    keys = sorted(tree_keys(target))
    to_left = (1, 2, 3, 4)
    seq = to_left + _simultaneous_table()[canonical_preorder(target, keys)]
    return tuple(keys[k - 1] for k in seq)


# ---------------------------------------------------------------------------
# Simulation embedding for Top-Down Splay.


def _strip_frame(t: Node) -> Node:
    """Remove the minimum, its successor, and the maximum, splicing each
    removed node's inner subtree into its parent."""
    out: Tree = t
    for leftmost in (True, True, False):
        if out is None:
            break
        out = _drop_extreme(out, leftmost)
    if out is None:
        raise InvariantError("the frame needs keys besides its three")
    return out


def _drop_extreme(t: Node, leftmost: bool) -> Tree:
    """``t`` without its minimum (or maximum), whose inner subtree takes its
    place; rebuilds the outer spine bottom-up."""
    spine = []
    child = t.left if leftmost else t.right
    while child is not None:
        spine.append(t)
        t = child
        child = t.left if leftmost else t.right
    return rebuild_path(spine, t.key, t.right if leftmost else t.left)


def _frame_tree(core: Tree, a: int, b: int, z: int) -> Node:
    return Node(z, Node(b, Node(a), core), None)


def _framed_rotation_keys(path: Sequence[Node], a: int, z: int) -> tuple[int, ...]:
    """Top-down-splay keys inducing the restricted rotation at the end of
    the access path ``path`` inside the framed subtree: root children use
    (key, a, z); grandchildren through the left child use (a, key, a, z)."""
    key = path[-1].key
    if not is_restricted_path(path):
        raise InvariantError(f"rotation at {key} is not restricted")
    return (key, a, z) if len(path) == 2 else (a, key, a, z)


def _maneuver(x: int, a: int, b: int, z: int) -> tuple[int, ...]:
    if x == z:
        return (z,)
    if x == b:
        return (b, z)
    if x == a:
        return (a, b, z)
    return (x, z, b, a, z)


def topdown_embedding(inst: Instance, e: Execution) -> tuple[int, ...]:
    """Request sequence driving Top-Down Splay through a framed realization
    of the execution: the minimum, its successor, and the maximum are pinned
    as a left spine above everything, substitutions happen inside the framed
    subtree via induced restricted rotations, and each access ends with a
    frame-preserving maneuver that features the requested key."""
    if inst.n <= 3:
        raise ValueError("the framed embedding needs more than three keys")
    trace = validate(inst, e)
    keys = sorted(tree_keys(inst.initial))
    a, z = keys[0], keys[-1]
    b = keys[1]

    out: list[int] = []
    t = inst.initial

    def serve(keys: Sequence[int]) -> None:
        nonlocal t
        out.extend(keys)
        t = run_totals(t, keys, "tds").tree

    serve((z, b, a, z))
    if not (t.key == z and t.left is not None and t.left.key == b and t.left.right is not None):
        raise InvariantError("the opening accesses must pin the frame above the other keys")
    core = t.left.right  # framed subtree holding every other key

    def run_script(core_now: Node, core_target: Node, touched: Iterable[int]) -> Node:
        # Transform only the top region the substitution moved; restricted
        # rotations of that root subtree are restricted for the whole framed
        # subtree as well.
        if core_now == core_target:
            return core_now
        span = _closure_both(core_now, core_target, touched)
        before = root_subtree(core_now, span)
        after = root_subtree(core_target, span)
        for rot in restricted_rotation_script(before, after):
            path = path_nodes(core_now, rot)
            serve(_framed_rotation_keys(path, a, z))
            core_now = rotate_path(path)
            if t != _frame_tree(core_now, a, b, z):
                raise InvariantError("an induced rotation must keep the frame")
        if core_now != core_target:
            raise InvariantError("the rotation script must reach the target core")
        return core_now

    core = run_script(core, _strip_frame(inst.initial), tree_keys(core))
    for step in trace.steps:
        target_core = _strip_frame(step.after)
        touched = tree_keys(step.transition) - {a, b, z}
        core = run_script(core, target_core, touched or {core.key})
        serve(_maneuver(step.requested, a, b, z))
        if t != _frame_tree(core, a, b, z):
            raise InvariantError("maneuver must preserve the frame")
    return tuple(out)

