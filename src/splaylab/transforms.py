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

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .algorithms import access, access_cost, run_accesses, run_totals
from .model import Execution, Instance, validate
from .tree import (
    InvariantError,
    Node,
    Tree,
    all_shapes,
    canonical_preorder,
    frontier,
    is_right_spine,
    left_spine_tree,
    outer_spine,
    path_nodes,
    preorder,
    rebuild_path,
    root_subtree,
    rotate_path,
    shape_print,
    size,
    substitute,
    tree_keys,
)


class TransformUnreachableError(ValueError):
    """No request sequence drives the algorithm between these shapes."""


# ---------------------------------------------------------------------------
# Transition digraphs.

MAX_DIGRAPH_N = 8


class TransitionDigraph(NamedTuple):
    n: int
    algo: str
    vertices: tuple[Node, ...]
    index: dict[tuple[int, ...], int]
    arcs: tuple[tuple[int, ...], ...]  # arcs[v][key-1] = target vertex
    crossings: tuple[tuple[int, ...], ...]  # crossings[v][key-1] = the arc's crossing count


def build_digraph(n: int, algo: str = "splay") -> TransitionDigraph:
    """Every shape on keys 1..n, and each access's target shape and crossing
    count (the key's level in the source shape), from one access per arc."""
    if not 1 <= n <= MAX_DIGRAPH_N:
        raise ValueError(f"digraph size {n} outside 1..{MAX_DIGRAPH_N}")
    vertices = tuple(all_shapes(n))
    index = {preorder(v): i for i, v in enumerate(vertices)}
    moves = [[access(v, key, algo) for key in range(1, n + 1)] for v in vertices]
    arcs = tuple(tuple(index[preorder(t)] for t, _ in row) for row in moves)
    crossings = tuple(tuple(rec.crossing for _, rec in row) for row in moves)
    return TransitionDigraph(n, algo, vertices, index, arcs, crossings)


def _bfs(
    arcs: Sequence[Sequence[int]], src: int
) -> tuple[list[int], list[Optional[tuple[int, int]]]]:
    dist = [-1] * len(arcs)
    back: list[Optional[tuple[int, int]]] = [None] * len(arcs)
    dist[src] = 0
    queue = [src]
    for v in queue:
        for key_minus, w in enumerate(arcs[v]):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                back[w] = (v, key_minus + 1)
                queue.append(w)
    return dist, back


def _shortest_walk(
    arcs: Sequence[Sequence[int]], src: int, dst: int
) -> Optional[tuple[int, ...]]:
    """Keys of a shortest walk from vertex ``src`` to ``dst``, or ``None``
    when ``dst`` is unreachable."""
    if src == dst:
        return ()
    _, back = _bfs(arcs, src)
    if back[dst] is None:
        return None
    keys: list[int] = []
    cur = dst
    while cur != src:
        cur, key = back[cur]  # type: ignore[misc]
        keys.append(key)
    keys.reverse()
    return tuple(keys)


def eccentricities(g: TransitionDigraph) -> list[int]:
    """Each vertex's eccentricity, or -1 when some vertex is unreachable."""
    out = []
    for src in range(len(g.vertices)):
        dist, _ = _bfs(g.arcs, src)
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
    keys = _shortest_walk(g.arcs, g.index[preorder(s)], g.index[preorder(t)])
    if keys is None:
        raise TransformUnreachableError(
            f"{shape_print(t)} unreachable from {shape_print(s)} under {g.algo}"
        )
    return keys


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


class TransformPlan(NamedTuple):
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


@lru_cache(maxsize=1)
def _joint_digraph() -> tuple[dict[tuple[int, ...], int], tuple[tuple[int, ...], ...]]:
    """Splay and Move-to-Root run side by side on keys 1..4.  Among the c
    shapes, vertex c*i + j holds Splay at shape i and Move-to-Root at shape
    j; returns each shape's preorder mapped to the vertex holding both
    algorithms at it, and the arcs."""
    splay_g, mtr_g = build_digraph(4, "splay"), build_digraph(4, "mtr")
    c = len(splay_g.vertices)
    arcs = tuple(
        tuple(c * s + m for s, m in zip(splay_g.arcs[i], mtr_g.arcs[j]))
        for i in range(c)
        for j in range(c)
    )
    return {p: (c + 1) * i for p, i in splay_g.index.items()}, arcs


def simultaneous_transform4(source: Node, target: Node) -> tuple[int, ...]:
    """Request sequence turning ``source`` into ``target`` under both Splay
    and Move-to-Root simultaneously (four-node trees): a shortest walk of
    the two algorithms run side by side."""
    if size(source) != 4 or tree_keys(source) != tree_keys(target):
        raise ValueError("simultaneous transforms are defined on equal four-key sets")
    keys = sorted(tree_keys(target))
    both, arcs = _joint_digraph()
    walk = _shortest_walk(
        arcs, both[canonical_preorder(source, keys)], both[canonical_preorder(target, keys)]
    )
    if walk is None:
        raise TransformUnreachableError(
            f"{shape_print(target)} unreachable from {shape_print(source)} under both algorithms"
        )
    return tuple(keys[k - 1] for k in walk)


# ---------------------------------------------------------------------------
# Simulation embedding for Top-Down Splay.


def _strip_frame(t: Node, frame: Sequence[int]) -> Tree:
    """``t`` without whichever of the frame keys (the minimum, its successor
    and the maximum) it holds, splicing each removed node's inner subtree
    into its parent; ``None`` when it holds nothing else.  Each removed key
    is an extreme of what is left, so only outer spines are rebuilt."""
    a, b, z = frame
    out: Tree = t
    for key, leftmost in ((a, True), (b, True), (z, False)):
        spine = outer_spine(out, leftmost)
        if not spine or spine[-1].key != key:
            continue
        end = spine.pop()
        out = rebuild_path(spine, key, end.right if leftmost else end.left)
    return out


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
    frame-preserving maneuver that features the requested key.

    The framed subtree follows the execution with the frame keys stripped
    out: stripping T_i gives the stripped T_{i-1} with the stripped Q'_i
    substituted in, so each step transforms only the root subtree on the
    stripped Q'_i's keys.  Every tree compared descends from the Top-Down
    Splay tree itself, so each comparison stops at the nodes they share."""
    if inst.n <= 3:
        raise ValueError("the framed embedding needs more than three keys")
    trace = validate(inst, e)
    keys = sorted(tree_keys(inst.initial))
    frame = a, b, z = keys[0], keys[1], keys[-1]

    out: list[int] = []
    t = inst.initial

    def serve(keys: Sequence[int]) -> None:
        nonlocal t
        out.extend(keys)
        t = run_totals(t, keys, "tds").tree

    def substitute_core(q_target: Node) -> Node:
        # Transform only the root subtree on q_target's keys; its restricted
        # rotations are restricted for the whole framed subtree as well.
        core = t.left.right
        q = root_subtree(core, tree_keys(q_target))
        if q == q_target:
            return core
        target = substitute(core, q_target)
        for rot in restricted_rotation_script(q, q_target):
            path = path_nodes(t.left.right, rot)
            serve(_framed_rotation_keys(path, a, z))
            if t != _frame_tree(rotate_path(path), a, b, z):
                raise InvariantError("an induced rotation must keep the frame")
        if t.left.right != target:
            raise InvariantError("the rotation script must reach the target core")
        return target

    serve((z, b, a, z))
    if t.left is None or t != _frame_tree(t.left.right, a, b, z):
        raise InvariantError("the opening accesses must pin the frame above the other keys")
    substitute_core(_strip_frame(inst.initial, frame))
    for step in trace.steps:
        q_target = _strip_frame(step.transition, frame)
        core = t.left.right if q_target is None else substitute_core(q_target)
        serve(_maneuver(step.requested, a, b, z))
        if t != _frame_tree(core, a, b, z):
            raise InvariantError("maneuver must preserve the frame")
    if t.left.right != _strip_frame(trace.final_tree, frame):
        raise InvariantError("the framed subtree must end on the stripped final tree")
    return tuple(out)
