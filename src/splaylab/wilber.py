"""Crossing-node machinery: levels, the crossing lower bound computed from
Move-to-Root's execution, Splay's crossing/bookkeeping decomposition,
Wilber's original backward-scan score, and the window decomposition that
tracks how two Move-to-Root runs diverge after lifting one key.

Crossing nodes for a key x are x itself, the root, and every access-path
node that is a left child with a right child on the path or a right child
with a left child on the path; the level of x is their count.  The crossing
bound of an instance is the total level encountered along Move-to-Root's
after-trees; it lower-bounds optimal execution cost up to a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Optional, Sequence

from .algorithms import move_to_root, splay
from .model import Instance
from .tree import (
    InvariantError,
    KeyAbsentError,
    Node,
    Tree,
    bst_from_sequence,
    contains,
    path_nodes,
    postorder,
    size,
    treap_build,
    tree_keys,
)

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class LevelReport:
    key: int
    crossing_keys: tuple[int, ...]  # top-down
    level: int
    bookkeeping: int  # d + 1 - level


def level_report(t: Tree, key: int) -> LevelReport:
    path = path_nodes(t, key)
    crossing = crossing_keys_on_path(path)
    return LevelReport(key, crossing, len(crossing), len(path) - len(crossing))


def level(t: Tree, key: int) -> int:
    return len(crossing_keys_on_path(path_nodes(t, key)))


def crossing_keys_on_path(path: Sequence[Node]) -> tuple[int, ...]:
    """Crossing keys along an access path, top-down; the accessed node and
    the root count once each even when they coincide."""
    d = len(path) - 1
    if d == 0:
        return (path[0].key,)
    out = [path[0].key]
    for i in range(1, d):
        above = path[i - 1].left is path[i]
        below = path[i].left is path[i + 1]
        if above != below:
            out.append(path[i].key)
    out.append(path[-1].key)
    return tuple(out)


def crossing_keys_graphical(t: Tree, key: int) -> tuple[int, ...]:
    """Independent oracle: an inner path node is crossing when the edge from
    its parent crosses the vertical line through the accessed key's
    symmetric-order position."""
    path = path_nodes(t, key)
    if len(path) == 1:
        return (path[0].key,)
    out = [path[0].key]
    for i in range(1, len(path) - 1):
        lo, hi = sorted((path[i - 1].key, path[i].key))
        if lo < key < hi or path[i].key == key:
            out.append(path[i].key)
    out.append(key)
    return tuple(out)


def crossing_bound(inst: Instance) -> int:
    """Total crossing cost of Move-to-Root's execution (the lower bound)."""
    t: Tree = inst.initial
    total = 0
    for x in inst.requests:
        t, rec = move_to_root(t, x)
        total += rec.crossing
    return total


def crossing_bounds(t: Node, keys: Sequence[int], max_m: int) -> dict[tuple[int, ...], int]:
    """Crossing bound from ``t`` of every request sequence over ``keys`` of
    length at most ``max_m``, the empty one included.

    Walks the trie of sequences depth-first, carrying Move-to-Root's tree and
    the running crossing sum, so each sequence costs one access on top of its
    prefix; exact because :func:`crossing_bound` is that sum.
    """
    out: dict[tuple[int, ...], int] = {(): 0}
    stack: list[tuple[tuple[int, ...], Node, int]] = [((), t, 0)]
    while stack:
        seq, tree, total = stack.pop()
        if len(seq) < max_m:
            for x in keys:
                after, rec = move_to_root(tree, x)
                child, cost = seq + (x,), total + rec.crossing
                out[child] = cost
                stack.append((child, after, cost))
    return out


def splay_crossing_cost(inst: Instance) -> int:
    t: Tree = inst.initial
    total = 0
    for x in inst.requests:
        t, rec = splay(t, x)
        total += rec.crossing
    return total


def splay_bookkeeping_cost(inst: Instance) -> int:
    t: Tree = inst.initial
    total = 0
    for x in inst.requests:
        t, rec = splay(t, x)
        total += rec.bookkeeping
    return total


# ---------------------------------------------------------------------------
# Recency treaps: the independent characterization of Move-to-Root.


def postorder_priorities(t: Node) -> dict[int, int]:
    """Initial priorities: a key's postorder position minus |T| + 1, shifted
    to be negative so any actual access time dominates."""
    order = postorder(t)
    n = len(order)
    return {key: i + 1 - n - 1 for i, key in enumerate(order)}


def recency_treap(inst: Instance, upto: int) -> Tree:
    """Tree Move-to-Root holds after the first ``upto`` requests: the treap
    keyed by latest access time over the postorder initial priorities."""
    pri: dict[int, float] = dict(postorder_priorities(inst.initial))
    for i, x in enumerate(inst.requests[:upto], start=1):
        pri[x] = i
    return treap_build(pri.items())


# ---------------------------------------------------------------------------
# Wilber's original backward-scan score.


def wilber_score(x_seq: Sequence[int], i: int) -> int:
    """Backward scan from access ``i`` (1-based): walk crossing accesses of
    strictly decreasing access number, alternating sides of the requested
    key, narrowing the window at each step by the inside key.  Returns one
    less than the number of crossing keys found; 0 for the first access.
    """
    if not 1 <= i <= len(x_seq):
        raise IndexError(i)
    if i == 1:
        return 0
    x = x_seq[i - 1]
    last_access: dict[int, int] = {}
    for j in range(i - 1):
        last_access[x_seq[j]] = j + 1
    c = i - 1
    w = x_seq[c - 1]
    found = 1
    if w == x:
        return 0
    v: float = NEG_INF if w > x else POS_INF
    while True:
        # Next crossing access: the latest access before c to a key between
        # x (inclusive) and the previous inside key (exclusive).
        c_next = 0
        w_next: Optional[int] = None
        for j in range(c - 1, 0, -1):
            k = x_seq[j - 1]
            if (x <= k < v) if v > x else (v < k <= x):
                c_next, w_next = j, k
                break
        if w_next is None:
            return found - 1
        found += 1
        if w_next == x:
            return found - 1
        # Inside key: nearest to x on the crossing key's side whose latest
        # access falls in the window (c_next, c].
        best: Optional[int] = None
        for k, b in last_access.items():
            if k == x or (k > x) != (w > x):
                continue
            if c_next < b <= c:
                if best is None or abs(k - x) < abs(best - x):
                    best = k
        if best is None:
            raise InvariantError("the crossing key itself is always eligible")
        v = best
        c, w = c_next, w_next


def sequence_crossing_bound(x_seq: Sequence[int]) -> int:
    """Wilber's original bound: the request count plus the summed scores."""
    m = len(x_seq)
    if m == 0:
        return 0
    return m + sum(wilber_score(x_seq, i) for i in range(1, m + 1))


def crossing_bound_from_insertion_tree(x_seq: Sequence[int]) -> int:
    """Crossing bound of a sequence served from its own insertion tree."""
    if not x_seq:
        return 0
    t = bst_from_sequence(x_seq)
    return crossing_bound(Instance(tuple(x_seq), t))


def remove_one_gap(s: Node, x: int, z_seq: Sequence[int]) -> int:
    """Crossing-bound change from serving the requests out of ``s`` versus
    out of ``move_to_root(s, x)``."""
    if not contains(s, x):
        raise KeyAbsentError(x)
    if not z_seq:
        return 0
    lifted, _ = move_to_root(s, x)
    return crossing_bound(Instance(tuple(z_seq), s)) - crossing_bound(
        Instance(tuple(z_seq), lifted)
    )


# ---------------------------------------------------------------------------
# Window decomposition.


def augment_top(t: Node, y: int) -> Node:
    """New root ``y`` placed above ``t``; ``y`` must bound all of its keys."""
    if y < t.key:
        return Node(y, None, t)
    return Node(y, t, None)


@dataclass(frozen=True)
class WindowStep:
    """Window state after request ``index`` (index 0 is the initial state).

    The two runs serve the same requests from ``s`` and from
    ``move_to_root(s, x)``.  Keys strictly inside the window (u, v) are
    arranged as one subtree in each run: zipped in the unlifted run, unzipped
    in the lifted one; everything else (the top tree) is arranged
    identically in both.  A step keeps both runs' trees, the window bounds
    and the four window subtrees; levels are left to the witnesses.
    """

    index: int
    u: float
    v: float
    s_tree: Node
    t_tree: Node
    top_keys: tuple[int, ...]
    zipped: Tree  # J
    unzipped: Tree  # K
    zipped_aug: Tree  # J+, with the attachment boundary on top
    unzipped_aug: Tree  # K+


@dataclass(frozen=True)
class LevelWitness:
    """Quantities of the level-difference case analysis for one request.

    Everything but ``k_cur`` is read off the previous step, and each witness
    computes only the levels its checks read: ``delta_z`` is the one level
    difference of the request itself.
    """

    index: int
    z: int
    z_bar: int
    inside: bool  # z lies in the previous augmented zipped subtree
    k_prev: int  # crossing depth of x in the previous zipped subtree
    k_cur: int  # crossing depth of x in the new zipped subtree
    c: int  # index of z_bar's deepest crossing ancestor (-1 when z = x)
    zone: int  # l: level of that crossing ancestor in the zipped subtree
    first: int  # delta indicator: 1 when index > 1
    a: int  # z_bar off the generalized path
    b: int  # z_bar is not its zone's crossing node
    e: int  # x gains a level in the augmented zipped subtree
    f: int  # z_bar gains a level in the augmented unzipped subtree
    zipped_level: int  # level of z_bar in J+
    unzipped_level: int  # level of z_bar in K+
    delta_z: int  # level of z in the previous s_tree minus in its t_tree


def window_decompose(
    s: Node, x: int, z_seq: Sequence[int]
) -> tuple[list[WindowStep], list[LevelWitness]]:
    if not contains(s, x):
        raise KeyAbsentError(x)
    keys = sorted(tree_keys(s))
    s_tree = s
    t_tree, _ = move_to_root(s, x)
    u: float = NEG_INF
    v: float = POS_INF

    def make_step(i: int) -> WindowStep:
        window = frozenset(k for k in keys if u < k < v)
        top = tuple(k for k in keys if not u < k < v)
        if not window:
            return WindowStep(i, u, v, s_tree, t_tree, top, None, None, None, None)
        zipped, s_parent = _window_subtree(s_tree, window, u, v)
        unzipped, t_parent = _window_subtree(t_tree, window, u, v)
        if s_parent != t_parent:
            raise InvariantError("window attachment boundary must agree")
        return WindowStep(
            i, u, v, s_tree, t_tree, top, zipped, unzipped,
            augment_top(zipped, s_parent), augment_top(unzipped, t_parent),
        )

    # Before any request the window holds every key and J+ = J, K+ = K.
    steps = [WindowStep(0, u, v, s_tree, t_tree, (), s_tree, t_tree, s_tree, t_tree)]
    witnesses: list[LevelWitness] = []
    k_prev = level(s_tree, x)
    for i, z in enumerate(z_seq, start=1):
        if u <= z <= x:
            u = z
        if x <= z <= v:
            v = z
        s_tree, _ = move_to_root(s_tree, z)
        t_tree, _ = move_to_root(t_tree, z)
        step = make_step(i)
        k_cur = level(step.zipped, x) if step.zipped is not None else 0
        witnesses.append(_witness(steps[-1], x, z, i, k_prev, k_cur))
        steps.append(step)
        k_prev = k_cur
    return steps, witnesses


def _window_subtree(t: Node, window: frozenset[int], u: float, v: float) -> tuple[Node, int]:
    """The subtree holding exactly the window keys, plus its parent key."""
    parent: Optional[Node] = None
    node: Tree = t
    while node is not None and not u < node.key < v:
        parent, node = node, node.right if node.key <= u else node.left
    if node is None or parent is None:
        raise InvariantError("the window must hang below the root")
    if size(node) != len(window) or tree_keys(node) != window:
        raise InvariantError("window keys must hang as one subtree")
    return node, parent.key


def generalized_path_keys(path: Sequence[Node]) -> set[int]:
    """Keys of the generalized path of the access path ``path`` to x: the
    path itself, the right spine of x's left subtree and the left spine of
    x's right subtree."""
    keys = {node.key for node in path}
    node = path[-1].left
    while node is not None:
        keys.add(node.key)
        node = node.right
    node = path[-1].right
    while node is not None:
        keys.add(node.key)
        node = node.left
    return keys


def _extended_crossing(prev: WindowStep, path: Sequence[Node]) -> dict[int, Optional[int]]:
    """Crossing nodes of x in the zipped subtree, given x's access path
    there, under extended indexing: -1 is x, 0 the augmented root, 1..k-1 the
    proper crossing nodes, k the same-side child of x, k+1 the other child."""
    x_node = path[-1]
    out: dict[int, Optional[int]] = {-1: x_node.key}
    out[0] = None if prev.index == 0 else prev.zipped_aug.key
    ck = crossing_keys_on_path(path)
    k = len(ck)
    for idx in range(1, k):
        out[idx] = ck[idx - 1]
    if len(path) >= 2:
        same_is_left = path[-2].left is x_node
        same = x_node.left if same_is_left else x_node.right
        other = x_node.right if same_is_left else x_node.left
        out[k] = same.key if same is not None else None
        out[k + 1] = other.key if other is not None else None
    return out


def _witness(
    prev: WindowStep, x: int, z: int, i: int, k_prev: int, k_cur: int
) -> LevelWitness:
    delta_z = level(prev.s_tree, z) - level(prev.t_tree, z)
    first = int(i > 1)
    j, j_aug = prev.zipped, prev.zipped_aug
    try:
        z_path = path_nodes(j_aug, z)
    except KeyAbsentError:
        return LevelWitness(
            i, z, z, False, k_prev, k_cur, 0, 0, first, 0, 0, 0, 0, 0, 0, delta_z
        )

    # J hangs below the augmented root except before the first request,
    # where J+ is J itself.
    x_aug_path = path_nodes(j_aug, x)
    x_path = x_aug_path if j_aug is j else x_aug_path[1:]
    path_keys = generalized_path_keys(x_aug_path)
    zbar_path = z_path[: _reduce_to_path(z_path, path_keys, x) + 1]
    z_bar = zbar_path[-1].key

    crossing = _extended_crossing(prev, x_path)
    if z_bar == x:
        c = -1
    else:
        ancestors = {n.key for n in zbar_path}
        c = max(
            (idx for idx, key in crossing.items() if idx >= 0 and key in ancestors),
            default=-1,
        )
    if c == -1:
        zone = k_prev
    elif c == 0:
        zone = 0  # the augmented root lies outside J
    else:
        zone = level(j, crossing[c])

    a = int(z_bar not in path_keys)
    # The zone's crossing node is compared against the path node z_bar hangs
    # from: z_bar itself when on the generalized path, its parent otherwise.
    anchor = z_bar if a == 0 else zbar_path[-2].key
    b = int(crossing.get(c) != anchor)
    e = int(k_prev < len(crossing_keys_on_path(x_aug_path)))
    k_aug_path = path_nodes(prev.unzipped_aug, z_bar)
    unzipped_level = len(crossing_keys_on_path(k_aug_path))
    # z_bar's path inside K; empty when z_bar is the augmented root.
    k_path = k_aug_path if prev.unzipped_aug is prev.unzipped else k_aug_path[1:]
    f = int(bool(k_path) and len(crossing_keys_on_path(k_path)) < unzipped_level)
    return LevelWitness(
        i, z, z_bar, True, k_prev, k_cur, c, zone, first, a, b, e, f,
        len(crossing_keys_on_path(zbar_path)), unzipped_level, delta_z,
    )


def _reduce_to_path(z_path: Sequence[Node], path_keys: AbstractSet[int], x: int) -> int:
    """Position on z's access path of its deepest ancestor that is on the
    generalized path, or whose parent is on it (other than x)."""
    for idx in range(len(z_path) - 1, -1, -1):
        if z_path[idx].key in path_keys:
            return idx
        if idx >= 1 and z_path[idx - 1].key in path_keys and z_path[idx - 1].key != x:
            return idx
    return 0


@dataclass
class FormulaReport:
    checked: int = 0
    outside: int = 0
    degenerate: int = 0
    uncovered_decrease_rows: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_level_formulas(
    steps: Sequence[WindowStep], witnesses: Sequence[LevelWitness], x: int
) -> FormulaReport:
    """Check the case formulas for zipped and unzipped levels, the decrease
    table for the crossing depth, the per-step bound on level differences,
    and the summation identity against the measured gap.

    Requests landing outside the window must leave the window subtrees
    untouched and have zero level difference.  Steps where x already tops
    the zipped subtree are degenerate (the two runs coincide from there on)
    and only the zero-difference consequence is checked.
    """
    report = FormulaReport()
    for wit in witnesses:
        prev = steps[wit.index - 1]
        if not wit.inside:
            report.outside += 1
            if wit.delta_z != 0:
                report.violations.append(
                    f"step {wit.index}: request outside window has delta {wit.delta_z}"
                )
            nxt = steps[wit.index]
            if prev.zipped_aug != nxt.zipped_aug or prev.unzipped_aug != nxt.unzipped_aug:
                report.violations.append(
                    f"step {wit.index}: outside request changed the window subtrees"
                )
            continue
        if wit.k_prev <= 1:
            report.degenerate += 1
            if wit.delta_z != 0:
                report.violations.append(
                    f"step {wit.index}: degenerate window has delta {wit.delta_z}"
                )
            continue
        report.checked += 1
        c, l = wit.c, wit.zone
        d, a, b, e, f = wit.first, wit.a, wit.b, wit.e, wit.f
        if c == -1:
            zipped_expect = l + e
            unzipped_expect = 1 + d
        elif c == 0:
            zipped_expect = l + 1
            unzipped_expect = 1
        elif c == 1:
            zipped_expect = l + (
                (1 - a) * (1 - b) * d + b * (1 + a + e) + a * (1 - b) * (1 + d * (1 - e))
            )
            unzipped_expect = 2 + f + b * (1 + a)
        elif c == 2:
            zipped_expect = l + b * (1 + a) + e
            unzipped_expect = 2 + f + b * (1 + a)
        else:
            zipped_expect = l + b * (1 + a) + e
            unzipped_expect = 3 + f + a
        if wit.zipped_level != zipped_expect:
            report.violations.append(
                f"step {wit.index}: zipped level {wit.zipped_level} != {zipped_expect} "
                f"(c={c} l={l} a={a} b={b} e={e} d={d}, z={wit.z}, zbar={wit.z_bar})"
            )
        if wit.unzipped_level != unzipped_expect:
            report.violations.append(
                f"step {wit.index}: unzipped level {wit.unzipped_level} != {unzipped_expect} "
                f"(c={c} l={l} a={a} b={b} f={f} d={d}, z={wit.z}, zbar={wit.z_bar})"
            )
        measured = wit.zipped_level - wit.unzipped_level
        if wit.delta_z != measured:
            report.violations.append(
                f"step {wit.index}: delta {wit.delta_z} != level difference {measured}"
            )
        # Crossing-depth decrease table.
        k_prev, k_cur = wit.k_prev, wit.k_cur
        if c == -1:
            decrease: int = k_prev
        elif 0 <= c <= 2:
            decrease = 0
        elif 3 <= c <= k_cur:
            decrease = l - 2
        elif 2 < k_cur < c:
            decrease = l - 3
        else:
            # The printed table misses c >= 3 with a small new crossing
            # depth; the weaker row is what holds there.
            report.uncovered_decrease_rows += 1
            decrease = l - 3
        if k_cur > k_prev - decrease:
            report.violations.append(
                f"step {wit.index}: crossing depth {k_cur} exceeds"
                f" {k_prev} - {decrease} (c={c} l={l})"
            )
        # Telescoping bound consumed by the summation argument; holds for
        # every request including the terminal access to x.
        shrank = int(k_cur < k_prev)
        if wit.delta_z > k_prev - k_cur + 3 * shrank:
            report.violations.append(
                f"step {wit.index}: delta {wit.delta_z} above telescoping bound"
                f" {k_prev} - {k_cur} + {3 * shrank}"
            )
        # Zone bound on the level difference; the terminal access to x is
        # covered by the telescoping bound instead.
        bound = 0 if 1 <= l <= 2 else l
        if c >= 0 and wit.delta_z > bound:
            report.violations.append(
                f"step {wit.index}: delta {wit.delta_z} above bound {bound} (l={l})"
            )
    # Summation identity.
    if witnesses:
        s0 = steps[0].s_tree
        z_seq = [w.z for w in witnesses]
        total = sum(w.delta_z for w in witnesses)
        gap = remove_one_gap(s0, x, z_seq)
        if total != gap:
            report.violations.append(f"delta sum {total} != measured gap {gap}")
    return report
