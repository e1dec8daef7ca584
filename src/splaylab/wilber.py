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

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

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
    return collapse(POS_INF)


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
    if y < min(tree_keys(t)):
        return Node(y, None, t)
    return Node(y, t, None)


@dataclass(frozen=True)
class WindowStep:
    """Window state after request ``index`` (index 0 is the initial state).

    The two runs serve the same requests from ``s`` and from
    ``move_to_root(s, x)``.  Keys strictly inside the window (u, v) are
    arranged as one subtree in each run: zipped in the unlifted run, unzipped
    in the lifted one; everything else (the top tree) is arranged
    identically in both.
    """

    index: int
    u: float
    v: float
    s_time: float
    t_time: float
    s_tree: Node
    t_tree: Node
    top_keys: tuple[int, ...]
    zipped: Tree  # J
    unzipped: Tree  # K
    zipped_aug: Tree  # J+, with the attachment boundary on top
    unzipped_aug: Tree  # K+
    delta: dict[int, int]  # level in s_tree minus level in t_tree, per key


@dataclass(frozen=True)
class LevelWitness:
    """Quantities of the level-difference case analysis for one request."""

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
    delta_z: int  # measured level difference at z
    crossing_nodes: tuple[Optional[int], ...] = ()  # w^-1 .. w^(k+1), in order

    @property
    def shrank(self) -> int:
        """Indicator that the crossing depth decreased at this request."""
        return int(self.k_cur < self.k_prev)


def window_decompose(
    s: Node, x: int, z_seq: Sequence[int]
) -> tuple[list[WindowStep], list[LevelWitness]]:
    if not contains(s, x):
        raise KeyAbsentError(x)
    keys = sorted(tree_keys(s))
    t0, _ = move_to_root(s, x)

    u: float = NEG_INF
    v: float = POS_INF
    s_time: float = NEG_INF
    t_time: float = NEG_INF

    def make_step(i: int, s_tree: Node, t_tree: Node) -> WindowStep:
        window = [k for k in keys if u < k < v]
        top = tuple(k for k in keys if not (u < k < v))
        if not window:
            zipped = unzipped = zip_aug = unzip_aug = None
        elif i == 0:
            zipped, unzipped = s_tree, t_tree
            zip_aug, unzip_aug = s_tree, t_tree
        else:
            zipped, s_parent = _window_subtree(s_tree, set(window))
            unzipped, t_parent = _window_subtree(t_tree, set(window))
            if s_parent != t_parent:
                raise InvariantError("window attachment boundary must agree")
            zip_aug = augment_top(zipped, s_parent)
            unzip_aug = augment_top(unzipped, t_parent)
        delta = {k: level(s_tree, k) - level(t_tree, k) for k in keys}
        return WindowStep(
            i, u, v, s_time, t_time, s_tree, t_tree, top,
            zipped, unzipped, zip_aug, unzip_aug, delta,
        )

    steps = [make_step(0, s, t0)]
    witnesses: list[LevelWitness] = []
    s_tree, t_tree = s, t0
    for i, z in enumerate(z_seq, start=1):
        wit = _witness(steps[-1], x, z, i)
        if u <= z <= x:
            u, s_time = z, i
        if x <= z <= v:
            v, t_time = z, i
        s_tree, _ = move_to_root(s_tree, z)
        t_tree, _ = move_to_root(t_tree, z)
        steps.append(make_step(i, s_tree, t_tree))
        k_cur = level(steps[-1].zipped, x) if steps[-1].zipped is not None else 0
        witnesses.append(replace(wit, k_cur=k_cur))
    return steps, witnesses


def _window_subtree(t: Node, window: set[int]) -> tuple[Node, int]:
    """The subtree holding exactly the window keys, plus its parent key."""
    best: Optional[Node] = None
    parent: Optional[Node] = None
    stack: list[tuple[Node, Optional[Node]]] = [(t, None)]
    while stack:
        node, par = stack.pop()
        if node.key in window:
            best, parent = node, par
            break
        if node.left is not None:
            stack.append((node.left, node))
        if node.right is not None:
            stack.append((node.right, node))
    if best is None or parent is None:
        raise InvariantError("the window must hang below the root")
    if size(best) != len(window) or tree_keys(best) != frozenset(window):
        raise InvariantError("window keys must hang as one subtree")
    return best, parent.key


def generalized_path(j_aug: Node, x: int) -> Node:
    """Access path for x with off-path subtrees dropped, x's left subtree
    replaced by its right spine and x's right subtree by its left spine."""
    path = path_nodes(j_aug, x)
    x_node = path[-1]
    left_keys = []
    node = x_node.left
    while node is not None:
        left_keys.append(node.key)
        node = node.right
    right_keys = []
    node = x_node.right
    while node is not None:
        right_keys.append(node.key)
        node = node.left
    core: Node = Node(
        x, _chain(left_keys, rightward=True), _chain(right_keys, rightward=False)
    )
    for node in reversed(path[:-1]):
        if node.key < x:
            core = Node(node.key, None, core)
        else:
            core = Node(node.key, core, None)
    return core


def _chain(keys: Sequence[int], rightward: bool) -> Tree:
    cur: Tree = None
    for k in reversed(keys):
        cur = Node(k, None, cur) if rightward else Node(k, cur, None)
    return cur


def _extended_crossing(prev: WindowStep, x: int) -> dict[int, Optional[int]]:
    """Crossing nodes of x in the zipped subtree under extended indexing:
    -1 is x, 0 the augmented root, 1..k-1 the proper crossing nodes, k the
    same-side child of x, k+1 the other child."""
    out: dict[int, Optional[int]] = {-1: x}
    j = prev.zipped
    if prev.index == 0:
        out[0] = None
    elif prev.zipped_aug is not None:
        out[0] = prev.zipped_aug.key
    if j is None:
        return out
    ck = crossing_keys_on_path(path_nodes(j, x))
    k = len(ck)
    for idx in range(1, k):
        out[idx] = ck[idx - 1]
    path = path_nodes(j, x)
    if len(path) >= 2:
        x_node = path[-1]
        same_is_left = path[-2].left is x_node
        same = x_node.left if same_is_left else x_node.right
        other = x_node.right if same_is_left else x_node.left
        out[k] = same.key if same is not None else None
        out[k + 1] = other.key if other is not None else None
    return out


def _witness(prev: WindowStep, x: int, z: int, i: int) -> LevelWitness:
    delta_z = prev.delta.get(z, 0)
    first = int(i > 1)
    j, j_aug = prev.zipped, prev.zipped_aug
    k_tree, k_aug = prev.unzipped, prev.unzipped_aug
    k_prev = level(j, x) if j is not None else 0

    if j_aug is None or not contains(j_aug, z):
        return LevelWitness(
            i, z, z, False, k_prev, 0, 0, 0, first, 0, 0, 0, 0, 0, 0, delta_z, ()
        )

    p_aug = generalized_path(j_aug, x)
    path_keys = tree_keys(p_aug)
    z_bar = _reduce_to_path(j_aug, path_keys, z, x)

    crossing = _extended_crossing(prev, x)
    if z_bar == x:
        c = -1
    else:
        ancestors = {n.key for n in path_nodes(j_aug, z_bar)}
        c = max(
            (idx for idx, key in crossing.items() if idx >= 0 and key is not None and key in ancestors),
            default=-1,
        )

    w0 = crossing.get(0)
    if w0 is not None and z_bar == w0:
        zone = 0
    else:
        anchor = crossing.get(c)
        if c == -1 or anchor is None:
            zone = k_prev
        else:
            zone = level(j, anchor) if j is not None and contains(j, anchor) else 0

    a = int(z_bar not in path_keys)
    # The zone's crossing node is compared against the path node z_bar hangs
    # from: z_bar itself when on the generalized path, its parent otherwise.
    path_to_zbar = path_nodes(j_aug, z_bar)
    anchor = z_bar if a == 0 else path_to_zbar[-2].key
    b = int(crossing.get(c) != anchor)
    e = int(j is not None and level(j, x) < level(j_aug, x))
    f = int(
        k_tree is not None
        and contains(k_tree, z_bar)
        and level(k_tree, z_bar) < level(k_aug, z_bar)
    )
    ordered = tuple(crossing[idx] for idx in sorted(crossing))
    return LevelWitness(
        i, z, z_bar, True, k_prev, 0, c, zone, first, a, b, e, f,
        level(j_aug, z_bar), level(k_aug, z_bar), delta_z, ordered,
    )


def _reduce_to_path(j_aug: Node, path_keys: frozenset[int], z: int, x: int) -> int:
    """Deepest ancestor of z that is on the generalized path, or whose parent
    is on it (other than x)."""
    path = path_nodes(j_aug, z)
    for idx in range(len(path) - 1, -1, -1):
        key = path[idx].key
        if key in path_keys:
            return key
        if idx >= 1 and path[idx - 1].key in path_keys and path[idx - 1].key != x:
            return key
    return path[0].key


@dataclass
class FormulaReport:
    checked: int = 0
    outside: int = 0
    degenerate: int = 0
    uncovered_decrease_rows: int = 0
    violations: list[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.violations is None:
            self.violations = []

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
