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

from typing import (
    AbstractSet,
    Callable,
    Iterator,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    TypeVar,
)

from .algorithms import _fold, access, access_tree, move_to_root
from .model import Instance
from .tree import (
    InvariantError,
    KeyAbsentError,
    Node,
    Tree,
    bst_from_sequence,
    outer_spine,
    path_nodes,
    postorder,
    treap_build,
)

NEG_INF = float("-inf")
POS_INF = float("inf")

S = TypeVar("S")


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


def crossing_bound(inst: Instance) -> int:
    """Total crossing cost of Move-to-Root's execution (the lower bound)."""
    return _fold(inst.initial, inst.requests, "mtr")[2]


def walk_sequences(
    start: S, keys: Sequence[int], max_m: int, advance: Callable[[S, int], S]
) -> Iterator[tuple[tuple[int, ...], S]]:
    """Each request sequence over ``keys`` of length at most ``max_m``, in
    lexicographic order, with the state ``advance`` folds along it from
    ``start``: a depth-first trie walk, one ``advance`` per sequence."""
    stack = [((), start)]
    while stack:
        seq, state = stack.pop()
        yield seq, state
        if len(seq) < max_m:
            stack.extend((seq + (x,), advance(state, x)) for x in reversed(keys))


def crossing_bounds(t: Node, keys: Sequence[int], max_m: int) -> dict[tuple[int, ...], int]:
    """Crossing bound from ``t`` of every request sequence over ``keys`` of
    length at most ``max_m``, the empty one included: Move-to-Root's running
    crossing sum, which is exactly :func:`crossing_bound`."""

    def advance(state: tuple[Node, int], x: int) -> tuple[Node, int]:
        after, rec = move_to_root(state[0], x)
        return after, state[1] + rec.crossing

    return {seq: state[1] for seq, state in walk_sequences((t, 0), keys, max_m, advance)}


def splay_bookkeeping_cost(inst: Instance) -> int:
    _, cost, crossing = _fold(inst.initial, inst.requests, "splay")
    return cost - crossing


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


def wilber_scores(x_seq: Sequence[int]) -> Iterator[int]:
    """Wilber's backward-scan score of each access in turn.

    The scan from access i walks crossing accesses of strictly decreasing
    access number, alternating sides of the requested key x, narrowing the
    window at each step by the inside key; the score is one less than the
    number of crossing keys found, 0 for the first access.  One forward pass
    keeps each key's latest access time in a max segment tree over the
    sorted distinct keys, so each crossing costs O(log n): every key of the
    current window was last accessed before the current crossing access, and
    the next one is the window's latest access time.
    """
    rank = {k: r for r, k in enumerate(sorted(set(x_seq)))}
    top = len(rank) - 1
    size = 1 << max(top, 0).bit_length()
    latest = [0] * (2 * size)  # 0: not accessed yet
    if x_seq:
        yield 0
    for c in range(1, len(x_seq)):
        w, x = x_seq[c - 1], x_seq[c]
        # Access c (1-based) is the newest, so it tops every node above w.
        j = size + rank[w]
        while j:
            latest[j] = c
            j >>= 1
        if w == x:
            yield 0
            continue
        p = rank[x]
        right = w > x  # the side of the current crossing key
        lo, hi = (0, p) if right else (p, top)
        found = 1
        while True:
            # Next crossing access: the latest access to a key of the window,
            # x inclusive, on the side away from w.
            c_next = _range_max(latest, size, lo, hi)
            if c_next == 0:
                break
            found += 1
            if x_seq[c_next - 1] == x:
                break
            # Inside key: nearest to x on the crossing key's side whose
            # latest access falls after c_next; the crossing key itself does,
            # and no key between it and x was accessed after it.
            above = _first_above if right else _last_above
            q = above(latest, size, p, c_next)
            if q is None:
                raise InvariantError("the crossing key itself is always eligible")
            lo, hi = (p, q - 1) if right else (q + 1, p)
            right = not right
        yield found - 1


def _range_max(tree: list[int], size: int, lo: int, hi: int) -> int:
    """Largest value among leaves ``lo..hi`` of the segment tree ``tree``."""
    best = 0
    lo += size
    hi += size + 1
    while lo < hi:
        if lo & 1:
            if tree[lo] > best:
                best = tree[lo]
            lo += 1
        if hi & 1:
            hi -= 1
            if tree[hi] > best:
                best = tree[hi]
        lo >>= 1
        hi >>= 1
    return best


def _first_above(tree: list[int], size: int, p: int, floor: int) -> Optional[int]:
    """First leaf after ``p`` whose value exceeds ``floor``, or None."""
    j = size + p + 1
    if j == 2 * size:
        return None
    while True:
        while not j & 1:
            j >>= 1
        if tree[j] > floor:
            while j < size:
                j <<= 1
                if tree[j] <= floor:
                    j += 1
            return j - size
        j += 1
        if not j & (j - 1):
            return None


def _last_above(tree: list[int], size: int, p: int, floor: int) -> Optional[int]:
    """Last leaf before ``p`` whose value exceeds ``floor``, or None."""
    j = size + p
    while True:
        if not j & (j - 1):
            return None
        j -= 1
        while j > 1 and j & 1:
            j >>= 1
        if tree[j] > floor:
            while j < size:
                j = 2 * j + 1
                if tree[j] <= floor:
                    j -= 1
            return j - size


def sequence_crossing_bound(x_seq: Sequence[int]) -> int:
    """Wilber's original bound: the request count plus the summed scores."""
    return len(x_seq) + sum(wilber_scores(x_seq))


def crossing_bound_from_insertion_tree(x_seq: Sequence[int]) -> int:
    """Crossing bound of a sequence served from its own insertion tree."""
    return _fold(bst_from_sequence(x_seq), x_seq, "mtr")[2]


def remove_one_gap(s: Node, x: int, z_seq: Sequence[int]) -> int:
    """Crossing-bound change from serving the requests out of ``s`` versus
    out of ``move_to_root(s, x)``."""
    lifted = access_tree(s, x, "mtr")
    return _fold(s, z_seq, "mtr")[2] - _fold(lifted, z_seq, "mtr")[2]


# ---------------------------------------------------------------------------
# Window decomposition.


def augment_top(t: Node, y: int) -> Node:
    """New root ``y`` placed above ``t``; ``y`` must bound all of its keys."""
    if y < t.key:
        return Node(y, None, t)
    return Node(y, t, None)


class WindowStep(NamedTuple):
    """Window state after request ``index`` (index 0 is the initial state).

    The two runs serve the same requests from ``s`` and from
    ``move_to_root(s, x)``.  Keys strictly inside the window (u, v) are
    arranged as one subtree in each run: zipped in the unlifted run, unzipped
    in the lifted one; everything else (the top tree) is arranged
    identically in both.  A step keeps both runs' trees, the window bounds,
    the four window subtrees and ``k``; other levels are left to the witnesses.
    """

    index: int
    u: float
    v: float
    s_tree: Node
    t_tree: Node
    zipped: Tree  # J
    unzipped: Tree  # K
    zipped_aug: Tree  # J+, with the attachment boundary on top
    unzipped_aug: Tree  # K+
    k: int  # crossing depth of x in the zipped subtree (0 when it is empty)


class LevelWitness(NamedTuple):
    """Quantities of the level-difference case analysis for one request.

    Everything but ``k_cur`` and ``delta_z`` is read off the previous step,
    and each witness computes only the levels its checks read.  ``delta_z``,
    the one level difference of the request itself, is the difference of
    the crossing counts of the two runs' Move-to-Root accesses of z.
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


def window_start(s: Node, x: int) -> WindowStep:
    """The state before any request: J+ = J is ``s``, K+ = K is its lift."""
    t, rec = access(s, x, "mtr")
    return WindowStep(0, NEG_INF, POS_INF, s, t, s, t, s, t, rec.crossing)


def window_advance(prev: WindowStep, x: int, z: int) -> tuple[WindowStep, LevelWitness]:
    """The state after request ``z`` and the witness of its level
    difference."""
    u = z if prev.u <= z <= x else prev.u
    v = z if x <= z <= prev.v else prev.v
    s_tree, s_rec = access(prev.s_tree, z, "mtr")
    t_tree, t_rec = access(prev.t_tree, z, "mtr")
    i = prev.index + 1
    # u <= x <= v always, and a request of x sets both bounds to x; until
    # then x itself lies in the window.
    if not u < x < v:
        step = WindowStep(i, u, v, s_tree, t_tree, None, None, None, None, 0)
    else:
        zipped, s_parent = _window_subtree(s_tree, u, v)
        unzipped, t_parent = _window_subtree(t_tree, u, v)
        if s_parent != t_parent:
            raise InvariantError("window attachment boundary must agree")
        step = WindowStep(
            i, u, v, s_tree, t_tree, zipped, unzipped,
            augment_top(zipped, s_parent), augment_top(unzipped, t_parent), level(zipped, x),
        )
    return step, _witness(prev, x, z, step.k, s_rec.crossing - t_rec.crossing)


def window_decompose(
    s: Node, x: int, z_seq: Sequence[int]
) -> tuple[list[WindowStep], list[LevelWitness]]:
    """Fold :func:`window_advance` over ``z_seq``: every state, and every
    request's witness."""
    steps, witnesses = [window_start(s, x)], []
    for z in z_seq:
        step, wit = window_advance(steps[-1], x, z)
        steps.append(step)
        witnesses.append(wit)
    return steps, witnesses


def _window_subtree(t: Node, u: float, v: float) -> tuple[Node, int]:
    """The subtree holding exactly the keys inside the window (u, v), plus
    its parent key.  Every ancestor the descent passes lies outside the
    window, so the subtree holds every window key, and it holds no other
    exactly when its extremes lie inside the window."""
    parent: Optional[Node] = None
    node: Tree = t
    while node is not None and not u < node.key < v:
        parent, node = node, node.right if node.key <= u else node.left
    if node is None or parent is None:
        raise InvariantError("the window must hang below the root")
    lo, hi = outer_spine(node, True)[-1].key, outer_spine(node, False)[-1].key
    if not (u < lo and hi < v):
        raise InvariantError("window keys must hang as one subtree")
    return node, parent.key


def generalized_path_keys(path: Sequence[Node]) -> set[int]:
    """Keys of the generalized path of the access path ``path`` to x: the
    path itself, the right spine of x's left subtree and the left spine of
    x's right subtree."""
    spines = outer_spine(path[-1].left, False) + outer_spine(path[-1].right, True)
    return {node.key for node in (*path, *spines)}


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


def _witness(prev: WindowStep, x: int, z: int, k_cur: int, delta_z: int) -> LevelWitness:
    i, k_prev = prev.index + 1, prev.k
    first = int(i > 1)
    j, j_aug = prev.zipped, prev.zipped_aug
    try:
        z_path = path_nodes(j_aug, z)
    except KeyAbsentError:
        return LevelWitness(i, z, z, False, k_prev, k_cur, 0, 0, first, 0, 0, 0, 0, 0, 0, delta_z)

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


class FormulaViolation(ValueError):
    """A window state or level witness breaks a lemma; the message names it."""


def check_window_state(step: WindowStep, x: int) -> None:
    """After each request both runs share their root and their top tree, and
    the unzipped subtree is the zipped one with x moved to its root."""
    if step.zipped is not None and step.unzipped != access_tree(step.zipped, x, "mtr"):
        raise FormulaViolation(f"unzipped subtree mismatch at step {step.index}")
    if step.index >= 1:
        if step.s_tree.key != step.t_tree.key:
            raise FormulaViolation(f"roots differ at step {step.index}")
        if not _same_top_tree(step.s_tree, step.t_tree, step.u, step.v):
            raise FormulaViolation(f"top-tree parent mismatch at step {step.index}")


def _same_top_tree(s: Node, t: Node, u: float, v: float) -> bool:
    """Whether ``s`` and ``t`` have the same top tree, the root subtree of
    the keys outside the window (u, v): one paired walk, child by child,
    that stops at the first difference and skips shared nodes."""
    if s.key != t.key:
        return False
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        for ca, cb in ((a.left, b.left), (a.right, b.right)):
            # Whether a child is in the top tree depends on its key alone.
            if ca is not None and not u < ca.key < v:
                if cb is None or cb.key != ca.key:
                    return False
                stack.append((ca, cb))
            elif cb is not None and not u < cb.key < v:
                return False
    return True


def check_level_witness(prev: WindowStep, step: WindowStep, wit: LevelWitness) -> int:
    """Check the level formulas, the crossing-depth decrease table and the
    level-difference bounds of the request ``prev`` -> ``step``; 1 if so, 0
    when the request falls outside the window or x already tops the zipped
    subtree (the runs then coincide), where only a zero difference is due."""

    def fail(problem: str) -> NoReturn:
        raise FormulaViolation(f"step {wit.index}: {problem}")

    if not wit.inside:
        if wit.delta_z != 0:
            fail(f"request outside window has delta {wit.delta_z}")
        if prev.zipped_aug != step.zipped_aug or prev.unzipped_aug != step.unzipped_aug:
            fail("outside request changed the window subtrees")
        return 0
    if wit.k_prev <= 1:
        if wit.delta_z != 0:
            fail(f"degenerate window has delta {wit.delta_z}")
        return 0
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
        fail(f"zipped level {wit.zipped_level} != {zipped_expect} "
             f"(c={c} l={l} a={a} b={b} e={e} d={d}, z={wit.z}, zbar={wit.z_bar})")
    if wit.unzipped_level != unzipped_expect:
        fail(f"unzipped level {wit.unzipped_level} != {unzipped_expect} "
             f"(c={c} l={l} a={a} b={b} f={f} d={d}, z={wit.z}, zbar={wit.z_bar})")
    measured = wit.zipped_level - wit.unzipped_level
    if wit.delta_z != measured:
        fail(f"delta {wit.delta_z} != level difference {measured}")
    # Crossing-depth decrease table.  The printed table misses c >= 3 with a
    # small new crossing depth; the weaker row l - 3 is what holds there.
    k_prev, k_cur = wit.k_prev, wit.k_cur
    if c == -1:
        decrease: int = k_prev
    elif 0 <= c <= 2:
        decrease = 0
    elif 3 <= c <= k_cur:
        decrease = l - 2
    else:
        decrease = l - 3
    if k_cur > k_prev - decrease:
        fail(f"crossing depth {k_cur} exceeds {k_prev} - {decrease} (c={c} l={l})")
    # Telescoping bound consumed by the summation argument; holds for
    # every request including the terminal access to x.
    shrank = int(k_cur < k_prev)
    if wit.delta_z > k_prev - k_cur + 3 * shrank:
        fail(f"delta {wit.delta_z} above telescoping bound {k_prev} - {k_cur} + {3 * shrank}")
    # Zone bound on the level difference; the terminal access to x is
    # covered by the telescoping bound instead.
    bound = 0 if 1 <= l <= 2 else l
    if c >= 0 and wit.delta_z > bound:
        fail(f"delta {wit.delta_z} above bound {bound} (l={l})")
    return 1


def check_delta_sum(total: int, gap: int) -> None:
    """Summation identity: the level differences add up to the gap."""
    if total != gap:
        raise FormulaViolation(f"delta sum {total} != measured gap {gap}")


def validate_level_formulas(
    steps: Sequence[WindowStep], witnesses: Sequence[LevelWitness], x: int
) -> int:
    """Check one decomposition: every state, every witness, and the summation
    identity against :func:`remove_one_gap`.  Raises :class:`FormulaViolation`
    at the first failure; returns the number of witnesses whose level
    formulas were checked."""
    for step in steps:
        check_window_state(step, x)
    checked = sum(check_level_witness(steps[w.index - 1], steps[w.index], w) for w in witnesses)
    if witnesses:
        gap = remove_one_gap(steps[0].s_tree, x, [w.z for w in witnesses])
        check_delta_sum(sum(w.delta_z for w in witnesses), gap)
    return checked
