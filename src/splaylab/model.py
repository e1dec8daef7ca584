"""The transition-tree execution model: instances, executions, validation,
cost accounting, elision, and conversions to and from the rotation-based
model.

An execution is a sequence of transition trees, one per request.  Validation
reconstructs each step: the subtree Q_i must be a connected root subtree of
the running tree containing the requested key, the transition tree Q'_i must
hold the same keys with the requested key at its root, and the after-tree is
the substitution of Q'_i for Q_i.  Cost is the sum of transition-tree sizes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional

from .algorithms import access, access_tree
from .tree import (
    DisconnectedSubtreeError,
    DuplicateKeyError,
    InvariantError,
    KeyAbsentError,
    Node,
    PathZipper,
    RotationAtRootError,
    SymmetricOrderError,
    Tree,
    bst_from_sequence,
    parse_key,
    path_nodes,
    preorder,
    replace_root_subtree,
    root_subtree,
    size,
    substitute,
    tree_keys,
)


class _InstanceFields(NamedTuple):
    requests: tuple[int, ...]
    initial: Node


class Instance(_InstanceFields):
    """A request sequence plus the initial tree containing its keys.
    ``_make`` and ``_replace`` skip the key check."""

    __slots__ = ()

    def __new__(cls, requests: tuple[int, ...], initial: Node) -> Instance:
        if initial is None:
            raise ValueError("initial tree must be nonempty")
        keys = tree_keys(initial)
        missing = [x for x in requests if x not in keys]
        if missing:
            raise KeyAbsentError(missing)
        return tuple.__new__(cls, (requests, initial))

    @property
    def m(self) -> int:
        return len(self.requests)

    @property
    def n(self) -> int:
        return size(self.initial)


class Execution(tuple):
    """An execution, determined by its transition trees: the tuple of them."""

    __slots__ = ()

    @property
    def transition_trees(self) -> tuple[Node, ...]:
        return self

    @property
    def cost(self) -> int:
        return sum(size(q) for q in self)

    def __repr__(self) -> str:
        return f"Execution({tuple.__repr__(self)})"


class InvalidExecutionError(ValueError):
    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


class AccessStep(NamedTuple):
    requested: int
    subtree: Node  # Q_i, as arranged in T_{i-1}
    transition: Node  # Q'_i
    after: Node  # T_i


class ExecutionTrace(NamedTuple):
    instance: Instance
    steps: tuple[AccessStep, ...]
    cost: int

    @property
    def final_tree(self) -> Node:
        return self.steps[-1].after if self.steps else self.instance.initial


def validate(inst: Instance, e: Execution) -> ExecutionTrace:
    """Check an execution step by step and return its full trace."""
    if len(e) != inst.m:
        raise InvalidExecutionError(0, f"{len(e)} transition trees for {inst.m} requests")
    t = inst.initial
    steps = []
    cost = 0
    for i, (x, q_prime) in enumerate(zip(inst.requests, e.transition_trees), start=1):
        if q_prime is None:
            raise InvalidExecutionError(i, "empty transition tree")
        if q_prime.key != x:
            raise InvalidExecutionError(
                i, f"transition-tree root {q_prime.key} is not the requested key {x}"
            )
        try:
            q, after, size_q = replace_root_subtree(t, q_prime)
        except DisconnectedSubtreeError as err:
            raise InvalidExecutionError(i, f"subtree not connected through root: {err}") from err
        except KeyAbsentError as err:
            raise InvalidExecutionError(i, f"key-set mismatch: {err}") from err
        except SymmetricOrderError as err:
            raise InvalidExecutionError(i, f"transition tree is not a search tree: {err}") from err
        steps.append(AccessStep(x, q, q_prime, after))
        cost += size_q
        t = after
    return ExecutionTrace(inst, tuple(steps), cost)


def subsequence_instance(inst: Instance, deleted: Iterable[int]) -> Instance:
    """``inst`` without the ``deleted`` request indices (1-based).  Its
    requests were checked against the tree when ``inst`` was built, so the
    key walk of :class:`Instance` is skipped."""
    gone = set(deleted)
    kept = tuple(x for i, x in enumerate(inst.requests, start=1) if i not in gone)
    return Instance._make((kept, inst.initial))


def elide(inst: Instance, e: Execution, deleted: Iterable[int]) -> Execution:
    """Serve the subsequence that omits the ``deleted`` request indices by
    merging each deleted run's transition trees into the following access.

    For a deleted run j..k-1 followed by kept index k, the merged subtree is
    the smallest connected root subtree spanning Q_j..Q_k, and the merged
    transition tree is the result of replaying those substitutions inside it.
    A trailing deleted run is simply dropped.  Cost strictly decreases when
    any index is deleted.
    """
    gone = set(deleted)
    bad = [i for i in gone if not 1 <= i <= inst.m]
    if bad:
        raise IndexError(f"deleted indices out of range: {sorted(bad)}")
    return _elide_trace(validate(inst, e), gone)


def _elide_trace(trace: ExecutionTrace, gone: set[int]) -> Execution:
    """The merging behind :func:`elide`, on an already validated trace and a
    set of in-range request indices; one trace serves every deletion set."""
    inst = trace.instance
    out: list[Node] = []
    i = 1
    while i <= inst.m:
        if i not in gone:
            out.append(trace.steps[i - 1].transition)
            i += 1
            continue
        j = i
        k = j
        while k <= inst.m and k in gone:
            k += 1
        if k > inst.m:
            break  # trailing run: drop the remaining transition trees
        merged_keys = set().union(*(tree_keys(step.subtree) for step in trace.steps[j - 1 : k]))
        t_prev = inst.initial if j == 1 else trace.steps[j - 2].after
        q = smallest_root_subtree(t_prev, merged_keys)
        for idx in range(j, k + 1):
            q = substitute(q, trace.steps[idx - 1].transition)
        out.append(q)
        i = k + 1
    return Execution(tuple(out))


def _connect_keys(t: Node, keys: Iterable[int]) -> frozenset[int]:
    """Close a key set under access paths so it induces a root subtree.
    Visits only the closure, in O(|closure| log |keys|)."""
    wanted = sorted(set(keys))
    closed: list[int] = []
    stack = [(t, 0, len(wanted))] if wanted else []  # subtree must hold wanted[i:j]
    while stack:
        node, i, j = stack.pop()
        if node is None:
            raise KeyAbsentError(wanted[i])
        closed.append(node.key)
        mid = bisect_left(wanted, node.key, i, j)
        after = mid + 1 if mid < j and wanted[mid] == node.key else mid
        if i < mid:
            stack.append((node.left, i, mid))
        if after < j:
            stack.append((node.right, after, j))
    return frozenset(closed)


def smallest_root_subtree(t: Node, keys: Iterable[int]) -> Node:
    """Smallest connected subtree of the root containing all given keys."""
    return root_subtree(t, _connect_keys(t, keys))


def algorithm_trace(inst: Instance, algo: str = "splay") -> ExecutionTrace:
    """Execution trace of a path-based algorithm: each transition tree is
    the rearranged access path, so the trace cost equals the request count
    plus the summed access depths."""
    t = inst.initial
    steps = []
    cost = 0
    for x in inst.requests:
        q = Node(x)  # Q is the access path itself
        for p in reversed(path_nodes(t, x)[:-1]):
            q = Node(p.key, q, None) if x < p.key else Node(p.key, None, q)
        after, record = access(t, x, algo)
        q_prime = access_tree(q, x, algo)  # path-based: Q' is the rearranged bare path
        steps.append(AccessStep(x, q, q_prime, after))
        cost += record.cost
        t = after
    return ExecutionTrace(inst, tuple(steps), cost)


# ---------------------------------------------------------------------------
# Rotation-based model.


class RotationAccess(NamedTuple):
    """Rotations performed before one search, listed as rotated keys."""

    rotations: tuple[int, ...]


class RotationExecution(NamedTuple):
    accesses: tuple[RotationAccess, ...]


class RotationTrace(NamedTuple):
    instance: Instance
    cost: int
    search_depths: tuple[int, ...]


def rotation_trace(inst: Instance, r: RotationExecution) -> RotationTrace:
    """Validate a rotation execution; cost is one per search plus one per
    rotation plus the search depth."""
    t = inst.initial
    cost = 0
    depths = []
    for i, x, rotations in _rotation_accesses(inst, r):
        t, path = _rotate_listed(t, i, x, rotations)
        d = len(path) - 1
        cost += 1 + len(rotations) + d
        depths.append(d)
    return RotationTrace(inst, cost, tuple(depths))


def _rotation_accesses(
    inst: Instance, r: RotationExecution
) -> Iterable[tuple[int, int, tuple[int, ...]]]:
    """(i, requested key, listed rotations) of each access of ``r``, from
    i = 1, once ``r`` is checked to hold one access per request."""
    if len(r.accesses) != inst.m:
        raise InvalidExecutionError(0, "rotation access count mismatch")
    pairs = zip(inst.requests, r.accesses)
    return ((i, x, acc.rotations) for i, (x, acc) in enumerate(pairs, start=1))


def _rotate_listed(
    t: Node,
    i: int,
    x: int,
    rotations: Iterable[int],
    edges: Optional[list[tuple[int, int]]] = None,
) -> tuple[Node, list[Node]]:
    """Apply access ``i``'s listed rotations to ``t`` on one path zipper,
    then walk from the root to the search key ``x`` once: the rotated tree
    and the access path of ``x`` in it.  A rotation at an absent or root
    key, or an absent search key, raises :class:`InvalidExecutionError`.
    With ``edges``, each rotation's (key, parent key) is appended to it."""
    zipper = PathZipper(t)
    for k in rotations:
        try:
            parent = zipper.rotate(k)
        except KeyAbsentError as err:
            raise InvalidExecutionError(i, f"rotation at absent key {k}") from err
        except RotationAtRootError as err:
            raise InvalidExecutionError(i, f"rotation at root key {k}") from err
        if edges is not None:
            edges.append((k, parent))
    t = zipper.close()
    try:
        return t, path_nodes(t, x)
    except KeyAbsentError as err:
        raise InvalidExecutionError(i, f"search key {x} absent") from err


def _vine_rotations(q: Node) -> list[tuple[int, int]]:
    """Rotations (key, parent key) that comb a tree into a right spine by
    repeatedly rotating left children up onto the spine.  Each rotation
    rebuilds only the working node's subtree, with two new nodes."""
    out: list[tuple[int, int]] = []
    node: Tree = q
    while node is not None:
        up = node.left
        if up is None:
            node = node.right
        else:
            out.append((up.key, node.key))
            node = Node(up.key, up.left, Node(node.key, up.right, node.right))
    return out


def rotations_between(q: Node, q_prime: Node) -> list[int]:
    """Rotation keys transforming ``q`` into ``q_prime`` through the right
    spine: at most 2(|q| - 1) rotations."""
    if q == q_prime:
        return []
    forward = [k for k, _ in _vine_rotations(q)]
    backward = [p for _, p in reversed(_vine_rotations(q_prime))]
    return forward + backward


def to_rotation_model(inst: Instance, e: Execution) -> RotationExecution:
    """Realize each subtree transformation with rotations, searching with the
    requested key at the root; total cost is at most three times the
    transition-tree cost."""
    trace = validate(inst, e)
    accesses = []
    for step in trace.steps:
        accesses.append(RotationAccess(tuple(rotations_between(step.subtree, step.transition))))
    return RotationExecution(tuple(accesses))


def from_rotation_model(inst: Instance, r: RotationExecution) -> Execution:
    """Convert a rotation execution into transition trees at a cost factor of
    at most four.

    Stage one forces each search to happen with its key at the root by
    rotating the key up and undoing those rotations before the next access.
    Stage two defers, per access, every rotation not connected to the
    searched key's component until after the search; disjoint-edge rotations
    commute, so undoing the deferred ones, last first, leaves the kept
    rotations acting on a connected subtree of the root.  Stage three reads
    off that subtree and its rearrangement as the (Q_i, Q'_i) pair; |Q_i| is
    at most twice the kept rotations plus one.
    """
    t = inst.initial
    transition_trees: list[Node] = []
    pending: list[int] = []  # deferred rotation keys, in order
    last = inst.m
    for i, x, rotations in _rotation_accesses(inst, r):
        # Replay the pending and listed rotations once, recording every
        # rotation's (key, parent key) edge in execution order.  After the
        # pending rotations, work is the tree rotation_trace checks the
        # listed ones on, so they are checked here with its errors.  Then
        # lift the requested key to the root, one single rotation per
        # ancestor, which is a Move-to-Root access; its inverses, root
        # first, open the next access.
        edges: list[tuple[int, int]] = []
        work, path = _rotate_listed(t, i, x, (*pending, *rotations), edges)
        ancestors = [p.key for p in path[:-1]]
        edges.extend((x, p) for p in ancestors)
        work = access_tree(work, x, "mtr")
        # The requested key's component of the rotation edges is the set of
        # keys the kept rotations touch.
        adjacent: dict[int, list[int]] = {}
        for k, p in edges:
            adjacent.setdefault(k, []).append(p)
            adjacent.setdefault(p, []).append(k)
        touched = {x}
        stack = [x]
        while stack:
            for k in adjacent.get(stack.pop(), ()):
                if k not in touched:
                    touched.add(k)
                    stack.append(k)
        if i == last:
            # No later access can absorb deferred rotations, so the final
            # group keeps everything; this preserves the final tree at the
            # price of the per-group size bound for this one access.
            deferred = []
            touched.update(*edges)
        else:
            deferred = [(k, p) for k, p in edges if k not in touched]
        # A deferred rotation shares no key with a kept one, so they commute:
        # undoing the deferred ones leaves the kept ones applied to t.
        zipper = PathZipper(work)
        for _, p in reversed(deferred):
            zipper.rotate(p)
        work = zipper.close()
        if work.key != x:
            raise InvariantError("kept rotations must finish with the key at the root")
        # The span induces a root subtree of t, so |Q| is its size.
        span = _closure_both(t, work, touched)
        q_prime = root_subtree(work, span)
        if i != last and len(span) > 2 * (len(edges) - len(deferred)) + 1:
            raise InvariantError(f"access {i}: |Q| exceeds twice the kept rotations plus one")
        transition_trees.append(q_prime)
        t = substitute(t, q_prime)
        if t != work:
            raise InvariantError(f"access {i}: substitution must reproduce the rotated tree")
        pending = [k for k, _ in deferred] + ancestors
    return Execution(tuple(transition_trees))


def _closure_both(a: Node, b: Node, keys: Iterable[int]) -> frozenset[int]:
    """Close a key set under access paths in both trees: the smallest key set
    holding ``keys`` that induces a root subtree of each."""
    cur = frozenset(keys)
    while True:
        grown = _connect_keys(b, _connect_keys(a, cur))
        if grown == cur:
            return cur
        cur = grown


# ---------------------------------------------------------------------------
# The instance text format.


def format_instance(inst: Instance, subsequence: Optional[tuple[int, ...]] = None) -> str:
    lines = [
        # The preorder is an insertion order that reproduces the tree.
        "tree: " + " ".join(str(k) for k in preorder(inst.initial)),
        "requests: " + " ".join(str(x) for x in inst.requests),
    ]
    if subsequence is not None:
        lines.append("subsequence: " + " ".join(str(x) for x in subsequence))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[Instance, Optional[tuple[int, ...]]]:
    """The instance and optional subsequence of a :func:`format_instance`
    text.  Blank lines are skipped; any other line that is not a first
    ``tree:``, ``requests:`` or ``subsequence:`` line raises ``ValueError``."""
    fields: dict[str, list[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        label, colon, rest = line.strip().partition(":")
        if not colon or label not in ("tree", "requests", "subsequence"):
            raise ValueError(
                f"line {number} is not a 'tree:', 'requests:' or 'subsequence:' line: {line!r}"
            )
        if label in fields:
            raise ValueError(f"line {number} repeats the '{label}:' line")
        fields[label] = rest.split()
    if "tree" not in fields or "requests" not in fields:
        raise ValueError("instance file needs 'tree:' and 'requests:' lines")
    subsequence = None
    if "subsequence" in fields:
        subsequence = tuple(map(parse_key, fields["subsequence"]))
    keys = [parse_key(k) for k in fields["tree"]]
    seen: set[int] = set()
    for k in keys:
        if k in seen:
            raise DuplicateKeyError(f"key {k} appears more than once on the 'tree:' line")
        seen.add(k)
    initial = bst_from_sequence(keys)
    return Instance(tuple(map(parse_key, fields["requests"])), initial), subsequence
