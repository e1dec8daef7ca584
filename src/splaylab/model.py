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
from dataclasses import dataclass
from typing import Iterable, Optional

from .tree import (
    DisconnectedSubtreeError,
    DuplicateKeyError,
    InvariantError,
    KeyAbsentError,
    Node,
    RotationAtRootError,
    SymmetricOrderError,
    Tree,
    bst_from_sequence,
    contains,
    depth,
    parse_shape,
    path_encoding,
    path_nodes,
    preorder,
    root_subtree,
    rotate,
    shape_print,
    size,
    substitute,
    tree_keys,
)


@dataclass(frozen=True)
class Instance:
    """A request sequence plus the initial tree containing its keys."""

    requests: tuple[int, ...]
    initial: Node

    def __post_init__(self) -> None:
        if self.initial is None:
            raise ValueError("initial tree must be nonempty")
        keys = tree_keys(self.initial)
        missing = [x for x in self.requests if x not in keys]
        if missing:
            raise KeyAbsentError(missing)

    @property
    def m(self) -> int:
        return len(self.requests)

    @property
    def n(self) -> int:
        return size(self.initial)


@dataclass(frozen=True)
class Execution:
    """An execution, determined by its transition trees."""

    transition_trees: tuple[Node, ...]

    def __len__(self) -> int:
        return len(self.transition_trees)

    @property
    def cost(self) -> int:
        return sum(size(q) for q in self.transition_trees)


class InvalidExecutionError(ValueError):
    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


@dataclass(frozen=True)
class AccessStep:
    index: int  # 1-based
    requested: int
    subtree: Node  # Q_i, as arranged in T_{i-1}
    transition: Node  # Q'_i
    after: Node  # T_i
    encoding: str  # access-path encoding of the request in T_{i-1}


@dataclass(frozen=True)
class ExecutionTrace:
    instance: Instance
    steps: tuple[AccessStep, ...]
    cost: int

    @property
    def final_tree(self) -> Node:
        return self.steps[-1].after if self.steps else self.instance.initial

    @property
    def after_trees(self) -> list[Node]:
        return [s.after for s in self.steps]


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
        keys = tree_keys(q_prime)
        try:
            q = root_subtree(t, keys)
            after = substitute(t, q_prime)
        except DisconnectedSubtreeError as err:
            raise InvalidExecutionError(i, f"subtree not connected through root: {err}") from err
        except KeyAbsentError as err:
            raise InvalidExecutionError(i, f"key-set mismatch: {err}") from err
        except SymmetricOrderError as err:
            raise InvalidExecutionError(i, f"transition tree is not a search tree: {err}") from err
        encoding = path_encoding(t, x)
        steps.append(AccessStep(i, x, q, q_prime, after, encoding))
        cost += len(keys)
        t = after
    return ExecutionTrace(inst, tuple(steps), cost)


def subsequence_instance(inst: Instance, deleted: Iterable[int]) -> Instance:
    gone = set(deleted)
    kept = tuple(x for i, x in enumerate(inst.requests, start=1) if i not in gone)
    return Instance(kept, inst.initial)


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
    if not gone:
        return e
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
        before = trace.steps[j - 1].subtree  # arranged in T_{j-1}
        merged_keys = set(tree_keys(before))
        for idx in range(j, k + 1):
            merged_keys |= tree_keys(trace.steps[idx - 1].subtree)
        t_prev = inst.initial if j == 1 else trace.steps[j - 2].after
        q = root_subtree(t_prev, _connect_keys(t_prev, merged_keys))
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
    from .algorithms import ALGORITHMS

    fn = ALGORITHMS[algo]
    t = inst.initial
    steps = []
    cost = 0
    for i, x in enumerate(inst.requests, start=1):
        path = path_nodes(t, x)
        encoding = "".join("0" if c is p.left else "1" for p, c in zip(path, path[1:]))
        q = Node(x)  # Q is the access path itself
        for p in reversed(path[:-1]):
            q = Node(p.key, q, None) if x < p.key else Node(p.key, None, q)
        after, record = fn(t, x)
        q_prime, _ = fn(q, x)  # path-based: Q' is the rearranged bare path
        steps.append(AccessStep(i, x, q, q_prime, after, encoding))
        cost += record.cost
        t = after
    return ExecutionTrace(inst, tuple(steps), cost)


def splay_execute(inst: Instance) -> ExecutionTrace:
    return algorithm_trace(inst, "splay")


# ---------------------------------------------------------------------------
# Rotation-based model.


@dataclass(frozen=True)
class RotationAccess:
    """Rotations performed before one search, listed as rotated keys."""

    rotations: tuple[int, ...]


@dataclass(frozen=True)
class RotationExecution:
    accesses: tuple[RotationAccess, ...]


@dataclass(frozen=True)
class RotationTrace:
    instance: Instance
    cost: int
    search_depths: tuple[int, ...]
    after_trees: tuple[Node, ...]  # tree at each search


def rotation_trace(inst: Instance, r: RotationExecution) -> RotationTrace:
    """Validate a rotation execution; cost is one per search plus one per
    rotation plus the search depth."""
    if len(r.accesses) != inst.m:
        raise InvalidExecutionError(0, "rotation access count mismatch")
    t = inst.initial
    cost = 0
    depths = []
    afters = []
    for i, (x, acc) in enumerate(zip(inst.requests, r.accesses), start=1):
        for k in acc.rotations:
            try:
                t = rotate(t, k)
            except KeyAbsentError as err:
                raise InvalidExecutionError(i, f"rotation at absent key {k}") from err
            except RotationAtRootError as err:
                raise InvalidExecutionError(i, f"rotation at root key {k}") from err
        if not contains(t, x):
            raise InvalidExecutionError(i, f"search key {x} absent")
        d = depth(t, x)
        cost += 1 + len(acc.rotations) + d
        depths.append(d)
        afters.append(t)
    return RotationTrace(inst, cost, tuple(depths), tuple(afters))


def _vine_rotations(q: Node) -> list[tuple[int, int]]:
    """Rotations (key, parent key) that comb a tree into a right spine by
    repeatedly rotating left children up onto the spine."""
    out: list[tuple[int, int]] = []
    t: Tree = q
    steps = 0  # right-steps from the root to the working position
    while True:
        node: Tree = t
        for _ in range(steps):
            node = node.right
        if node is None:
            break
        if node.left is not None:
            out.append((node.left.key, node.key))
            t = rotate(t, node.left.key)
        else:
            steps += 1
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
    commute, so each access's kept rotations act on a connected subtree of
    the root.  Stage three reads off that subtree and its rearrangement as
    the (Q_i, Q'_i) pair; |Q_i| is at most twice the kept rotations plus one.
    """
    rotation_trace(inst, r)  # validate up front
    t = inst.initial
    transition_trees: list[Node] = []
    pending: list[int] = []  # deferred rotation keys, in order
    last = inst.m
    for i, (x, acc) in enumerate(zip(inst.requests, r.accesses), start=1):
        ops = pending + list(acc.rotations)
        # Lift the requested key to the root, remembering how to undo it.
        work = t
        for k in ops:
            work = rotate(work, k)
        lift: list[int] = []
        undo: list[int] = []
        while work.key != x:
            parents = path_nodes(work, x)
            undo.append(parents[-2].key)
            work = rotate(work, x)
            lift.append(x)
        ops = ops + lift
        # Union-find over rotation edges, evaluated in execution order.
        comp: dict[int, int] = {}

        def find(a: int) -> int:
            root = a
            while comp.get(root, root) != root:
                root = comp[root]
            while comp.get(a, a) != a:
                comp[a], a = root, comp[a]
            return root

        work = t
        edges: list[tuple[int, int]] = []
        for k in ops:
            p = path_nodes(work, k)[-2].key
            edges.append((k, p))
            comp[find(k)] = find(p)
            work = rotate(work, k)
        keep_root = find(x)
        if i == last:
            # No later access can absorb deferred rotations, so the final
            # group keeps everything; this preserves the final tree at the
            # price of the per-group size bound for this one access.
            kept_edges = edges
            deferred = []
        else:
            kept_edges = [(k, p) for (k, p) in edges if find(k) == keep_root]
            deferred = [k for (k, p) in edges if find(k) != keep_root]
        nodes_touched = {x}
        work = t
        for (k, p) in kept_edges:
            nodes_touched.add(k)
            nodes_touched.add(p)
            work = rotate(work, k)
        if work.key != x:
            raise InvariantError("kept rotations must finish with the key at the root")
        span = _closure_both(t, work, nodes_touched)
        q = root_subtree(t, span)
        q_prime = root_subtree(work, span)
        if i != last and size(q) > 2 * len(kept_edges) + 1:
            raise InvariantError(f"access {i}: |Q| exceeds twice the kept rotations plus one")
        transition_trees.append(q_prime)
        t = substitute(t, q_prime)
        if t != work:
            raise InvariantError(f"access {i}: substitution must reproduce the rotated tree")
        # The undo rotations belong to the next access (inverses run in
        # reverse of the lift); so do deferred ones.
        pending = deferred + undo[::-1]
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
# Plain-text formats.


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
    tree_line = requests_line = None
    subsequence = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("tree:"):
            tree_line = line[len("tree:"):].split()
        elif line.startswith("requests:"):
            requests_line = line[len("requests:"):].split()
        elif line.startswith("subsequence:"):
            subsequence = tuple(int(x) for x in line[len("subsequence:"):].split())
    if tree_line is None or requests_line is None:
        raise ValueError("instance file needs 'tree:' and 'requests:' lines")
    keys = [int(k) for k in tree_line]
    seen: set[int] = set()
    for k in keys:
        if k in seen:
            raise DuplicateKeyError(f"key {k} appears more than once on the 'tree:' line")
        seen.add(k)
    initial = bst_from_sequence(keys)
    return Instance(tuple(int(x) for x in requests_line), initial), subsequence


def format_execution(e: Execution) -> str:
    return "\n".join(shape_print(q) for q in e.transition_trees) + "\n"


def parse_execution(text: str) -> Execution:
    trees = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            trees.append(parse_shape(line))
    return Execution(tuple(trees))
