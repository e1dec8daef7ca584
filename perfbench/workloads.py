"""The benchmark's four workloads.

A workload generates its inputs from the seed in ``setup`` and makes its
timed calls into splaylab in ``run``; nothing else happens in the timed
phase.  ``work`` gives the input-defined work units a round serves and the
exact work counters of a round, ``values`` the result values the digest
covers, and ``check`` tests a round's outputs against references that do not
share the code under test.

Sizes are scaled so that one round takes one to five seconds on a 2-vCPU
machine and a run measures several rounds.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ALGOS = ("splay", "mtr", "tds")


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{salt}")


def _random_tree(lab: SimpleNamespace, n: int, rng: random.Random):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return lab.tree.bst_from_sequence(order)


def _inorder(t) -> list[int]:
    out, stack = [], []
    while stack or t is not None:
        while t is not None:
            stack.append(t)
            t = t.left
        t = stack.pop()
        out.append(t.key)
        t = t.right
    return out


def _preorder(t) -> tuple[int, ...]:
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if node is not None:
            out.append(node.key)
            stack.append(node.right)
            stack.append(node.left)
    return tuple(out)


def _is_subsequence(xs, ys) -> bool:
    it = iter(ys)
    return all(any(x == y for y in it) for x in xs)


def _reference_splay(lab: SimpleNamespace, t, x):
    """Textbook bottom-up splay by single rotations of ``tree.rotate``."""
    while True:
        path = lab.tree.path_nodes(t, x)
        if len(path) == 1:
            return t
        if len(path) == 2:
            return lab.tree.rotate(t, x)
        parent, grand = path[-2], path[-3]
        if (grand.left is parent) == (parent.left is path[-1]):
            t = lab.tree.rotate(lab.tree.rotate(t, parent.key), x)
        else:
            t = lab.tree.rotate(lab.tree.rotate(t, x), x)


class Expect:
    """Output checks: a failed or raising check is counted, not fatal."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, test: Callable[[], bool]) -> None:
        self.attempted += 1
        try:
            ok = bool(test())
        except Exception as err:  # a raising check is a failed check
            ok = False
            name = f"{name} ({type(err).__name__}: {str(err)[:80]})"
        if not ok:
            self.failed.append(name)


# ---------------------------------------------------------------------------
# stream: long request sequences on large trees, current tree only.

STREAM_N, STREAM_M = 2000, 3000
STREAM_SPINE_N = 1000
STREAM_SEQ_M = 600
STREAM_ROTATIONS = 1000
STREAM_DEQUE = dict(trials=1, n=400, m=4000)


class Stream:
    name = "stream"

    @staticmethod
    def setup(lab, seed, rec, scratch):
        gen = lab.families.generate
        rand = rec.call("families.generate", "families.generate_s", gen,
                        "random", n=STREAM_N, m=STREAM_M, seed=seed).instance
        spine = rec.call("families.generate", "families.generate_s", gen,
                         "sequential", n=STREAM_SPINE_N).instance
        rng = _rng("stream", seed)
        rotate_keys = [k for k in rand.requests if k != rand.initial.key][:STREAM_ROTATIONS]
        rng.shuffle(rotate_keys)
        return SimpleNamespace(
            seed=seed, rand=rand, spine=spine, seq=rand.requests[:STREAM_SEQ_M],
            rotate_keys=rotate_keys,
        )

    @staticmethod
    def run(lab, inp, rec):
        run_accesses, wilber = lab.algorithms.run_accesses, lab.wilber
        res = {}
        for algo in ALGOS:
            res[algo] = rec.call("algorithms.run_accesses", f"algorithms.{algo}_s", run_accesses,
                                 inp.rand.initial, inp.rand.requests, algo)
        for algo in ("splay", "tds"):
            res[f"{algo}_spine"] = rec.call(
                "algorithms.run_accesses", f"algorithms.{algo}_spine_s", run_accesses,
                inp.spine.initial, inp.spine.requests, algo)
        res["crossing"] = rec.call("wilber.crossing_bound", "wilber.crossing_bound_s",
                                   wilber.crossing_bound, inp.rand)
        res["seq_bound"] = rec.call("wilber.sequence_crossing_bound", "wilber.sequence_bound_s",
                                    wilber.sequence_crossing_bound, inp.seq)
        res["ins_bound"] = rec.call("wilber.crossing_bound_from_insertion_tree",
                                    "wilber.insertion_bound_s",
                                    wilber.crossing_bound_from_insertion_tree, inp.seq)
        res["rotated"] = [rec.call("tree.rotate", "tree.rotate_s", lab.tree.rotate,
                                   inp.rand.initial, k) for k in inp.rotate_keys]
        res["deque"] = rec.call("probes.probe", "probes.deque_linear_s", lab.probes.probe,
                                "deque-linear", seed=inp.seed, **STREAM_DEQUE)
        return res

    @staticmethod
    def work(inp, res):
        ops = (len(ALGOS) + 1) * STREAM_M + 2 * STREAM_SPINE_N + 2 * STREAM_SEQ_M
        ops += len(inp.rotate_keys) + STREAM_DEQUE["trials"] * STREAM_DEQUE["m"]
        records = [r for key in (*ALGOS, "splay_spine", "tds_spine") for r in res[key][1]]
        return ops, {
            "algorithms.accesses": len(records),
            "algorithms.path_nodes": sum(r.cost for r in records),
            "wilber.crossings": res["crossing"] + res["seq_bound"] + res["ins_bound"],
        }

    @staticmethod
    def values(lab, res):
        out = [(k, _preorder(res[k][0]), tuple(r.cost for r in res[k][1]))
               for k in (*ALGOS, "splay_spine", "tds_spine")]
        out += [res["crossing"], res["seq_bound"], res["ins_bound"], res["deque"].to_csv()]
        out += [_preorder(t) for t in res["rotated"][::50]]
        return out

    @staticmethod
    def check(lab, inp, res, expect):
        inst, spine = inp.rand, inp.spine
        splay_final, splay_records = res["splay"]
        # Replay Splay one access at a time; sampled steps must match the
        # textbook rotation-by-rotation splay.
        t, cost, agree = inst.initial, 0, True
        sample = set(range(0, STREAM_M, STREAM_M // 40))
        for i, x in enumerate(inst.requests):
            after, record = lab.algorithms.splay(t, x)
            if i in sample:
                agree = agree and after == _reference_splay(lab, t, x)
            cost += record.cost
            t = after
        expect("splay sampled after-trees equal the rotation-level splay", lambda: agree)
        expect("splay run_accesses agrees with step-by-step splay",
               lambda: t == splay_final and cost == sum(r.cost for r in splay_records))
        expect("mtr final tree equals the recency treap",
               lambda: res["mtr"][0] == lab.wilber.recency_treap(inst, inst.m))
        keys = sorted(set(_inorder(inst.initial)))
        spine_keys = list(range(1, STREAM_SPINE_N + 1))
        for algo in ALGOS:
            expect(f"{algo} final tree is a search tree on the same keys",
                   lambda algo=algo: _inorder(res[algo][0]) == keys)
        for algo in ("splay", "tds"):
            expect(f"{algo} spine final tree is a search tree on the same keys",
                   lambda algo=algo: _inorder(res[f"{algo}_spine"][0]) == spine_keys)
        expect("crossing bound equals MTR's summed crossing counts",
               lambda: res["crossing"] == sum(r.crossing for r in res["mtr"][1]))
        expect("crossing bound is at most Splay's cost",
               lambda: res["crossing"] <= sum(r.cost for r in splay_records))
        expect("sequence crossing bound equals the insertion-tree bound less |T| - 1",
               lambda: res["seq_bound"] == res["ins_bound"] - len(set(inp.seq)) + 1)
        for k, rotated in list(zip(inp.rotate_keys, res["rotated"]))[::25]:
            expect(f"rotate({k}) lifts the key one level and keeps symmetric order",
                   lambda k=k, rotated=rotated: _inorder(rotated) == keys
                   and lab.tree.depth(rotated, k) == lab.tree.depth(inst.initial, k) - 1)
        deque = res["deque"]
        m, n = STREAM_DEQUE["m"], STREAM_DEQUE["n"]
        expect("deque probe reports one row per trial with cost at least one per operation",
               lambda: len(deque.rows) == STREAM_DEQUE["trials"]
               and all(row[3] >= m and abs(row[4] - row[3] / (m + n)) < 1e-12
                       for row in deque.rows))


# ---------------------------------------------------------------------------
# trace: retained traces, the model layer, tree substitution and the CLI.

TRACE_N, TRACE_M = 1000, 300
TRACE_ELIDED = 0.25
TRACE_EMBEDDINGS = 150


def _cli(lab, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lab.cli.main(argv)
    return code, buf.getvalue()


def _random_executions(lab, rng, count, n_range, m_range):
    """Random executions built as the acceptance suites build them."""
    out = []
    for _ in range(count):
        n, m = rng.randint(*n_range), rng.randint(*m_range)
        inst = lab.model.Instance(tuple(rng.randint(1, n) for _ in range(m)),
                                  _random_tree(lab, n, rng))
        out.append((inst, lab.suites.random_execution(rng, inst)))
    return out


class Trace:
    name = "trace"

    @staticmethod
    def setup(lab, seed, rec, scratch):
        inst = rec.call("families.generate", "families.generate_s", lab.families.generate,
                        "random", n=TRACE_N, m=TRACE_M, seed=seed).instance
        rng = _rng("trace", seed)
        deleted = [i for i in range(1, TRACE_M + 1) if rng.random() < TRACE_ELIDED]
        # Before-trees, path key sets and after-trees of Splay's
        # execution, the inputs of the direct root_subtree/substitute calls.
        direct = []
        t = inst.initial
        for x in inst.requests:
            keys = frozenset(node.key for node in lab.tree.path_nodes(t, x))
            after, _ = lab.algorithms.splay(t, x)
            direct.append((t, keys, after))
            t = after
        # Executions of at most eight keys: random_execution enumerates every
        # arrangement of a subtree's keys.
        sim = _random_executions(lab, rng, TRACE_EMBEDDINGS, (1, 6), (1, 5))
        topdown = _random_executions(lab, rng, TRACE_EMBEDDINGS, (4, 8), (1, 4))
        path = scratch / "trace-instance.txt"
        path.write_text(lab.model.format_instance(inst))
        return SimpleNamespace(inst=inst, deleted=deleted, direct=direct, sim=sim,
                               topdown=topdown, path=str(path))

    @staticmethod
    def run(lab, inp, rec):
        model, tree, inst = lab.model, lab.tree, inp.inst
        res = {}
        for algo in ALGOS:
            res[algo] = rec.call("model.algorithm_trace", "model.algorithm_trace_s",
                                 model.algorithm_trace, inst, algo)
        ex = model.Execution(tuple(s.transition for s in res["splay"].steps))
        res["validate"] = rec.call("model.validate", "model.validate_s", model.validate, inst, ex)
        res["elided"] = rec.call("model.elide", "model.elide_s", model.elide, inst, ex, inp.deleted)
        rot = rec.call("model.to_rotation_model", "model.to_rotation_s",
                       model.to_rotation_model, inst, ex)
        res["rotation"] = rot
        res["rotation_trace"] = rec.call("model.rotation_trace", "model.rotation_trace_s",
                                         model.rotation_trace, inst, rot)
        res["back"] = rec.call("model.from_rotation_model", "model.from_rotation_s",
                               model.from_rotation_model, inst, rot)
        res["subtrees"] = [rec.call("tree.root_subtree", "tree.root_subtree_s",
                                    tree.root_subtree, before, keys)
                           for before, keys, _ in inp.direct]
        res["substituted"] = [rec.call("tree.substitute", "tree.substitute_s", tree.substitute,
                                       before, tree_q)
                              for (before, _, _), tree_q in zip(inp.direct, ex.transition_trees)]
        res["sim"] = [rec.call("transforms.simulation_embedding",
                               "transforms.simulation_embedding_s",
                               lab.transforms.simulation_embedding, i, e) for i, e in inp.sim]
        res["topdown"] = [rec.call("transforms.topdown_embedding", "transforms.topdown_embedding_s",
                                   lab.transforms.topdown_embedding, i, e)
                          for i, e in inp.topdown]
        for algo in ALGOS:
            res[f"cli_{algo}"] = rec.call(
                "cli.main", "cli.run_s", _cli, lab,
                ["run", "--instance", inp.path, "--algo", algo, "--report", "cost,lambda,zeta"])
        res["cli_lambda"] = rec.call("cli.main", "cli.lambda_report_s", _cli, lab,
                                     ["lambda-report", inp.path])
        return res

    @staticmethod
    def work(inp, res):
        m = TRACE_M
        embedded = sum(i.m for i, _ in inp.sim) + sum(i.m for i, _ in inp.topdown)
        model_calls = len(ALGOS) + 5  # validate, elide, three rotation conversions
        ops = (model_calls + 2 + len(ALGOS) + 1) * m + embedded
        return ops, {
            "model.requests": model_calls * m,
            "model.transition_nodes": sum(res[k].cost for k in (*ALGOS, "validate")),
            "tree.subtree_nodes": 2 * sum(len(keys) for _, keys, _ in inp.direct),
            "transforms.embedded_requests": embedded,
        }

    @staticmethod
    def values(lab, res):
        out = [(res[k].cost, tuple(_preorder(s.transition) for s in res[k].steps))
               for k in (*ALGOS, "validate")]
        out.append(tuple(_preorder(q) for q in res["elided"].transition_trees))
        out.append(tuple(a.rotations for a in res["rotation"].accesses))
        out.append((res["rotation_trace"].cost, res["rotation_trace"].search_depths))
        out.append(tuple(_preorder(q) for q in res["back"].transition_trees))
        out.append(tuple(_preorder(q) for q in res["subtrees"]))
        out.append(_preorder(res["substituted"][-1]))
        out += [res["sim"], res["topdown"]]
        out += [res[f"cli_{k}"] for k in (*ALGOS, "lambda")]
        return out

    @staticmethod
    def check(lab, inp, res, expect):
        model, inst = lab.model, inp.inst
        splay_cost = res["splay"].cost
        for algo in ALGOS:
            final, records = lab.algorithms.run_accesses(inst.initial, inst.requests, algo)
            expect(f"{algo} trace validates at its summed access cost and final tree",
                   lambda algo=algo, final=final, records=records: (
                       model.validate(inst, model.Execution(
                           tuple(s.transition for s in res[algo].steps))).cost
                       == res[algo].cost == sum(r.cost for r in records)
                       and res[algo].final_tree == final))
        expect("validate returns the splay trace's cost and final tree",
               lambda: res["validate"].cost == splay_cost
               and res["validate"].final_tree == res["splay"].final_tree)
        expect("elided execution serves the subsequence more cheaply",
               lambda: model.validate(model.subsequence_instance(inst, inp.deleted),
                                      res["elided"]).cost < splay_cost)
        rt = res["rotation_trace"]
        expect("rotation model costs at most 3x and searches at the root",
               lambda: rt.cost <= 3 * splay_cost and not any(rt.search_depths))
        expect("rotation round trip keeps the final tree within 4x",
               lambda: (lambda back: back.final_tree == res["splay"].final_tree
                        and back.cost <= 4 * rt.cost)(model.validate(inst, res["back"])))
        expect("root_subtree returns each step's Q",
               lambda: all(q == s.subtree for q, s in zip(res["subtrees"], res["splay"].steps)))
        expect("substitute returns each step's after-tree",
               lambda: all(a == after for a, (_, _, after)
                           in zip(res["substituted"], inp.direct)))
        for name, cases, algo in (("sim", inp.sim, lab.algorithms.splay),
                                  ("topdown", inp.topdown, lab.algorithms.top_down_splay)):
            ok = True
            for (i, e), seq in zip(cases, res[name]):
                t = i.initial
                for k in seq:
                    t, _ = algo(t, k)
                keys = sorted(_inorder(i.initial))
                if name == "topdown":  # the frame: maximum at the root, second smallest below
                    ok = ok and t.key == keys[-1] and t.left.key == keys[1]
                elif i.n > 3:  # smaller trees are served by the requests alone
                    ok = ok and t == model.validate(i, e).final_tree
                ok = ok and _is_subsequence(i.requests, seq)
            expect(f"{name} embeddings contain the requests and end in the right tree",
                   lambda ok=ok: ok)
        lam = lab.wilber.crossing_bound(inst)
        zeta = lab.wilber.splay_bookkeeping_cost(inst)
        for algo in ALGOS:
            cost = sum(r.cost for r in lab.algorithms.run_accesses(
                inst.initial, inst.requests, algo)[1])
            expect(f"cli run --algo {algo} reports cost, lambda and zeta",
                   lambda algo=algo, cost=cost: res[f"cli_{algo}"][0] == 0
                   and res[f"cli_{algo}"][1].splitlines()[1].split(",")[4:]
                   == [str(cost), str(lam), str(zeta)])
        expect("cli lambda-report splits Splay's cost into crossing and bookkeeping",
               lambda: (lambda row: res["cli_lambda"][0] == 0
                        and int(row[3]) == splay_cost and int(row[4]) == lam
                        and int(row[5]) + int(row[6]) == splay_cost and int(row[6]) == zeta)(
                   res["cli_lambda"][1].splitlines()[1].split(",")))


# ---------------------------------------------------------------------------
# oracle: the exact optimal-cost oracle with its memo cold.

ORACLE_N, ORACLE_M = 6, 8


def _pair_walk(n: int, rng: random.Random) -> list[int]:
    """A closed walk over keys 1..n that takes every ordered pair (r, x),
    r == x included, exactly once as consecutive requests."""
    succ = {v: list(range(1, n + 1)) for v in range(1, n + 1)}
    for v in succ:
        rng.shuffle(succ[v])
    stack, walk = [rng.randint(1, n)], []
    while stack:
        v = stack[-1]
        if succ[v]:
            stack.append(succ[v].pop())
        else:
            walk.append(stack.pop())
    return walk[::-1]


class Oracle:
    name = "oracle"

    @staticmethod
    def setup(lab, seed, rec, scratch):
        # After each request the oracle's states are exactly the trees rooted
        # at that key, so its work is fixed by the consecutive request pairs.
        # Covering every ordered pair once makes the work the same for every
        # seed; the seed chooses the order and the initial trees.
        rng = _rng("oracle", seed)
        walk = _pair_walk(ORACLE_N, rng)
        instances = []
        for start in range(0, len(walk) - 1, ORACLE_M - 1):
            requests = tuple(walk[start:start + ORACLE_M])
            instances.append(lab.model.Instance(requests, _random_tree(lab, ORACLE_N, rng)))
        return SimpleNamespace(instances=instances)

    @staticmethod
    def run(lab, inp, rec):
        out = []
        for inst in inp.instances:
            out.append(rec.call("opt.opt_cost", "opt.opt_cost_s", lab.opt.opt_cost, inst))
        return {"opt": out}

    @staticmethod
    def work(inp, res):
        return sum(i.m for i in inp.instances), {
            "opt.states_expanded": sum(r.states_expanded for r in res["opt"]),
        }

    @staticmethod
    def values(lab, res):
        return [(r.cost, r.states_expanded, tuple(_preorder(q) for q in r.execution.transition_trees))
                for r in res["opt"]]

    @staticmethod
    def check(lab, inp, res, expect):
        for k, (inst, r) in enumerate(zip(inp.instances, res["opt"])):
            splay_cost = sum(rc.cost for rc in lab.algorithms.run_accesses(
                inst.initial, inst.requests, "splay")[1])
            expect(f"instance {k}: execution achieves opt, opt <= splay, lambda <= 24 opt",
                   lambda inst=inst, r=r, splay_cost=splay_cost:
                   lab.model.validate(inst, r.execution).cost == r.cost <= splay_cost
                   and lab.wilber.crossing_bound(inst) <= 24 * r.cost)


# ---------------------------------------------------------------------------
# battery: acceptance suites as `splaylab verify` runs them.

# remove-one (195,050 cases) is left out: it is one call of about 17 s, so a
# 20-second run would time one round of it and have no median to report;
# these two sweeps replay every request sequence from scratch in the same way.
BATTERY = (
    ("wilber-monotone", r"(\d+) subsequences"),
    ("opt-monotone", r"(\d+) instances"),
)


def _slug(suite: str) -> str:
    return suite.replace("-", "_")


class Battery:
    name = "battery"

    @staticmethod
    def setup(lab, seed, rec, scratch):
        return SimpleNamespace(seed=seed)

    @staticmethod
    def run(lab, inp, rec):
        res = {}
        for name, _ in BATTERY:
            res[name] = rec.call("suites.run_suite", f"suites.{_slug(name)}_s",
                                 lab.suites.run_suite, name, seed=inp.seed)
        return res

    @staticmethod
    def work(inp, res):
        # Until suites report structured counts, the case counts are parsed
        # from the prose detail.
        counters = {}
        for name, pattern in BATTERY:
            found = re.search(pattern, res[name][0].detail)
            counters[f"suites.{_slug(name)}_cases"] = int(found.group(1)) if found else 0
        return sum(counters.values()), counters

    @staticmethod
    def values(lab, res):
        return [(r.name, r.passed, r.detail) for name, _ in BATTERY for r in res[name]]

    @staticmethod
    def check(lab, inp, res, expect):
        for name, _ in BATTERY:
            expect(f"suite {name} passes", lambda name=name: all(r.passed for r in res[name]))
            expect(f"suite {name} reports its case count",
                   lambda name=name: re.search(dict(BATTERY)[name], res[name][0].detail))


WORKLOADS = {w.name: w for w in (Stream, Trace, Oracle, Battery)}


# ---------------------------------------------------------------------------
# Known defect: sequential access of a deep left spine through the model.

DEEP_SPINE_N = 3000


def _restrict(t, keys: frozenset):
    """Induced subtree of ``t`` on a root-connected key set, without recursion."""
    built = {}
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if node is None or node.key not in keys:
            continue
        if expanded:
            left = built.pop(node.left.key, None) if node.left is not None else None
            right = built.pop(node.right.key, None) if node.right is not None else None
            built[node.key] = type(node)(node.key, left, right)
        else:
            stack += [(node, True), (node.left, False), (node.right, False)]
    return built[t.key]


def deep_spine(lab) -> Expect:
    """Splay's execution on sequential access of a left spine, through
    algorithm_trace, validate and elide.  The README supports spines of tens
    of thousands of keys through every entry point."""
    inst = lab.families.generate("sequential", n=DEEP_SPINE_N).instance
    transitions, t, cost = [], inst.initial, 0
    for x in inst.requests:
        keys = frozenset(node.key for node in lab.tree.path_nodes(t, x))
        t, record = lab.algorithms.splay(t, x)
        transitions.append(_restrict(t, keys))
        cost += record.cost
    ex = lab.model.Execution(tuple(transitions))
    deleted = range(2, DEEP_SPINE_N + 1, 4)
    sub = lab.model.subsequence_instance(inst, deleted)
    expect = Expect()
    expect("algorithm_trace on the deep spine",
           lambda: lab.model.algorithm_trace(inst, "splay").cost == cost)
    expect("validate on the deep spine", lambda: lab.model.validate(inst, ex).cost == cost)
    expect("elide on the deep spine",
           lambda: lab.model.validate(sub, lab.model.elide(inst, ex, deleted)).cost < cost)
    return expect


def scratch_dir(root: Path) -> Path:
    path = root / ".bench_out"
    path.mkdir(exist_ok=True)
    return path
