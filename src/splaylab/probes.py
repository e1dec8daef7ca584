"""Report-only conjecture probes.

Probes measure and summarize; they never assert anything about the
conjectures they test.  Every report embeds the tool version, the seed, and
the parameters, and identical inputs produce byte-identical output: the user
seed expands to per-trial seeds through a counter so trial order or
parallelism cannot change results.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

from . import __version__
from .algorithms import access_cost, deque_run, run_totals
from .families import generate, random_instance, random_tree, trial_rng
from .model import Instance
from .tree import bst_from_sequence, preorder
from .wilber import crossing_bound, splay_crossing_cost


class UnknownConjectureError(ValueError):
    pass


@dataclass
class ProbeReport:
    conjecture: str
    params: dict
    columns: tuple[str, ...]
    rows: list[tuple]
    version: str = __version__

    @property
    def aggregates(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for j, col in enumerate(self.columns):
            values = [r[j] for r in self.rows if isinstance(r[j], (int, float))]
            if values:
                out[col] = {
                    "max": max(values),
                    "mean": sum(values) / len(values),
                }
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        meta = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        buf.write(f"# conjecture={self.conjecture} version={self.version} {meta}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        agg = self.aggregates
        for col in self.columns:
            if col in agg:
                buf.write(
                    f"# {col}: max={_fmt(agg[col]['max'])} mean={_fmt(agg[col]['mean'])}\n"
                )
        return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _random_subsequence(rng: random.Random, x: tuple[int, ...]) -> tuple[int, ...]:
    kept = tuple(v for v in x if rng.random() < 0.6)
    return kept if kept else x[:1]


def probe(conjecture: str, trials: int, n: int, m: int, seed: int) -> ProbeReport:
    try:
        run = PROBES[conjecture]
    except KeyError:
        raise UnknownConjectureError(conjecture) from None
    return run(trials, n, m, seed)


def _probe_splay_mr(trials: int, n: int, m: int, seed: int) -> ProbeReport:
    rows = []
    # Fixed witness where Splay's crossing cost dips below the lower bound.
    witness = Instance((3, 1, 4, 2), bst_from_sequence([3, 1, 2, 4]))
    lam = crossing_bound(witness)
    lam_prime = splay_crossing_cost(witness)
    rows.append(("witness", witness.n, witness.m, lam, lam_prime, lam_prime / (lam + witness.n)))
    for trial in range(trials):
        rng = trial_rng("probe", seed, trial)
        inst = random_instance(rng, n, m)
        lam = crossing_bound(inst)
        lam_prime = splay_crossing_cost(inst)
        rows.append((trial, n, m, lam, lam_prime, lam_prime / (lam + n)))
    return ProbeReport(
        "splay-mr-crossings",
        {"trials": trials, "n": n, "m": m, "seed": seed},
        ("trial", "n", "m", "lambda", "lambda_prime", "ratio"),
        rows,
    )


def _probe_monotone_crossings(trials: int, n: int, m: int, seed: int) -> ProbeReport:
    rows = []
    for trial in range(trials):
        rng = trial_rng("probe", seed, trial)
        inst = random_instance(rng, n, m)
        y = _random_subsequence(rng, inst.requests)
        full = splay_crossing_cost(inst)
        sub = splay_crossing_cost(Instance(y, inst.initial))
        rows.append((trial, n, m, full, sub, sub / (full + n)))
    return ProbeReport(
        "monotone-splay-crossings",
        {"trials": trials, "n": n, "m": m, "seed": seed},
        ("trial", "n", "m", "lambda_prime_x", "lambda_prime_y", "ratio"),
        rows,
    )


def _probe_bookkeeping(trials: int, n: int, m: int, seed: int) -> ProbeReport:
    rows = []
    for trial in range(trials):
        rng = trial_rng("probe", seed, trial)
        inst = random_instance(rng, n, m)
        totals = run_totals(inst.initial, inst.requests, "splay")
        zeta, lam_prime = totals.bookkeeping, totals.crossing
        rows.append((trial, n, m, lam_prime, zeta, zeta / (lam_prime + n)))
    return ProbeReport(
        "splay-bookkeeping",
        {"trials": trials, "n": n, "m": m, "seed": seed},
        ("trial", "n", "m", "lambda_prime", "zeta", "ratio"),
        rows,
    )


def _probe_deque(trials: int, n: int, m: int, seed: int) -> ProbeReport:
    rows = []
    for trial in range(trials):
        rng = trial_rng("probe", seed, trial)
        # Seat the initial keys mid-range so pushed minima stay positive.
        base = random_tree(n, rng)
        offset = m + 1
        t = bst_from_sequence(k + offset for k in preorder(base))
        lo, hi = offset, offset + n + 1
        count = n
        ops = []
        for _ in range(m):
            choices = ["push", "inject"] + (["pop", "eject"] if count else [])
            op = rng.choice(choices)
            if op == "push":
                ops.append(("push", lo))
                lo -= 1
                count += 1
            elif op == "inject":
                ops.append(("inject", hi))
                hi += 1
                count += 1
            else:
                ops.append((op, None))
                count -= 1
        _, cost = deque_run(t, ops)
        rows.append((trial, n, m, cost, cost / (m + n)))
    return ProbeReport(
        "deque-linear",
        {"trials": trials, "n": n, "m": m, "seed": seed},
        ("trial", "n", "m", "cost", "ratio"),
        rows,
    )


def _probe_traversal(trials: int, n: int, m: int, seed: int) -> ProbeReport:
    rows = []
    for trial in range(trials):
        rng = trial_rng("probe", seed, trial)
        t1 = random_tree(n, rng)
        t2 = random_tree(n, rng)
        self_cost = access_cost(t1, preorder(t1), "splay")
        cross_cost = access_cost(t1, preorder(t2), "splay")
        rows.append((trial, n, self_cost / n, cross_cost / n))
    return ProbeReport(
        "traversal-linear",
        {"trials": trials, "n": n, "seed": seed},
        ("trial", "n", "self_ratio", "cross_ratio"),
        rows,
    )


def _probe_subseq_ratio(trials: int, n: int, m: int, seed: int) -> ProbeReport:
    rows = []
    fam = generate("spine-312", n=max(n, 3))
    cx = access_cost(fam.instance.initial, fam.instance.requests, "splay")
    cy = access_cost(fam.instance.initial, fam.subsequence, "splay")
    rows.append(("spine-312", fam.params["n"], cx, cy, cy / cx))
    k = max(3, (n + 1).bit_length() - 1)
    fam = generate("powers", k=k)
    cx = access_cost(fam.instance.initial, fam.instance.requests, "splay")
    cy = access_cost(fam.instance.initial, fam.subsequence, "splay")
    rows.append((f"powers-k{k}", 2 ** k - 1, cx, cy, cy / cx))
    return ProbeReport(
        "subseq-ratio",
        {"n": n},
        ("family", "n", "cost_x", "cost_y", "ratio"),
        rows,
    )


# Every probe takes (trials, n, m, seed) and ignores the parameters its
# report does not list.
PROBES = {
    "splay-mr-crossings": _probe_splay_mr,
    "monotone-splay-crossings": _probe_monotone_crossings,
    "splay-bookkeeping": _probe_bookkeeping,
    "deque-linear": _probe_deque,
    "traversal-linear": _probe_traversal,
    "subseq-ratio": _probe_subseq_ratio,
}
