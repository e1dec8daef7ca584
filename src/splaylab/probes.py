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
from typing import Callable, Iterable, Iterator, NamedTuple

from . import __version__
from .algorithms import access_cost, deque_run, run_totals
from .families import FamilyInstance, generate, random_instance, random_tree, trial_rng
from .model import Instance
from .tree import bst_from_sequence, preorder
from .wilber import crossing_bound


class UnknownConjectureError(ValueError):
    pass


class ProbeReport(NamedTuple):
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
        spec = PROBES[conjecture]
    except KeyError:
        raise UnknownConjectureError(conjecture) from None
    given = {"trials": trials, "n": n, "m": m, "seed": seed}
    params = {name: given[name] for name in spec.params}
    return ProbeReport(conjecture, params, spec.columns, list(spec.rows(trials, n, m, seed)))


def _random_trials(
    trials: int, n: int, m: int, seed: int
) -> Iterator[tuple[int, random.Random, Instance]]:
    """Each trial's number, its generator and the random instance drawn from
    it first; the caller may draw more from the generator."""
    for trial in range(trials):
        rng = trial_rng("probe", seed, trial)
        yield trial, rng, random_instance(rng, n, m)


def subsequence_costs(fam: FamilyInstance) -> tuple[int, int]:
    """Splay's cost on a family's requests and on its paired subsequence."""
    t = fam.instance.initial
    return access_cost(t, fam.instance.requests, "splay"), access_cost(t, fam.subsequence, "splay")


def _splay_mr_rows(trials: int, n: int, m: int, seed: int) -> Iterator[tuple]:
    # Fixed witness where Splay's crossing cost dips below the lower bound.
    witness = Instance((3, 1, 4, 2), bst_from_sequence([3, 1, 2, 4]))
    lam = crossing_bound(witness)
    lam_prime = run_totals(witness.initial, witness.requests, "splay").crossing
    yield ("witness", witness.n, witness.m, lam, lam_prime, lam_prime / (lam + witness.n))
    for trial, _, inst in _random_trials(trials, n, m, seed):
        lam = crossing_bound(inst)
        lam_prime = run_totals(inst.initial, inst.requests, "splay").crossing
        yield (trial, n, m, lam, lam_prime, lam_prime / (lam + n))


def _monotone_crossings_rows(trials: int, n: int, m: int, seed: int) -> Iterator[tuple]:
    for trial, rng, inst in _random_trials(trials, n, m, seed):
        y = _random_subsequence(rng, inst.requests)
        full = run_totals(inst.initial, inst.requests, "splay").crossing
        sub = run_totals(inst.initial, y, "splay").crossing
        yield (trial, n, m, full, sub, sub / (full + n))


def _bookkeeping_rows(trials: int, n: int, m: int, seed: int) -> Iterator[tuple]:
    for trial, _, inst in _random_trials(trials, n, m, seed):
        totals = run_totals(inst.initial, inst.requests, "splay")
        zeta, lam_prime = totals.bookkeeping, totals.crossing
        yield (trial, n, m, lam_prime, zeta, zeta / (lam_prime + n))


def _deque_rows(trials: int, n: int, m: int, seed: int) -> Iterator[tuple]:
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
        yield (trial, n, m, cost, cost / (m + n))


def _traversal_rows(trials: int, n: int, m: int, seed: int) -> Iterator[tuple]:
    for trial in range(trials):
        rng = trial_rng("probe", seed, trial)
        t1 = random_tree(n, rng)
        t2 = random_tree(n, rng)
        self_cost = access_cost(t1, preorder(t1), "splay")
        cross_cost = access_cost(t1, preorder(t2), "splay")
        yield (trial, n, self_cost / n, cross_cost / n)


def _subseq_ratio_rows(trials: int, n: int, m: int, seed: int) -> Iterator[tuple]:
    fam = generate("spine-312", n=max(n, 3))
    cx, cy = subsequence_costs(fam)
    yield ("spine-312", fam.params["n"], cx, cy, cy / cx)
    k = max(3, (n + 1).bit_length() - 1)
    cx, cy = subsequence_costs(generate("powers", k=k))
    yield (f"powers-k{k}", 2 ** k - 1, cx, cy, cy / cx)


class _Probe(NamedTuple):
    rows: Callable[[int, int, int, int], Iterable[tuple]]
    params: tuple[str, ...]  # the parameters the report's header lists
    columns: tuple[str, ...]


# Every rows function takes (trials, n, m, seed) and ignores the parameters
# its report does not list.
_TRIALS = ("trials", "n", "m", "seed")
PROBES = {
    "splay-mr-crossings": _Probe(
        _splay_mr_rows, _TRIALS, ("trial", "n", "m", "lambda", "lambda_prime", "ratio")
    ),
    "monotone-splay-crossings": _Probe(
        _monotone_crossings_rows,
        _TRIALS,
        ("trial", "n", "m", "lambda_prime_x", "lambda_prime_y", "ratio"),
    ),
    "splay-bookkeeping": _Probe(
        _bookkeeping_rows, _TRIALS, ("trial", "n", "m", "lambda_prime", "zeta", "ratio")
    ),
    "deque-linear": _Probe(_deque_rows, _TRIALS, ("trial", "n", "m", "cost", "ratio")),
    "traversal-linear": _Probe(
        _traversal_rows, ("trials", "n", "seed"), ("trial", "n", "self_ratio", "cross_ratio")
    ),
    "subseq-ratio": _Probe(
        _subseq_ratio_rows, ("n",), ("family", "n", "cost_x", "cost_y", "ratio")
    ),
}
