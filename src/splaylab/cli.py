"""Command-line front door.

Subcommands: ``verify`` runs acceptance suites, ``run`` executes an instance
file under one algorithm and reports requested columns, ``lambda-report`` and
``opt-report`` report fixed columns for instance files, all three from one
column table, ``probe`` runs a conjecture probe, ``gen`` writes a family
instance, ``gn`` prints transition digraph facts.  Exit codes: 0 on success,
1 when a suite failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .algorithms import ALGORITHMS, run_totals
from .families import FAMILY_NAMES, UnknownFamilyError, generate
from .model import Instance, format_instance, parse_instance
from .opt import DEFAULT_GUARD_M, DEFAULT_GUARD_N, GuardExceededError, check_guards, opt_cost
from .probes import PROBES, UnknownConjectureError, probe
from .suites import SUITES, run_suite
from .transforms import build_digraph, eccentricities
from .tree import KeyAbsentError, shape_print
from .wilber import sequence_crossing_bound


class UsageError(Exception):
    """Bad input from the command line; reported on one line, exit code 2."""


def read_instance(path: str) -> Instance:
    """The instance in file ``path``, for ``run``, ``lambda-report`` and
    ``opt-report``; a missing or malformed file is a usage error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read instance file: {err}") from err
    try:
        inst, _ = parse_instance(text)
    except KeyAbsentError as err:
        raise UsageError(f"{path}: requested keys {err.args[0]} are not in the tree") from err
    except ValueError as err:
        raise UsageError(f"{path}: {err}") from err
    return inst


class _Cells:
    """What the report columns of one instance read, each computed at most
    once: one run per algorithm, and the oracle's cost."""

    def __init__(self, inst: Instance, algo: str) -> None:
        self.inst, self.algo = inst, algo  # the "cost" column reports algo's run
        self.run = cache(lambda name: run_totals(inst.initial, inst.requests, name))

    @cached_property
    def opt(self) -> int | None:
        """The oracle's cost, or None when the instance exceeds its guard."""
        try:
            return opt_cost(self.inst).cost
        except GuardExceededError:
            return None


def _over_opt(value: int, cells: _Cells) -> str:
    """``value / opt`` to four places; empty when the guard trips or opt is 0."""
    return f"{value / cells.opt:.4f}" if cells.opt else ""


# Report columns: name -> the column's cell for one instance.  lambda is
# Move-to-Root's crossing cost, the lower bound; lambda_prime and zeta split
# Splay's cost into crossings and bookkeeping.  The README describes each.
COLUMNS: dict[str, Callable[[_Cells], object]] = {
    "algo": lambda c: c.algo,
    "cost": lambda c: c.run(c.algo).cost,
    "cost_splay": lambda c: c.run("splay").cost,
    "splay_cost": lambda c: c.run("splay").cost,
    "mtr_cost": lambda c: c.run("mtr").cost,
    "lambda": lambda c: c.run("mtr").crossing,
    "lambda_prime": lambda c: c.run("splay").crossing,
    "lambda2": lambda c: sequence_crossing_bound(c.inst.requests),
    "zeta": lambda c: c.run("splay").bookkeeping,
    "opt": lambda c: "" if c.opt is None else c.opt,
    "splay_over_opt": lambda c: _over_opt(c.run("splay").cost, c),
    "lambda_over_opt": lambda c: _over_opt(c.run("mtr").crossing, c),
}
RUN_COLUMNS = ("cost", "lambda", "lambda2", "zeta", "opt")  # the choices of run --report
LAMBDA_REPORT = ("cost_splay", "lambda", "lambda_prime", "zeta", "opt")
OPT_REPORT = ("opt", "splay_cost", "mtr_cost", "lambda", "splay_over_opt", "lambda_over_opt")


def _write_report(paths: Sequence[str], columns: Sequence[str], algo: str = "splay") -> int:
    """Print a CSV header and one row per instance file: its name, m and n,
    then ``columns`` from :data:`COLUMNS`.  Every file is read first, so a bad
    one prints nothing."""
    instances = [(path, read_instance(path)) for path in paths]
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["instance", "m", "n", *columns])
    for path, inst in instances:
        cells = _Cells(inst, algo)
        out.writerow([Path(path).name, inst.m, inst.n, *(COLUMNS[c](cells) for c in columns)])
    return 0


def _require_at_least(args: argparse.Namespace, **minimums: int) -> None:
    """Reject a numeric option below its minimum; options left unset pass."""
    for name, low in minimums.items():
        value = getattr(args, name)
        if value is not None and value < low:
            option = "--" + name.replace("_", "-")
            raise UsageError(f"{option} must be at least {low}, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splaylab")
    parser.add_argument("--version", action="version", version=f"splaylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", required=True, help="suite name or 'all'")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--max-m", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="execute an instance file")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--algo", choices=sorted(ALGORITHMS), default="splay")
    p_run.add_argument("--report", default="cost", help="comma list: " + ",".join(RUN_COLUMNS))

    p_probe = sub.add_parser("probe", help="run a conjecture probe")
    p_probe.add_argument("--conjecture", required=True)
    p_probe.add_argument("--trials", type=int, default=20)
    p_probe.add_argument("--n", type=int, default=100)
    p_probe.add_argument("--m", type=int, default=200)
    p_probe.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("gen", help="generate a family instance")
    p_gen.add_argument("--family", required=True, help=",".join(FAMILY_NAMES))
    p_gen.add_argument("--n", type=int, default=0)
    p_gen.add_argument("--k", type=int, default=0)
    p_gen.add_argument("--m", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_gn = sub.add_parser("gn", help="transition digraph report")
    p_gn.add_argument("--n", type=int, required=True)
    p_gn.add_argument("--algo", choices=sorted(ALGORITHMS), default="splay")

    p_lam = sub.add_parser("lambda-report", help="crossing-cost CSV for instance files")
    p_lam.add_argument("instances", nargs="+")

    p_opt = sub.add_parser("opt-report", help="oracle-vs-algorithms CSV for instance files")
    p_opt.add_argument("instances", nargs="+")
    return parser


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite: {args.suite} (choose from all, {', '.join(SUITES)})")
    _require_at_least(args, max_n=1, max_m=1)
    # --max-n and --max-m size the opt-monotone sweep, so the oracle's
    # guards bound them; an option left unset passes.
    try:
        check_guards(args.max_n or 0, args.max_m or 0)
    except GuardExceededError as err:
        raise UsageError(
            f"--max-n must be at most {DEFAULT_GUARD_N} and --max-m at most {DEFAULT_GUARD_M},"
            " the oracle's guards (SPLAYLAB_GUARD_OVERRIDE=1 lifts them)"
        ) from err
    kwargs = {"seed": args.seed}
    if args.max_n is not None:
        kwargs["max_n"] = args.max_n
    if args.max_m is not None:
        kwargs["max_m"] = args.max_m
    results = run_suite(args.suite, **kwargs)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail} ({res.seconds:.1f}s)")
        failed += 0 if res.passed else 1
    return 1 if failed else 0


def cmd_run(args: argparse.Namespace) -> int:
    columns = [c.strip() for c in args.report.split(",") if c.strip()]
    choices = f"(choose from {', '.join(RUN_COLUMNS)})"
    if not columns:
        raise UsageError(f"--report names no column {choices}")
    unknown = [c for c in columns if c not in RUN_COLUMNS]
    if unknown:
        raise UsageError(f"unknown report columns: {unknown} {choices}")
    return _write_report([args.instance], ["algo", *columns], args.algo)


def cmd_probe(args: argparse.Namespace) -> int:
    _require_at_least(args, trials=1, n=1, m=0)
    try:
        report = probe(args.conjecture, args.trials, args.n, args.m, args.seed)
    except UnknownConjectureError as err:
        raise UsageError(
            f"unknown conjecture: {args.conjecture} (choose from {', '.join(PROBES)})"
        ) from err
    sys.stdout.write(report.to_csv())
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        fam = generate(args.family, n=args.n, k=args.k, m=args.m, seed=args.seed)
    except UnknownFamilyError as err:
        raise UsageError(
            f"unknown family: {args.family} (choose from {', '.join(FAMILY_NAMES)})"
        ) from err
    except ValueError as err:
        raise UsageError(str(err)) from err
    try:
        Path(args.out).write_text(format_instance(fam.instance, fam.subsequence))
    except OSError as err:
        raise UsageError(f"cannot write instance file: {err}") from err
    print(f"wrote {args.family} instance (n={fam.instance.n}, m={fam.instance.m}) to {args.out}")
    return 0


def cmd_gn(args: argparse.Namespace) -> int:
    try:
        g = build_digraph(args.n, args.algo)
    except ValueError as err:
        raise UsageError(str(err)) from err
    eccs = eccentricities(g)  # -1 marks a vertex that cannot reach them all
    connected = min(eccs) >= 0
    diam = max(eccs) if connected else ""
    worst = max(range(len(eccs)), key=lambda i: eccs[i])
    print("n,algorithm,vertices,strongly_connected,diameter,max_eccentricity_vertex")
    print(
        f"{args.n},{args.algo},{len(g.vertices)},{connected},{diam},"
        f"\"{shape_print(g.vertices[worst])}\""
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "run": cmd_run,
        "probe": cmd_probe,
        "gen": cmd_gen,
        "gn": cmd_gn,
        "lambda-report": lambda args: _write_report(args.instances, LAMBDA_REPORT),
        "opt-report": lambda args: _write_report(args.instances, OPT_REPORT),
    }
    try:
        return handlers[args.command](args)
    except UsageError as err:
        print(f"splaylab {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
