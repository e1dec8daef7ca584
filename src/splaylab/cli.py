"""Command-line front door.

Subcommands: ``verify`` runs acceptance suites, ``run`` executes an instance
file under one algorithm and reports requested columns, ``probe`` runs a
conjecture probe, ``gen`` writes a family instance, ``gn`` prints transition
digraph facts.  Exit codes: 0 on success, 1 when a suite failed, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .algorithms import ALGORITHMS, run_accesses
from .families import FAMILY_NAMES, UnknownFamilyError, generate
from .model import Instance, format_instance, parse_instance
from .opt import DEFAULT_GUARD_M, DEFAULT_GUARD_N, GuardExceededError, check_guards, opt_cost
from .probes import PROBES, UnknownConjectureError, probe
from .suites import SUITES, run_suite
from .transforms import build_digraph, eccentricities
from .tree import KeyAbsentError, shape_print
from .wilber import crossing_bound, sequence_crossing_bound, splay_bookkeeping_cost

REPORT_COLUMNS = ("cost", "lambda", "lambda2", "zeta", "opt")


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
    p_run.add_argument("--report", default="cost", help="comma list: cost,lambda,lambda2,zeta,opt")

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
            " the oracle's guards (SPLAYLAB_GUARD_OVERRIDE lifts them)"
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
    unknown = [c for c in columns if c not in REPORT_COLUMNS]
    if unknown:
        raise UsageError(
            f"unknown report columns: {unknown} (choose from {', '.join(REPORT_COLUMNS)})"
        )
    inst = read_instance(args.instance)
    _, records = run_accesses(inst.initial, inst.requests, args.algo)
    # Lambda is Move-to-Root's crossing cost and zeta Splay's bookkeeping
    # cost, so the records already hold them when the algorithm matches.
    values: dict[str, object] = {}
    if "cost" in columns:
        values["cost"] = sum(r.cost for r in records)
    if "lambda" in columns:
        values["lambda"] = (sum(r.crossing for r in records) if args.algo == "mtr"
                            else crossing_bound(inst))
    if "lambda2" in columns:
        values["lambda2"] = sequence_crossing_bound(inst.requests)
    if "zeta" in columns:
        values["zeta"] = (sum(r.bookkeeping for r in records) if args.algo == "splay"
                          else splay_bookkeeping_cost(inst))
    if "opt" in columns:
        values["opt"] = _opt_text(inst)
    print("instance,m,n,algo," + ",".join(columns))
    row = [Path(args.instance).name, str(inst.m), str(inst.n), args.algo]
    row += [str(values[c]) for c in columns]
    print(",".join(row))
    return 0


def _opt_text(inst) -> str:
    """The oracle's cost, or an empty cell when the instance exceeds its guard."""
    try:
        return str(opt_cost(inst).cost)
    except GuardExceededError:
        return ""


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


def cmd_lambda_report(args: argparse.Namespace) -> int:
    instances = [(path, read_instance(path)) for path in args.instances]
    print("instance,m,n,cost_splay,lambda,lambda_prime,zeta,opt")
    for path, inst in instances:
        _, records = run_accesses(inst.initial, inst.requests, "splay")
        cost = sum(r.cost for r in records)
        lam_prime = sum(r.crossing for r in records)
        zeta = sum(r.bookkeeping for r in records)
        lam = crossing_bound(inst)
        opt = _opt_text(inst)
        print(f"{Path(path).name},{inst.m},{inst.n},{cost},{lam},{lam_prime},{zeta},{opt}")
    return 0


def cmd_opt_report(args: argparse.Namespace) -> int:
    instances = [(path, read_instance(path)) for path in args.instances]
    print("instance,m,n,opt,splay_cost,mtr_cost,lambda,splay_over_opt,lambda_over_opt")
    for path, inst in instances:
        splay_cost = sum(r.cost for r in run_accesses(inst.initial, inst.requests, "splay")[1])
        _, mtr_records = run_accesses(inst.initial, inst.requests, "mtr")
        mtr_cost = sum(r.cost for r in mtr_records)
        lam = sum(r.crossing for r in mtr_records)  # the crossing bound
        try:
            opt = opt_cost(inst).cost
            ratios = f"{splay_cost / opt:.4f},{lam / opt:.4f}"
            opt_text = str(opt)
        except GuardExceededError:
            opt_text, ratios = "", ","
        print(
            f"{Path(path).name},{inst.m},{inst.n},{opt_text},{splay_cost},{mtr_cost},{lam},{ratios}"
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
        "lambda-report": cmd_lambda_report,
        "opt-report": cmd_opt_report,
    }
    try:
        return handlers[args.command](args)
    except UsageError as err:
        print(f"splaylab {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
