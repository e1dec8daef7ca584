"""splaylab benchmark runner.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The runner imports ``splaylab`` from
``src/``, generates the workload's inputs from the seed, and repeats the
workload's round, a fixed sequence of calls into splaylab, until the rounds
have taken ``--seconds`` seconds.  Every round starts with splaylab's
``lru_cache`` tables cleared, as in a fresh ``splaylab`` process, so filling
them is part of the timed work.  The outputs of the first round are checked
against independent references; later rounds must repeat its work counters
and result digest exactly.

Every timing is reported at the host's uncontended speed: the stretches
between readings of a fixed reference routine, taken before and after each
round and every half second within it, are scaled by the readings at their
ends (see ``hostspeed`` and ``tracing.Watch``).  The raw median round is
printed alongside.

``--trace 0`` prints the end-to-end metrics: the median round's wall time
and work rate, the median of several set-ups (importing splaylab and generating every
input, each but one in a fresh interpreter) and the peak resident set.
``--trace 1`` alternates untraced and traced rounds, prints the per-layer
metrics from the traced rounds' spans and stack samples, and writes the
spans to ``.bench_out/``.  Metric names and units come from
``BENCHMARK.json``.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import hostspeed
from tracing import Recorder, Span, Watch, metric_times
from workloads import WORKLOADS, Expect, deep_spine, scratch_dir

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splaylab"
MODULES = ("tree", "algorithms", "model", "wilber", "transforms", "opt", "families",
           "probes", "suites", "cli")
SETUP_REPEATS = 7

# Per-layer ratios: (numerator metrics in seconds, denominator counter, scale).
RATIOS = {
    "algorithms.ns_per_path_node": (
        ("algorithms.splay_s", "algorithms.mtr_s", "algorithms.tds_s",
         "algorithms.splay_spine_s", "algorithms.tds_spine_s"), "algorithms.path_nodes", 1e9),
    "tree.ns_per_subtree_node": (
        ("tree.root_subtree_s", "tree.substitute_s"), "tree.subtree_nodes", 1e9),
    "model.ns_per_transition_node": (
        ("model.algorithm_trace_s", "model.validate_s"), "model.transition_nodes", 1e9),
    "opt.us_per_state": (("opt.opt_cost_s",), "opt.states_expanded", 1e6),
}


@dataclass
class Round:
    traced: bool
    wall: float  # raw seconds, host-speed readings left out
    cpu: float  # raw seconds
    scale: float  # brings the raw seconds to reference speed
    ops: int
    spans: list[Span]
    watch: Watch


def set_up(workload, seed: int, rec: Recorder, scratch: Path):
    """Import splaylab and generate the workload's inputs; returns the raw
    seconds taken, the factor to reference speed, the modules and the inputs."""
    before = hostspeed.sample()
    start = time.perf_counter()
    importlib.import_module("splaylab")
    lab = SimpleNamespace(**{m: importlib.import_module(f"splaylab.{m}") for m in MODULES})
    inputs = workload.setup(lab, seed, rec, scratch)
    seconds = time.perf_counter() - start
    return seconds, hostspeed.scale(before + hostspeed.sample()), lab, inputs


def set_up_elsewhere(args) -> float:
    """Set-up seconds measured in a fresh interpreter, which pays for a cold
    import as a user's first call does."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def stretches(readings) -> tuple[float, float]:
    """Raw and reference-speed seconds of the stretches between host-speed
    readings; each stretch is scaled by the readings at its two ends."""
    raw = scaled = 0.0
    for (_, start, left), (end, _, right) in zip(readings, readings[1:]):
        raw += end - start
        scaled += (end - start) * hostspeed.scale(left + right)
    return raw, scaled


def clear_caches(lab: SimpleNamespace) -> None:
    for module in vars(lab).values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def git_commit() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:  # not a git checkout
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no splaylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    scratch = scratch_dir(ROOT)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    rec = Recorder(run_id)
    if args.setup_only:
        seconds, scale, _, _ = set_up(workload, args.seed, rec, scratch)
        print(seconds * scale)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = os.getloadavg()[0]
    setup_times = [set_up_elsewhere(args) for _ in range(SETUP_REPEATS - 1)]
    rec.traced = bool(args.trace)
    with rec.phase("setup"):
        seconds, setup_scale, lab, inputs = set_up(workload, args.seed, rec, scratch)
    setup_times.append(seconds * setup_scale)
    setup_spans = list(rec.spans)

    expect = Expect()
    rounds: list[Round] = []
    first = None
    while not rounds or sum(r.wall for r in rounds) < args.seconds or (
            args.trace and len(rounds) < 2):
        rec.traced = bool(args.trace) and len(rounds) % 2 == 1
        clear_caches(lab)
        gc.collect()
        n_spans = len(rec.spans)
        cpu0, start = time.process_time(), time.perf_counter()
        with Watch(PACKAGE, sampling=rec.traced) as watch, rec.phase("round"):
            try:
                results = workload.run(lab, inputs, rec)
            except Exception as err:  # a failed round is counted; the run goes on
                rec.failures.append(f"round: {type(err).__name__}: {str(err)[:120]}")
                results = None
        end, cpu = time.perf_counter(), time.process_time() - cpu0
        wall, scaled = stretches(watch.readings)
        cpu -= end - start - wall  # the readings
        try:
            ops, counters = workload.work(inputs, results)
            summary = (counters, digest(workload.values(lab, results)))
        except Exception as err:  # outputs missing after a failed call
            ops, summary = 0, None
            rec.failures.append(f"summary: {type(err).__name__}: {str(err)[:120]}")
        if first is None:
            first = summary
            if summary is not None:
                workload.check(lab, inputs, results, expect)
        else:
            expect(f"round {len(rounds)} repeats the first round's counters and digest",
                   lambda: summary == first)
        rounds.append(Round(rec.traced, wall, cpu, scaled / wall, ops, rec.spans[n_spans:],
                            watch))
        results = None

    # Read before the known-defect check below, which is no part of the
    # workload and would hold its traces once the defect is fixed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spine = deep_spine(lab)
    load_end = os.getloadavg()[0]
    counters, result_digest = first if first is not None else ({}, "none")
    attempted = rec.calls + expect.attempted
    failed = len(rec.failures) + len(expect.failed)
    plain = [r for r in rounds if not r.traced]

    if args.trace:
        values = per_layer_values(rounds, setup_spans, setup_scale, counters)
        values["checks.deep_spine_failures"] = len(spine.failed)
        values["checks.failed_ratio"] = (
            (failed + len(spine.failed)) / (attempted + spine.attempted))
        wanted = spec["per_layer"]
        rec.write(scratch / f"spans-{args.workload}-seed{args.seed}.jsonl", {
            "workload": args.workload, "seed": args.seed, "commit": git_commit(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
        })
    else:
        values = {
            "wall_s": statistics.median(r.wall * r.scale for r in plain),
            "ops_per_s": statistics.median(r.ops / (r.wall * r.scale) for r in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]

    print(f"# splaylab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} run_id={run_id}")
    print(f"# provenance: commit={git_commit()} python={platform.python_version()} "
          f"nproc={os.cpu_count()} loadavg_1m_start={load_start:.2f} "
          f"loadavg_1m_end={load_end:.2f}")
    print(f"# rounds={len(rounds)} digest={result_digest} "
          f"counters={json.dumps(counters, sort_keys=True)}")
    print(f"# median round wall_s={statistics.median(r.wall for r in plain):.4f}; round wall_s: "
          + " ".join(f"{r.wall:.3f}{'t' if r.traced else ''}" for r in rounds)
          + "; at reference speed: " + " ".join(f"{r.wall * r.scale:.3f}" for r in rounds)
          + "; setup_s: " + " ".join(f"{s:.3f}" for s in setup_times))
    for line in rec.failures + expect.failed:
        print(f"# FAILED: {line}")
    for line in spine.failed:
        print(f"# known defect (ROADMAP item 4), outside the timed phase: {line}")
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], 0.0)  # 0 for a layer this workload never calls
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_values(rounds: list[Round], setup_spans: list[Span], setup_scale: float,
                     counters: dict) -> dict:
    """Medians over the traced rounds, at reference speed, of the span times
    per metric and of each module's busy and self time (its share of the
    stack samples times the round's time); then the exact counters and the
    ratios built from both."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    samples: dict[str, list[float]] = {}
    for r in traced:
        times = metric_times(r.spans)
        per_sample = r.wall / max(r.watch.samples, 1)
        for module in MODULES:
            times[f"{module}.busy_s"] = r.watch.busy[module] * per_sample
            times[f"{module}.self_s"] = r.watch.own[module] * per_sample
        times["opt.call_max_ms"] = 1e3 * max(
            (s.seconds for s in r.spans if s.name == "opt.opt_cost"), default=0.0)
        times["run.cpu_s"] = r.cpu
        for name, seconds in times.items():
            samples.setdefault(name, []).append(seconds * r.scale)
    values = {name: statistics.median(v) for name, v in samples.items()}
    # Families works mostly in the set-up, outside the rounds.
    values["families.generate_s"] = setup_scale * sum(
        s.seconds for s in setup_spans if s.layer == "families")
    values["run.stack_samples"] = statistics.median(r.watch.samples for r in traced)
    values.update(counters)
    for name, (parts, denominator, scale) in RATIOS.items():
        count = counters.get(denominator, 0)
        values[name] = scale * sum(values.get(p, 0.0) for p in parts) / count if count else 0.0
    values["run.trace_overhead_frac"] = (
        statistics.median(r.wall * r.scale for r in traced)
        / statistics.median(r.wall * r.scale for r in plain) - 1)
    return values


if __name__ == "__main__":
    sys.exit(main())
