"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py --seed 1 --seconds 20

Runs ``perfbench/run.py`` once untraced and once traced per workload, one
run at a time, and prints one line per metric: workload, metric, value,
unit.  Exits 1 if any run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith("# FAILED") or line.startswith("# known defect"):
                    print(f"{workload} {line[2:]}")
            if not result["correct"]:
                status = 1
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
