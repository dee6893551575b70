#!/usr/bin/env python3
"""Steadiness mode: run each workload k times and report run-to-run spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs K] [workload ...]

Run i of a workload uses seed i (1..K) and the run length run_seconds of
BENCHMARK.json. For every end-to-end metric the table shows the median
of the K values, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median.
The bounds in BENCHMARK.json were set from these spreads; README.md
records the measured spreads next to the bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"
WORKLOADS = ("host_sweep", "cluster_offload", "serve_mixed")


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, center, q3 = statistics.quantiles(values, n=4)
    return center, q1, q3, (q3 - q1) / center if center else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr,
                  flush=True)
        print(f"{workload}: {args.runs} runs x {seconds} s")
        print(f"  {'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}")
        for name in runs[0]:
            center, q1, q3, rel = spread([r[name] for r in runs])
            print(f"  {name:<32}{center:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{rel:>8.1%}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
