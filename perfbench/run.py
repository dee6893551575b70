#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <host_sweep|cluster_offload|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds libhulkv plus hulkv_perfbench in
.bench_build/perfbench (Release); later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the JSON
result of hulkv_perfbench. Exits non-zero, without a result, when the
simulator sources are missing or the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = Path(".bench_build") / "out"  # relative: keeps socket paths short
BINARY = BUILD_DIR / "hulkv_perfbench"
WORKLOADS = ("host_sweep", "cluster_offload", "serve_mixed")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; nothing to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "hulkv_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    run = subprocess.run([str(BINARY), "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace),
                          "--out-dir", str(OUT_DIR)])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
