#!/usr/bin/env python3
"""Exact-count guard for the perfbench program (hulkv_perfbench).

Usage: count_guard.py <path to hulkv_perfbench>

The simulator counts a traced run prints (instructions, cycles,
translations, cache ratios, snapshot bytes, ...) are a pure function of
the workload and seed. This checks that two traced runs at one seed
print identical counts on every workload; that a second seed leaves the
host_sweep counts unchanged, because the catalogue programs have fixed
seeds; and that it does change the cluster_offload inputs. It also
checks that every run prints exactly the metrics BENCHMARK.json names
for its mode, each in its unit: end_to_end untraced, per_layer traced.
"""

import json
import subprocess
import sys
from pathlib import Path

OUT_DIR = "count_guard"
MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
COUNTS = {
    "host_sweep": [
        "host.instret", "host.sim_cycles", "isa.translations",
        "isa.fact_proven_blocks", "mem.l1d_miss_ratio", "mem.llc_hit_ratio",
        "mem.hyperram_busy_cycles"],
    "cluster_offload": [
        "cluster.instret", "cluster.kernel_cycles",
        "cluster.tcdm_conflict_ratio", "cluster.fact_eligible_blocks",
        "runtime.code_load_cycles"],
    "serve_mixed": ["snapshot.bytes", "serve.warm_pool_cold_builds"],
}


def run(binary, workload, seed, trace):
    """Metrics of one short run, checked against the manifest. Outputs go
    to a directory next to the binary, named relative to it so the serve
    socket path stays short."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "2", "--trace", str(trace), "--out-dir", OUT_DIR],
        check=True, stdout=subprocess.PIPE, text=True,
        cwd=Path(binary).resolve().parent).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    specs = json.loads(MANIFEST.read_text())[
        "per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {spec["name"]: spec["unit"] for spec in specs}
    assert printed == wanted, (f"{workload} --trace {trace}: printed "
                               f"{printed}, manifest {wanted}")
    return result["metrics"]


def traced_run(binary, workload, seed):
    """Counts and trace otherData of one short traced run."""
    metrics = run(binary, workload, seed, 1)
    trace = (Path(binary).resolve().parent / OUT_DIR /
             f"{workload}-seed{seed}.json")
    counts = {name: metrics[name]["value"] for name in COUNTS[workload]}
    return counts, json.loads(trace.read_text())["otherData"]


def main():
    binary = sys.argv[1]
    failures = []
    for workload in COUNTS:
        run(binary, workload, 1, 0)
        first, first_meta = traced_run(binary, workload, 1)
        again, again_meta = traced_run(binary, workload, 1)
        if first != again or first_meta != again_meta:
            failures.append(f"{workload}: seed 1 twice: {first} "
                            f"{first_meta} != {again} {again_meta}")
        other, other_meta = traced_run(binary, workload, 2)
        if workload == "host_sweep" and other != first:
            failures.append(f"host_sweep: seed 2 moved counts: {first} "
                            f"!= {other}")
        if (workload == "cluster_offload" and
                other_meta["input_digest"] == first_meta["input_digest"]):
            failures.append("cluster_offload: seed 2 left the inputs "
                            "unchanged")
        print(f"{workload}: {first}")
    for failure in failures:
        print("FAIL", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
