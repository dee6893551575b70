// The three perfbench workloads. Each runs through libhulkv's public
// APIs only, checks every op's output, and returns the end-to-end
// metrics (tracing off) or the per-layer metrics (tracing on).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/workload.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for run outputs: the traced run's Chrome trace and the
  /// serve workload's Unix socket. Relative paths keep the socket path
  /// within the sun_path limit.
  std::string out_dir = ".";
};

/// Chrome-trace file of a traced run: <out_dir>/<workload>-seed<n>.json.
inline std::string trace_path(const Options& options) {
  return options.out_dir + "/" + options.workload + "-seed" +
         std::to_string(options.seed) + ".json";
}

struct RunResult {
  bool correct = true;  // set-up checks passed and no op failed
  Tally tally;
  std::vector<Metric> metrics;
};

/// Rounds of the 30-point serve grid (5 catalogue programs x 3 main
/// memories x LLC on/off), a fresh HulkVSoc per point, on one thread.
RunResult run_host_sweep(const Options& options);

/// Seeded-input offloads of five PMCA kernels on one SoC + runtime,
/// each result compared with kernels::golden.
RunResult run_cluster_offload(const Options& options);

/// An in-process serve::Server driven by a closed-loop generator of
/// cached and no-cache kRun requests.
RunResult run_serve_mixed(const Options& options);

/// The 30 points of the serve catalogue: every workload x main memory
/// (HyperRAM, DDR4, RPC-DRAM) x LLC off/on.
inline std::vector<hulkv::serve::PointParams> catalogue_grid() {
  std::vector<hulkv::serve::PointParams> grid;
  for (u8 w = 0; w < hulkv::serve::workload_count(); ++w) {
    for (u8 mem = 0; mem < 3; ++mem) {
      for (u8 llc = 0; llc < 2; ++llc) grid.push_back({w, mem, llc});
    }
  }
  return grid;
}

/// The end-to-end metrics of BENCHMARK.json, printed by every workload
/// with tracing off. Each means the same on all three workloads.
inline const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"sim_mips", "MIPS"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics of BENCHMARK.json, printed by every workload
/// with tracing on. A layer a workload never calls reads 0 there.
inline const std::vector<MetricSpec> kPerLayer = {
    {"traced.ops_per_s", "1/s"},
    {"trace.op_coverage_min", "ratio"},
    {"core.soc_build_ms", "ms"},
    {"kernels.setup_ms", "ms"},
    {"analysis.prepare_ms", "ms"},
    {"host.run_ms.crc32", "ms"},
    {"host.run_ms.fir", "ms"},
    {"host.run_ms.sort", "ms"},
    {"host.run_ms.histogram", "ms"},
    {"host.run_ms.strsearch", "ms"},
    {"host.instret", "count"},
    {"host.sim_cycles", "cycles"},
    {"isa.translations", "count"},
    {"isa.fact_proven_blocks", "count"},
    {"mem.l1d_miss_ratio", "ratio"},
    {"mem.llc_hit_ratio", "ratio"},
    {"mem.hyperram_busy_cycles", "cycles"},
    {"runtime.register_ms", "ms"},
    {"runtime.offload_ms.matmul_i8", "ms"},
    {"runtime.offload_ms.conv3x3_i8", "ms"},
    {"runtime.offload_ms.fir_i8", "ms"},
    {"runtime.offload_ms.matmul_f16", "ms"},
    {"runtime.offload_ms.dotp_f16", "ms"},
    {"cluster.instret", "count"},
    {"cluster.kernel_cycles", "cycles"},
    {"cluster.tcdm_conflict_ratio", "ratio"},
    {"cluster.fact_eligible_blocks", "count"},
    {"runtime.code_load_cycles", "cycles"},
    {"serve.cache_lookup_us", "us"},
    {"serve.warm_fork_ms", "ms"},
    {"serve.execute_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.wire_us", "us"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.miss_p90_ms", "ms"},
    {"serve.hit_p50_us", "us"},
    {"serve.hit_p99_us", "us"},
    {"snapshot.capture_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.warm_pool_cold_builds", "count"},
};

/// Set-up repetitions per run: setup_s is their median.
inline constexpr int kSetupRepeats = 7;

/// Deterministic Fisher-Yates shuffle of `order` driven by `rng`.
template <typename T, typename Rng>
void shuffle(std::vector<T>& order, Rng& rng) {
  for (size_t i = order.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.next_below(i));
    std::swap(order[i - 1], order[j]);
  }
}

}  // namespace perfbench
