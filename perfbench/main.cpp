// hulkv_perfbench: runs one workload for a fixed wall-clock window and
// prints the result as one JSON line (the last line of stdout).
//
//   hulkv_perfbench --workload <host_sweep|cluster_offload|serve_mixed>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 records spans
// around the calls into each simulator layer and prints the per-layer
// metrics instead, 0 for a layer the workload never calls. Among them
// is the traced run's own ops_per_s, whose distance to the untraced
// figure is the tracing overhead. The spans are written as a Chrome
// trace to <out-dir>/<workload>-seed<n>.json.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  hulkv::u32 trace = 0;
  hulkv::cli::Parser parser("hulkv_perfbench",
                            "run one perfbench workload, print its result");
  parser
      .add_string("--workload", &options.workload,
                  "host_sweep | cluster_offload | serve_mixed")
      .add_u64("--seed", &options.seed, "seed of the workload's inputs")
      .add_double("--seconds", &options.seconds, "timed window (s)")
      .add_u32("--trace", &trace, "0: end-to-end metrics, 1: per-layer")
      .add_string("--out-dir", &options.out_dir,
                  "directory for the trace file and the serve socket");
  if (!parser.parse(argc, argv) || trace > 1 || !(options.seconds > 0.0)) {
    std::fprintf(stderr, "%s\n%s",
                 parser.error().empty()
                     ? "hulkv_perfbench: --trace takes 0 or 1 and "
                       "--seconds must be positive"
                     : parser.error().c_str(),
                 parser.usage().c_str());
    return 2;
  }
  options.trace = trace == 1;

  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "host_sweep") {
      result = perfbench::run_host_sweep(options);
    } else if (options.workload == "cluster_offload") {
      result = perfbench::run_cluster_offload(options);
    } else if (options.workload == "serve_mixed") {
      result = perfbench::run_serve_mixed(options);
    } else {
      std::fprintf(stderr, "hulkv_perfbench: unknown --workload '%s'\n%s",
                   options.workload.c_str(), parser.usage().c_str());
      return 2;
    }
    result.metrics = perfbench::conform(
        result.metrics,
        options.trace ? perfbench::kPerLayer : perfbench::kEndToEnd,
        options.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hulkv_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", perfbench::result_json(result.correct, result.tally,
                                             result.metrics)
                          .c_str());
  return result.correct ? 0 : 1;
}
