// Regenerates Fig. 8: the five IoT CPU-centric benchmarks on the four
// memory configurations, normalised to DDR4+LLC. The paper's claim:
// with the LLC, HyperRAM and DDR4 are "closer than 5%" — LPDDR/DDR
// memories would be oversized for these workloads.
#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "report/report.hpp"

namespace {

using namespace hulkv;

/// Fig. 8 runs the IoT catalogue at 4x the serve daemon's footprints.
constexpr u32 kFootprintScale = 4;

Cycles run_on(u8 workload, core::MainMemoryKind kind, bool llc) {
  core::SocConfig cfg;
  cfg.main_memory = kind;
  cfg.enable_llc = llc;
  core::HulkVSoc soc(cfg);
  const kernels::IotWorkload w =
      kernels::setup_iot_workload(workload, kFootprintScale, soc);
  // Steady-state measurement: warm run, then the timed run (benchmarks
  // are conventionally repeated; the caches stay warm across runs).
  kernels::run_host_program(soc, w.program, w.args);
  return kernels::run_host_program(soc, w.program, w.args).cycles;
}

report::MetricsReport build_report(const report::BenchOptions& options) {
  report::MetricsReport rep("fig8_llc_effect");
  rep.add_note("Fig. 8 — Last Level Cache effect on IoT benchmarks. "
               "Execution time normalised to DDR4+LLC (lower is better).");

  report::Table& table = rep.add_table(
      "normalised execution time",
      {"benchmark", "ddr4_llc", "hyper_llc", "ddr4", "hyper",
       "hyper_llc_gap_pct"});
  // One job per (workload, memory configuration) point on the sweep
  // pool; rows assemble from the result slots in grid order.
  constexpr std::array<std::pair<core::MainMemoryKind, bool>, 4> kConfigs = {
      std::pair{core::MainMemoryKind::kDdr4, true},
      std::pair{core::MainMemoryKind::kHyperRam, true},
      std::pair{core::MainMemoryKind::kDdr4, false},
      std::pair{core::MainMemoryKind::kHyperRam, false}};
  const batch::SweepEngine engine(options.jobs);
  const std::vector<Cycles> cycles = engine.map<Cycles>(
      kernels::kNumIotWorkloads * kConfigs.size(), [&](u64 index) {
        const auto& [kind, llc] = kConfigs[index % kConfigs.size()];
        return run_on(static_cast<u8>(index / kConfigs.size()), kind, llc);
      });
  double worst_gap = 0;
  for (u8 row = 0; row < kernels::kNumIotWorkloads; ++row) {
    const Cycles* c = &cycles[row * kConfigs.size()];
    const double base = static_cast<double>(c[0]);
    const double gap = 100.0 * (c[1] / base - 1.0);
    worst_gap = std::max(worst_gap, gap);
    table.add_row({report::Value::text(kernels::iot_workload_name(row)),
                   report::Value::number(1.0, 3),
                   report::Value::number(c[1] / base, 3),
                   report::Value::number(c[2] / base, 3),
                   report::Value::number(c[3] / base, 3),
                   report::Value::number(gap, 2)});
  }
  rep.add_metric("worst_gap_pct", report::Value::number(worst_gap, 2), "%");
  rep.add_note("Shape check (paper): cases 1 and 2 are 'closer than 5%'. "
               "Worst measured gap: " + rep.metric_text("worst_gap_pct") +
               "%");
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  return hulkv::report::run_bench(argc, argv, build_report);
}
