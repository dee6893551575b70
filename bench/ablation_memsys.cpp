// Ablation studies on the design choices behind HULK-V's fully digital
// memory hierarchy (beyond the paper's reported configurations):
//
//  A. IoT-memory family: HyperRAM vs RPC DRAM ([8]) vs idealised DDR4,
//     with and without the LLC, on the synthetic benchmark.
//  B. LLC geometry: size and associativity sensitivity (section III-A's
//     parameterization).
//  C. HyperBUS controller knobs: burst length and refresh period.
//  D. SV39 MMU translation overhead (the cost of being Linux-capable),
//     TLB-size sensitivity.
//  E. Voltage/frequency corners of the GF22 implementation.
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "kernels/golden.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "common/rng.hpp"
#include "report/report.hpp"
#include "runtime/offload.hpp"
#include "power/power_model.hpp"

namespace {

using namespace hulkv;
namespace report = hulkv::report;

Cycles run_stride_on(core::SocConfig cfg, u32 stride, u32 reads = 1024,
                     u32 rounds = 10) {
  core::HulkVSoc soc(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  kernels::run_host_program(
      soc, kernels::host_stride_reads(stride, reads, 2), args);
  return kernels::run_host_program(
             soc, kernels::host_stride_reads(stride, reads, rounds),
             args)
      .cycles;
}

void memory_family_ablation(const batch::SweepEngine& engine,
                            report::MetricsReport& rep) {
  report::Table& table = rep.add_table(
      "A. IoT-memory family (cycles, stride benchmark)",
      {"memory", "llc", "fp_64kb", "fp_256kb", "fp_1mb"});
  struct Row {
    core::MainMemoryKind kind;
    const char* name;
    bool llc;
  };
  std::vector<Row> rows;
  for (const bool llc : {true, false}) {
    for (const auto& [kind, name] :
         {std::pair{core::MainMemoryKind::kHyperRam, "HyperRAM"},
          std::pair{core::MainMemoryKind::kRpcDram, "RPC-DRAM"},
          std::pair{core::MainMemoryKind::kDdr4, "DDR4"}}) {
      rows.push_back({kind, name, llc});
    }
  }
  const std::array<u32, 3> strides = {64, 256, 1024};
  const std::vector<Cycles> cycles = engine.map<Cycles>(
      rows.size() * strides.size(), [&](u64 index) {
        core::SocConfig cfg;
        cfg.main_memory = rows[index / strides.size()].kind;
        cfg.enable_llc = rows[index / strides.size()].llc;
        return run_stride_on(cfg, strides[index % strides.size()]);
      });
  for (size_t row = 0; row < rows.size(); ++row) {
    const Cycles* c = &cycles[row * strides.size()];
    table.add_row({report::Value::text(rows[row].name),
                   report::Value::text(rows[row].llc ? "yes" : "no"),
                   report::Value::uinteger(c[0]),
                   report::Value::uinteger(c[1]),
                   report::Value::uinteger(c[2])});
  }
  rep.add_note("A: RPC DRAM (x16 DDR + row buffers) lands between "
               "HyperRAM and the idealised DDR4, confirming the paper's "
               "'IoT memory family' framing.");
}

/// Rows of the single-column B/C tables: a label plus the config to run.
struct LabelledConfig {
  std::string label;
  core::SocConfig cfg;
  u32 stride;
};

void add_labelled_rows(const batch::SweepEngine& engine, report::Table& table,
                       const std::vector<LabelledConfig>& rows) {
  const std::vector<Cycles> cycles = engine.map<Cycles>(
      rows.size(),
      [&](u64 index) { return run_stride_on(rows[index].cfg,
                                            rows[index].stride); });
  for (size_t row = 0; row < rows.size(); ++row) {
    table.add_row({report::Value::text(rows[row].label),
                   report::Value::uinteger(cycles[row])});
  }
}

void llc_geometry_ablation(const batch::SweepEngine& engine,
                           report::MetricsReport& rep) {
  report::Table& table = rep.add_table(
      "B. LLC geometry (cycles, 96 kB-footprint stride benchmark on "
      "HyperRAM)",
      {"configuration", "cycles"});
  std::vector<LabelledConfig> rows;
  for (const u32 lines : {64u, 128u, 256u, 512u}) {
    core::SocConfig cfg;
    cfg.llc.num_lines = lines;
    rows.push_back({"size " + std::to_string(cfg.llc.size_bytes() / 1024) +
                        " kB (lines=" + std::to_string(lines) + ")",
                    cfg, 96});
  }
  for (const u32 ways : {1u, 2u, 8u}) {
    core::SocConfig cfg;
    cfg.llc.num_ways = ways;
    cfg.llc.num_lines = 2048 / ways;  // hold 128 kB constant
    rows.push_back(
        {"ways " + std::to_string(ways) + " (128 kB const)", cfg, 96});
  }
  add_labelled_rows(engine, table, rows);
}

void hyperbus_knobs_ablation(const batch::SweepEngine& engine,
                             report::MetricsReport& rep) {
  report::Table& table = rep.add_table(
      "C. HyperBUS controller knobs (cycles, 1 MB-footprint stream, no "
      "LLC)",
      {"configuration", "cycles"});
  std::vector<LabelledConfig> rows;
  for (const u32 burst : {64u, 128u, 256u, 512u, 1024u}) {
    core::SocConfig cfg;
    cfg.enable_llc = false;
    cfg.hyperram.max_burst_bytes = burst;
    rows.push_back({"max burst " + std::to_string(burst) + " B", cfg, 1024});
  }
  for (const Cycles refresh : {500u, 2000u, 4000u, 16000u}) {
    core::SocConfig cfg;
    cfg.enable_llc = false;
    cfg.hyperram.refresh_period = refresh;
    rows.push_back(
        {"refresh period " + std::to_string(refresh) + " cyc", cfg, 1024});
  }
  add_labelled_rows(engine, table, rows);
}

void mmu_ablation(const batch::SweepEngine& engine,
                  report::MetricsReport& rep) {
  // A 1 MB streaming footprint touches 256 data pages — far beyond the
  // TLB — so page-table-walk cost is visible; a 64 kB CRC (16 pages)
  // fits any TLB and shows the zero-overhead steady state.
  report::Table& table = rep.add_table(
      "D. SV39 MMU translation overhead (1 MB stream, 256 pages)",
      {"configuration", "cycles", "tlb_hit_ratio"});
  struct Point {
    Cycles cycles = 0;
    double hit_ratio = 0;
  };
  const std::array<u32, 4> tlb_grid = {0u, 4u, 16u, 64u};
  const std::vector<Point> points = engine.map<Point>(
      tlb_grid.size(), [&](u64 index) {
        const u32 tlb_entries = tlb_grid[index];
        core::SocConfig cfg;
        cfg.host.enable_mmu = tlb_entries > 0;
        if (tlb_entries > 0) cfg.host.tlb.entries = tlb_entries;
        core::HulkVSoc soc(cfg);
        const std::array<u64, 1> args = {core::layout::kSharedBase};
        kernels::run_host_program(
            soc, kernels::host_stride_reads(1024, 1024, 2), args);
        const auto run = kernels::run_host_program(
            soc, kernels::host_stride_reads(1024, 1024, 10), args);
        return Point{run.cycles, tlb_entries == 0
                                     ? 0.0
                                     : soc.host().dtlb()->hit_ratio()};
      });
  for (size_t row = 0; row < tlb_grid.size(); ++row) {
    if (tlb_grid[row] == 0) {
      table.add_row({report::Value::text("bare-metal (no MMU)"),
                     report::Value::uinteger(points[row].cycles),
                     report::Value::text("-")});
    } else {
      table.add_row(
          {report::Value::text("MMU on, " + std::to_string(tlb_grid[row]) +
                               "-entry TLB"),
           report::Value::uinteger(points[row].cycles),
           report::Value::number(points[row].hit_ratio, 3)});
    }
  }
}

void precision_ablation(const batch::SweepEngine& engine,
                        report::MetricsReport& rep) {
  // The mechanism behind Fig. 6 (section VI-A): reduced precision
  // unlocks the SIMD datapath. Same 48x48x64 matmul, int32 scalar
  // (p.mac) vs int8 SIMD (pv.sdotsp.b.ld + MAC&Load).
  report::Table& table = rep.add_table(
      "F. Reduced-precision ablation (48x48x64 matmul on the PMCA)",
      {"datapath", "kernel_cycles", "mac_per_cycle"});
  const u32 m = 48, n = 48, k = 64;
  const std::vector<Cycles> kernel_cycles = engine.map<Cycles>(
      2, [&](u64 index) {
        const bool reduced = index == 1;
        core::HulkVSoc soc;
        runtime::OffloadRuntime rt(&soc);
        Xoshiro256 rng(3);
        const u32 elem = reduced ? 1 : 4;
        const Addr pa = rt.hulk_malloc(u64{m} * k * elem);
        const Addr pbt = rt.hulk_malloc(u64{n} * k * elem);
        const Addr pc = rt.hulk_malloc(u64{m} * n * 4);
        std::vector<u8> junk(u64{n} * k * elem);
        for (auto& b : junk) b = static_cast<u8>(rng.next());
        soc.write_mem(pa, junk.data(), u64{m} * k * elem);
        soc.write_mem(pbt, junk.data(), u64{n} * k * elem);
        const u32 l1 = static_cast<u32>(mem::map::kTcdmBase) + 0x100;
        const std::array<u32, 6> args = {
            static_cast<u32>(pa),  static_cast<u32>(pbt),
            static_cast<u32>(pc),  l1,
            l1 + m * k * elem,     l1 + (m + n) * k * elem};
        const auto program = reduced ? kernels::cluster_matmul_i8(m, n, k)
                                     : kernels::cluster_matmul_i32(m, n, k);
        const auto handle =
            rt.register_kernel("mm", program.words, program.symbols);
        rt.preload(handle);
        return rt.offload(handle, args).kernel;
      });
  for (size_t row = 0; row < kernel_cycles.size(); ++row) {
    table.add_row(
        {report::Value::text(row == 1 ? "int8 SIMD + MAC&Load"
                                      : "int32 scalar p.mac"),
         report::Value::uinteger(kernel_cycles[row]),
         report::Value::number(static_cast<double>(u64{m} * n * k) /
                                   static_cast<double>(kernel_cycles[row]),
                               2)});
  }
}

void latency_ladder(const batch::SweepEngine& engine,
                    report::MetricsReport& rep) {
  // Pointer chase: load-to-use latency of each level of the hierarchy,
  // per memory configuration.
  report::Table& table = rep.add_table(
      "G. Load-to-use latency ladder (pointer chase, cycles/load)",
      {"footprint_kb", "ddr4_llc", "hyper_llc", "hyper"});
  const std::array<u64, 3> footprints = {16ull * 1024, 96ull * 1024,
                                         1024ull * 1024};
  constexpr std::array<std::pair<core::MainMemoryKind, bool>, 3> kLadder = {
      std::pair{core::MainMemoryKind::kDdr4, true},
      std::pair{core::MainMemoryKind::kHyperRam, true},
      std::pair{core::MainMemoryKind::kHyperRam, false}};
  const std::vector<double> cols = engine.map<double>(
      footprints.size() * kLadder.size(), [&](u64 index) {
        const u64 footprint = footprints[index / kLadder.size()];
        const auto& [kind, llc] = kLadder[index % kLadder.size()];
        core::SocConfig cfg;
        cfg.main_memory = kind;
        cfg.enable_llc = llc;
        core::HulkVSoc soc(cfg);
        // Build a line-granular ring with a large stride (defeats any
        // spatial locality) covering `footprint` bytes.
        const u64 slots = footprint / 64;
        const Addr base = core::layout::kSharedBase;
        Xoshiro256 rng(9);
        std::vector<u64> order(slots);
        for (u64 i = 0; i < slots; ++i) order[i] = i;
        for (u64 i = slots - 1; i > 0; --i) {
          std::swap(order[i], order[rng.next_below(i + 1)]);
        }
        for (u64 i = 0; i < slots; ++i) {
          const u64 next = base + order[(i + 1) % slots] * 64;
          soc.write_mem(base + order[i] * 64, &next, 8);
        }
        const u32 count = 4096;
        const auto prog = kernels::host_pointer_chase(count);
        const std::array<u64, 1> args = {base + order[0] * 64};
        kernels::run_host_program(soc, prog, args);  // warm
        const auto run = kernels::run_host_program(soc, prog, args);
        return static_cast<double>(run.cycles) / count;
      });
  for (size_t row = 0; row < footprints.size(); ++row) {
    const double* c = &cols[row * kLadder.size()];
    table.add_row({report::Value::uinteger(footprints[row] / 1024),
                   report::Value::number(c[0], 1),
                   report::Value::number(c[1], 1),
                   report::Value::number(c[2], 1)});
  }
}

report::MetricsReport build_report(const report::BenchOptions& options) {
  report::MetricsReport rep("ablation_memsys");
  rep.add_note("HULK-V design-choice ablations");
  const batch::SweepEngine engine(options.jobs);
  memory_family_ablation(engine, rep);
  llc_geometry_ablation(engine, rep);
  hyperbus_knobs_ablation(engine, rep);
  mmu_ablation(engine, rep);
  precision_ablation(engine, rep);
  latency_ladder(engine, rep);
  rep.add_note("E. Voltage/frequency corners (GF22 FDX):\n" +
               power::render_corner_table(power::PowerModel{}));
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  return hulkv::report::run_bench(argc, argv, build_report);
}
