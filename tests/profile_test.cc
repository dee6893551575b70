// Cycle-attribution profiler tests (hulkv::profile, DESIGN.md §12).
//
// The headline invariant is exact conservation: per core, the per-block
// cycle accumulators sum to the total profiled cycles and the per-reason
// stall totals match the per-instruction stall rows. These tests verify
// it in-process for host and offload workloads, re-run every figure
// bench under --profile (each enforces conservation before exiting),
// and pin the folded-stack output for one kernel against a golden file.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/host_kernels.hpp"
#include "kernels/kernel.hpp"
#include "profile/profile.hpp"
#include "runtime/offload.hpp"

namespace {

using namespace hulkv;

// Bench binary / test data locations, injected by tests/CMakeLists.txt.
#ifndef HULKV_BENCH_DIR
#define HULKV_BENCH_DIR "."
#endif
#ifndef HULKV_TEST_DATA_DIR
#define HULKV_TEST_DATA_DIR "."
#endif

/// Every test runs against the process-global session; start and end
/// each one from a clean, disabled slate.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profile::session().reset();
    profile::session().disable();
  }
  void TearDown() override {
    profile::session().reset();
    profile::session().disable();
  }
};

TEST_F(ProfileTest, DisabledByDefaultAndAttachReturnsNull) {
  EXPECT_FALSE(profile::enabled());
  profile::Handle h;
  EXPECT_EQ(profile::attach(h, "cva6"), nullptr);
  // add() outside any bracket is a no-op, not a crash.
  profile::add(profile::Reason::kLlcWait, 123);
}

TEST_F(ProfileTest, HostRunConservesEveryCycle) {
  profile::session().enable();
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  const auto program = kernels::host_axpy_f32(512);
  // args: x buffer, y buffer, pointer to alpha.
  const auto run = kernels::run_host_program(
      soc, program,
      std::array<u64, 3>{core::layout::kSharedBase,
                         core::layout::kSharedBase + 8 * 1024,
                         core::layout::kSharedBase + 16 * 1024});
  ASSERT_GT(run.cycles, 0u);

  profile::CoreProfile* prof = profile::session().find_core("cva6");
  ASSERT_NE(prof, nullptr);
  // Total attributed cycles equal the core's measured wall cycles —
  // nothing lost, nothing invented.
  EXPECT_EQ(prof->total_cycles(), run.cycles);
  EXPECT_EQ(profile::session().check_conservation(), "");
  // The workload streams from external memory, so the taxonomy must
  // show dcache-miss stalls, and stalls can never exceed cycles.
  EXPECT_GT(prof->reason_total(profile::Reason::kHostDcacheMiss), 0u);
  EXPECT_LE(prof->total_stalls(), prof->total_cycles());
}

TEST_F(ProfileTest, OffloadRunConservesAcrossClusterCores) {
  profile::session().enable();
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  runtime::OffloadRuntime rt(&soc);
  const auto program = kernels::cluster_axpy_f32(1024);
  const Addr x = rt.hulk_malloc(4096), y = rt.hulk_malloc(4096);
  const u32 x_l1 = static_cast<u32>(mem::map::kTcdmBase) + 0x100;
  const auto handle =
      rt.register_kernel(program.name, program.words, program.symbols);
  const auto result = rt.offload(
      handle, std::array<u32, 5>{static_cast<u32>(x), static_cast<u32>(y),
                                 0x3f800000u, x_l1, x_l1 + 4096});
  ASSERT_GT(result.kernel, 0u);

  EXPECT_EQ(profile::session().check_conservation(), "");
  // All eight PMCA cores executed and were attributed.
  u64 cluster_cycles = 0;
  for (u32 c = 0; c < 8; ++c) {
    profile::CoreProfile* prof =
        profile::session().find_core("pmca_core" + std::to_string(c));
    ASSERT_NE(prof, nullptr) << "core " << c;
    EXPECT_GT(prof->total_cycles(), 0u) << "core " << c;
    cluster_cycles += prof->total_cycles();
  }
  EXPECT_GT(cluster_cycles, 0u);
  // Cluster PCs resolve through the registered kernel image symbols.
  bool symbolized = false;
  profile::CoreProfile* core0 = profile::session().find_core("pmca_core0");
  for (const auto& [start, bp] : core0->blocks()) {
    const profile::Symbol sym = profile::session().symbolize(start);
    if (sym.known && sym.program == program.name) symbolized = true;
  }
  EXPECT_TRUE(symbolized);
}

TEST_F(ProfileTest, SymbolizationRoundTrip) {
  profile::session().enable();
  isa::Assembler a(0x1000, /*rv64=*/true);
  using namespace isa::reg;
  a.li(t0, 3);
  a.label("inner");
  a.addi(t0, t0, -1);
  a.bnez(t0, "inner");
  a.label("tail");
  a.addi(t1, t1, 1);
  const std::vector<u32> words = a.assemble();
  const auto symbols = a.symbols();

  profile::session().register_symbols(0x1000, words.size() * 4, "demo",
                                      symbols);
  // Offset 0 falls under the synthesized program-entry symbol.
  const profile::Symbol entry = profile::session().symbolize(0x1000);
  ASSERT_TRUE(entry.known);
  EXPECT_EQ(entry.program, "demo");
  // li may expand to more than one word, so resolve labels by table.
  u64 inner_off = 0, tail_off = 0;
  for (const auto& [name, off] : symbols) {
    if (name == "inner") inner_off = off;
    if (name == "tail") tail_off = off;
  }
  ASSERT_GT(tail_off, inner_off);
  const profile::Symbol mid =
      profile::session().symbolize(0x1000 + inner_off + 4);
  ASSERT_TRUE(mid.known);
  EXPECT_EQ(mid.label, "inner");
  EXPECT_EQ(mid.offset, 4u);
  const profile::Symbol tail = profile::session().symbolize(0x1000 + tail_off);
  ASSERT_TRUE(tail.known);
  EXPECT_EQ(tail.label, "tail");
  EXPECT_EQ(tail.offset, 0u);
  // Outside any registered range.
  EXPECT_FALSE(profile::session().symbolize(0x9000'0000ull).known);

  // Re-registering an overlapping range replaces the old entries (the
  // L2 arena recycles kernel-image addresses).
  profile::session().register_symbols(0x1000, words.size() * 4, "demo2", {});
  const profile::Symbol replaced = profile::session().symbolize(0x1000 + 4);
  ASSERT_TRUE(replaced.known);
  EXPECT_EQ(replaced.program, "demo2");
}

TEST_F(ProfileTest, RegisterSymbolsIsNoOpWhileDisabled) {
  profile::session().register_symbols(0x1000, 64, "ghost",
                                      {{"label", 0}});
  profile::session().enable();
  EXPECT_FALSE(profile::session().symbolize(0x1000).known);
}

TEST_F(ProfileTest, ProfilingDoesNotPerturbTimingOrDigest) {
  // A host program, then an offload across all eight cluster cores:
  // both ISSs run their profiled loop against their unprofiled one.
  const auto run_workload = [](bool profiled) {
    if (profiled) profile::session().enable();
    core::SocConfig cfg;
    core::HulkVSoc soc(cfg);
    const auto program = kernels::host_fir_i32(256, 8);
    const auto run = kernels::run_host_program(
        soc, program,
        std::array<u64, 3>{core::layout::kSharedBase,
                           core::layout::kSharedBase + 4096,
                           core::layout::kSharedBase + 8192});
    runtime::OffloadRuntime rt(&soc);
    const auto kernel = kernels::cluster_axpy_f32(1024);
    const Addr x = rt.hulk_malloc(4096), y = rt.hulk_malloc(4096);
    const u32 x_l1 = static_cast<u32>(mem::map::kTcdmBase) + 0x100;
    const auto handle =
        rt.register_kernel(kernel.name, kernel.words, kernel.symbols);
    const auto offload = rt.offload(
        handle, std::array<u32, 5>{static_cast<u32>(x), static_cast<u32>(y),
                                   0x3f800000u, x_l1, x_l1 + 4096});
    if (profiled) {
      EXPECT_NE(profile::session().find_core("pmca_core7"), nullptr);
      profile::session().reset();
      profile::session().disable();
    }
    return std::tuple<Cycles, Cycles, u64>(run.cycles, offload.kernel,
                                           soc.state_digest());
  };
  const auto plain = run_workload(false);
  const auto profiled = run_workload(true);
  // The profiler is observational: identical cycles, identical digest.
  EXPECT_EQ(std::get<0>(plain), std::get<0>(profiled));
  EXPECT_GT(std::get<1>(plain), 0u);
  EXPECT_EQ(std::get<1>(plain), std::get<1>(profiled));
  EXPECT_EQ(std::get<2>(plain), std::get<2>(profiled));
}

TEST_F(ProfileTest, SnapshotRestoreDigestsMatchProfilingOnOrOff) {
  const auto capture = [] {
    core::SocConfig cfg;
    core::HulkVSoc soc(cfg);
    // Warm the SoC, then snapshot it.
    const auto warm = kernels::host_axpy_f32(64);
    kernels::run_host_program(
        soc, warm,
        std::array<u64, 3>{core::layout::kSharedBase,
                           core::layout::kSharedBase + 1024,
                           core::layout::kSharedBase + 2048});
    return batch::SocSnapshot::capture(soc);
  };
  const auto restore_and_run = [](const batch::SocSnapshot& snap,
                                  bool profiled) {
    if (profiled) profile::session().enable();
    core::SocConfig cfg;
    core::HulkVSoc soc(cfg);
    snap.restore_into(soc);
    const auto program = kernels::host_dotp_f32(256);
    const auto run = kernels::run_host_program(
        soc, program,
        std::array<u64, 3>{core::layout::kSharedBase,
                           core::layout::kSharedBase + 2048,
                           core::layout::kSharedBase + 4096});
    if (profiled) {
      // Restored SoCs profile too (raw PCs — symbols are host-side
      // metadata, deliberately not part of the snapshot).
      EXPECT_NE(profile::session().find_core("cva6"), nullptr);
      EXPECT_EQ(profile::session().check_conservation(), "");
      profile::session().reset();
      profile::session().disable();
    }
    return std::pair<Cycles, u64>(run.cycles, soc.state_digest());
  };
  const batch::SocSnapshot snap = capture();
  const auto plain = restore_and_run(snap, false);
  const auto profiled = restore_and_run(snap, true);
  EXPECT_EQ(plain.first, profiled.first);
  EXPECT_EQ(plain.second, profiled.second);
}

TEST_F(ProfileTest, BatchRefusesMultiWorkerRunsWhileProfiling) {
  profile::session().enable();
  // Serial path stays allowed (this is what --profile --jobs 1 uses).
  u64 ran = 0;
  batch::run_jobs(3, 1, [&](u64) { ++ran; });
  EXPECT_EQ(ran, 3u);
  // Worker pools are refused with a clear error while collecting.
  EXPECT_THROW(batch::run_jobs(4, 2, [](u64) {}), SimError);
  // ...and allowed again once profiling is off.
  profile::session().reset();
  profile::session().disable();
  batch::run_jobs(4, 2, [&](u64) { ++ran; });
  EXPECT_EQ(ran, 7u);
}

TEST_F(ProfileTest, FoldedStackMatchesGolden) {
  profile::session().enable();
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  const auto program = kernels::host_matmul_i32(8, 8, 8);
  kernels::run_host_program(
      soc, program,
      std::array<u64, 3>{core::layout::kSharedBase,
                         core::layout::kSharedBase + 4096,
                         core::layout::kSharedBase + 8192});
  std::ostringstream folded;
  profile::session().write_folded(folded);

  const std::string golden_path =
      std::string(HULKV_TEST_DATA_DIR) + "/golden/profile_matmul.folded";
  // After an intentional timing-model change, regenerate with
  // HULKV_REGEN_GOLDEN=1 set in the environment:
  //   build/tests/profile_test --gtest_filter='*FoldedStackMatchesGolden*'
  if (std::getenv("HULKV_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << folded.str();
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream golden_file(golden_path);
  ASSERT_TRUE(golden_file.good()) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << golden_file.rdbuf();
  // Byte-identical: the simulator is deterministic and the views are
  // emitted in sorted order.
  EXPECT_EQ(folded.str(), golden.str());
}

TEST_F(ProfileTest, AnnotatedViewListsHotBlocks) {
  profile::session().enable();
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  const auto program = kernels::host_axpy_f32(128);
  kernels::run_host_program(
      soc, program,
      std::array<u64, 3>{core::layout::kSharedBase,
                         core::layout::kSharedBase + 1024,
                         core::layout::kSharedBase + 2048});
  std::ostringstream annotated;
  profile::session().write_annotated(annotated);
  const std::string text = annotated.str();
  EXPECT_NE(text.find("== core cva6"), std::string::npos);
  EXPECT_NE(text.find(program.name), std::string::npos);
  EXPECT_NE(text.find("cycles"), std::string::npos);
}

/// Run a command, discard stderr, return (exit code, stdout).
std::pair<int, std::string> run_cmd(const std::string& cmd) {
  const std::string full = cmd + " 2>/dev/null";
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << full;
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  return {pclose(pipe), out};
}

/// Every figure bench must pass its in-process conservation check when
/// run under --profile (profile::finish_bench aborts the run on the
/// first violated invariant, failing the subprocess).
class FigureBenchProfile : public ProfileTest,
                           public ::testing::WithParamInterface<const char*> {
};

TEST_P(FigureBenchProfile, ConservesUnderProfile) {
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/" + GetParam() +
                          " --profile --jobs 1";
  const auto [rc, out] = run_cmd(cmd);
  EXPECT_EQ(rc, 0) << cmd << "\n" << out;
  EXPECT_NE(out.find("cycle attribution"), std::string::npos) << out;
}

INSTANTIATE_TEST_SUITE_P(AllFigures, FigureBenchProfile,
                         ::testing::Values("fig6_speedup", "fig7_llc_sweep",
                                           "fig8_llc_effect",
                                           "fig9_energy_eff",
                                           "table1_comparison", "table2_power",
                                           "ablation_memsys"));

}  // namespace
