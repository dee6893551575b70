// Cross-run determinism regression tests.
//
// The simulator must be a pure function of its inputs: two runs of the
// same workload — in one process, across processes, or across worker
// counts — produce identical cycle counts, digests and bench output.
// This pins down the cross-run state-bleed class of bug (a static or
// global that survives into the next Soc).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "isa/threaded.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "profile/profile.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace hulkv;

// Bench/example binary locations, injected by tests/CMakeLists.txt.
#ifndef HULKV_BENCH_DIR
#define HULKV_BENCH_DIR "."
#endif
#ifndef HULKV_EXAMPLES_DIR
#define HULKV_EXAMPLES_DIR "."
#endif

/// Run a command, discard stderr (logs go there), return stdout.
std::string run_stdout(const std::string& cmd) {
  const std::string full = cmd + " 2>/dev/null";
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << full;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  const int rc = pclose(pipe);
  EXPECT_EQ(rc, 0) << full;
  return out;
}

/// A finished command: its exit code and its stderr (stdout dropped).
struct Exit {
  int code = -1;
  std::string err;
};

Exit run_exit(const std::string& cmd) {
  const std::string full = cmd + " 2>&1 >/dev/null";
  Exit out;
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << full;
  if (pipe == nullptr) return out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.err.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) out.code = WEXITSTATUS(status);
  return out;
}

struct RunResult {
  Cycles cycles;
  u64 digest;
};

RunResult run_workload() {
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  const auto prog = kernels::host_stride_reads(256, 1024, 5);
  const Cycles cycles =
      kernels::run_host_program(
          soc, prog.words, std::array<u64, 1>{core::layout::kSharedBase})
          .cycles;
  return {cycles, soc.state_digest()};
}

TEST(Determinism, RepeatedInProcessRunsAreIdentical) {
  const RunResult first = run_workload();
  const RunResult second = run_workload();
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(first.digest, second.digest);
}

TEST(Determinism, Fig7RunTwiceIsByteIdentical) {
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig7_llc_sweep";
  const std::string first = run_stdout(cmd);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_stdout(cmd));
}

TEST(Determinism, Fig7OutputIndependentOfWorkerCount) {
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig7_llc_sweep";
  const std::string serial = run_stdout(cmd + " --jobs 1");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_stdout(cmd + " --jobs 4"));
}

TEST(Determinism, AblationMemsysRunTwiceIsByteIdentical) {
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/ablation_memsys";
  const std::string first = run_stdout(cmd);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_stdout(cmd));
}

TEST(Determinism, MemsysExplorerOutputIndependentOfWorkerCount) {
  const std::string cmd =
      std::string(HULKV_EXAMPLES_DIR) + "/memsys_explorer 128";
  const std::string serial = run_stdout(cmd + " --jobs 1");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_stdout(cmd + " --jobs 4"));
}

TEST(Determinism, ThreadedTierDigestMatchesInterpAtCheckpoints) {
  // Both tiers run the same handlers (DESIGN.md §15); the threaded
  // tier's lowered line flags and tight loop must leave the full
  // serialized SoC state — registers, clocks, caches, stats — identical
  // to the reference loop's at any instruction boundary. Checked at
  // three mid-run checkpoints (budget cuts land mid-block, exercising
  // the threaded loop's pc/next_pc re-establishment) plus the final
  // state. A profiled leg runs the same handlers inside the profiler
  // brackets and must land on the same digests.
  auto run_checkpoints = [](isa::ExecTier tier, bool profiled) {
    if (profiled) profile::session().enable();
    core::SocConfig cfg;
    cfg.main_memory = core::MainMemoryKind::kDdr4;
    core::HulkVSoc soc(cfg);
    soc.host().set_tier(tier);
    using namespace isa::reg;
    isa::Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(t0, 2000);
    a.li(t1, 0);
    a.li(t2, core::layout::kSharedBase);
    a.label("loop");
    a.sd(t1, 0, t2);       // store through the write-through L1D
    a.ld(t3, 0, t2);       // load back (D-cache hit path)
    a.mul(t4, t1, t0);     // multiplier latency
    a.addi(t1, t1, 1);
    a.addi(t0, t0, -1);
    a.bnez(t0, "loop");
    a.mv(a0, t1);
    a.li(a7, 93);
    a.ecall();
    soc.load_program(core::layout::kHostCodeBase, a.assemble());
    soc.host().set_syscall_handler(
        [](host::Cva6Core& c) -> host::Cva6Core::SyscallAction {
          return c.reg(17) == 93
                     ? host::Cva6Core::SyscallAction::kExit
                     : host::Cva6Core::SyscallAction::kContinue;
        });
    soc.host().set_pc(core::layout::kHostCodeBase);
    std::array<u64, 4> digests{};
    for (int i = 0; i < 3; ++i) {
      soc.host().run(/*max_instructions=*/1501);  // mid-block checkpoints
      digests[static_cast<size_t>(i)] = soc.state_digest();
    }
    soc.host().run();
    digests[3] = soc.state_digest();
    if (profiled) {
      EXPECT_EQ(profile::session().check_conservation(), "");
      EXPECT_NE(profile::session().find_core("cva6"), nullptr);
      profile::session().reset();
      profile::session().disable();
    }
    return digests;
  };
  const auto threaded = run_checkpoints(isa::ExecTier::kThreaded, false);
  EXPECT_EQ(run_checkpoints(isa::ExecTier::kInterp, false), threaded);
  EXPECT_EQ(run_checkpoints(isa::ExecTier::kThreaded, true), threaded);
}

TEST(Determinism, TierDoesNotPerturbBenchStdout) {
  // Figure-bench output is byte-identical between execution tiers (the
  // sweep over all seven figure/table benches runs in scripts/ci.sh).
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig8_llc_effect";
  const std::string interp = run_stdout(cmd + " --tier=interp");
  ASSERT_FALSE(interp.empty());
  EXPECT_EQ(interp, run_stdout(cmd + " --tier=threaded"));
}

TEST(Determinism, TelemetryDoesNotPerturbBenchStdout) {
  // The telemetry layer's contract (DESIGN.md §14): spans, sweep stats
  // and the run manifest never touch stdout or simulated timing, so a
  // bench's stdout is byte-identical with telemetry on or off. The
  // manifest goes to a scratch dir (and must actually appear there).
  char tmpl[] = "/tmp/hulkv_det_telemetry.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig8_llc_effect";
  const std::string off = run_stdout(cmd);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, run_stdout(cmd + " --telemetry=" + dir));

  const std::string manifest = dir + "/fig8_llc_effect.jsonl";
  FILE* f = std::fopen(manifest.c_str(), "r");
  ASSERT_NE(f, nullptr) << "missing run manifest " << manifest;
  std::fclose(f);
  std::remove(manifest.c_str());
  rmdir(dir.c_str());
}

TEST(Determinism, TraceDoesNotPerturbBenchStdout) {
  // --trace is wired through report::run_bench in every figure/table
  // bench: the file is written and is valid JSON, and
  // stdout is byte-identical with tracing on or off. table2_power keeps
  // the file small (the simulation benches write 50-450 MB traces).
  char tmpl[] = "/tmp/hulkv_det_trace.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/table2_power.json";
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/table2_power";
  const std::string off = run_stdout(cmd + " --jobs 1");
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, run_stdout(cmd + " --jobs 1 --trace " + path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing trace " << path;
  std::stringstream text;
  text << in.rdbuf();
  const telemetry::json::Value trace = telemetry::json::parse(text.str());
  const telemetry::json::Value* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is(telemetry::json::Kind::kArray));
  std::remove(path.c_str());
  rmdir(tmpl);
}

TEST(Determinism, BenchErrorsExitOneWithTheMessage) {
  // report::run_bench turns a SimError anywhere in a bench run (flag
  // parsing, tier selection, the sweep's trace refusal) into
  // "error: <what>" on stderr and exit code 1 — not std::terminate —
  // and writes no trace file for the failed run.
  char tmpl[] = "/tmp/hulkv_det_exit.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string trace = std::string(tmpl) + "/t.json";
  const std::string bench = std::string(HULKV_BENCH_DIR) + "/";
  const std::pair<std::string, std::string> cases[] = {
      {"table1_comparison --jobs abc",
       "--jobs expects an unsigned integer, got \"abc\""},
      {"table2_power --tier bogus", "unknown execution tier 'bogus'"},
      {"fig8_llc_effect --jobs 2", "the trace sink is not thread-safe"},
  };
  for (const auto& [args, message] : cases) {
    const Exit e = run_exit(bench + args + " --trace " + trace);
    EXPECT_EQ(e.code, 1) << args << ": " << e.err;
    EXPECT_EQ(e.err.rfind("error: ", 0), 0u) << args << ": " << e.err;
    EXPECT_NE(e.err.find(message), std::string::npos) << args << ": "
                                                       << e.err;
    EXPECT_NE(access(trace.c_str(), F_OK), 0) << args << " wrote a trace";
    std::remove(trace.c_str());
  }
  rmdir(tmpl);
}

TEST(Determinism, SimperfInstrumentedRunsExitZero) {
  // simperf takes --trace and --profile through report::run_bench like
  // the figure benches. Its BM_BatchSweep/N row sweeps on one worker
  // while either is on, so each run finishes with exit 0 and its output
  // instead of meeting batch::run_jobs' multi-worker refusal.
  char tmpl[] = "/tmp/hulkv_det_simperf.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string cmd = std::string(HULKV_BENCH_DIR) +
                          "/simperf --benchmark_filter=BM_BatchSweep "
                          "--benchmark_min_time=0.000001";
  const Exit traced = run_exit(cmd + " --trace " + dir + "/t.json");
  EXPECT_EQ(traced.code, 0) << traced.err;
  EXPECT_EQ(access((dir + "/t.json").c_str(), F_OK), 0);
  const Exit profiled = run_exit(cmd + " --profile=" + dir + "/p");
  EXPECT_EQ(profiled.code, 0) << profiled.err;
  EXPECT_EQ(access((dir + "/p.folded").c_str(), F_OK), 0);
  for (const char* f : {"/t.json", "/p.folded", "/p.annotated.txt"}) {
    std::remove((dir + f).c_str());
  }
  rmdir(tmpl);
}

TEST(Determinism, InstrumentedRunsDefaultToOneWorker) {
  // The trace sink and the profiler are single-threaded, so a run with
  // --profile (or --trace) and no --jobs sweeps serially instead of
  // meeting batch::run_jobs' multi-worker refusal.
  const std::string cmd =
      std::string(HULKV_BENCH_DIR) + "/fig8_llc_effect --profile";
  const std::string implicit = run_stdout(cmd);
  ASSERT_FALSE(implicit.empty());
  EXPECT_EQ(implicit, run_stdout(cmd + " --jobs 1"));
}

}  // namespace
