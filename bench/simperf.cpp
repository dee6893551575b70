// Microbenchmarks of the simulator itself (google-benchmark): ISS
// throughput, cache-model and HyperRAM-model access rates. These guard
// the usability of the repo (the figure benches replay millions of
// instructions) rather than reproducing a paper result.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "batch/batch.hpp"
#include "cluster/cluster.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "isa/block_cache.hpp"
#include "isa/decoder.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "kernels/kernel.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/hyperram.hpp"
#include "mem/rpcdram.hpp"
#include "profile/profile.hpp"
#include "serve/service.hpp"
#include "isa/threaded.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hulkv;

void BM_Decode(benchmark::State& state) {
  const u32 word =
      isa::encode({.op = isa::Op::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::decode(word));
  }
}
BENCHMARK(BM_Decode);

/// Host ISS hot loop at an explicit execution tier. The tier is pinned
/// per row (not left at the process default): the interp row measures
/// the hooked reference loop, the Threaded row the fast loop over the
/// same handlers (DESIGN.md §15).
void host_iss_loop(benchmark::State& state, isa::ExecTier tier) {
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  core::HulkVSoc soc(cfg);
  soc.host().set_tier(tier);
  isa::Assembler a(core::layout::kHostCodeBase, true);
  using namespace isa::reg;
  a.li(t0, 100000);
  a.label("loop");
  a.addi(t1, t1, 1);
  a.addi(t0, t0, -1);
  a.bnez(t0, "loop");
  a.li(a7, 93);
  a.li(a0, 0);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  soc.load_program(core::layout::kHostCodeBase, words);

  // Attach the analyzer's block facts like run_host_program would
  // (this bench bypasses the load path), so the run also measures the
  // fact-provider hook on the translate path.
  analysis::Options aopt;
  aopt.base = core::layout::kHostCodeBase;
  aopt.profile = analysis::IsaProfile::kHostRv64;
  aopt.pic = false;
  analysis::attach_facts(soc.host().decode_blocks(),
                         core::layout::kHostCodeBase,
                         analysis::analyze_program(words, aopt).facts);

  u64 instructions = 0;
  for (auto _ : state) {
    soc.host().set_pc(core::layout::kHostCodeBase);
    const auto run = soc.host().run();
    instructions += run.instret;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
  // Decoded blocks covered by proven facts / proven run-ahead eligible
  // (translate-time counts: blocks are memoized, so these are small and
  // exact, not per-iteration).
  state.counters["fact_blocks"] = static_cast<double>(
      soc.host().decode_blocks().fact_proven_blocks());
  state.counters["eligible_blocks"] = static_cast<double>(
      soc.host().decode_blocks().fact_eligible_blocks());
}

void BM_HostIssLoop(benchmark::State& state) {
  host_iss_loop(state, isa::ExecTier::kInterp);
}
BENCHMARK(BM_HostIssLoop)->Unit(benchmark::kMillisecond);

/// Same loop on the threaded-code tier; compare instr/s against
/// BM_HostIssLoop for the tier speedup.
void BM_HostIssLoopThreaded(benchmark::State& state) {
  host_iss_loop(state, isa::ExecTier::kThreaded);
}
BENCHMARK(BM_HostIssLoopThreaded)->Unit(benchmark::kMillisecond);

/// Scoped "profiler collecting" state for the *Profile benchmark
/// variants: fresh session on entry, prior enabled/disabled state
/// restored (and the session cleared) on exit, so the variants never
/// leak accumulators into a --profile report.
class ProfileScope {
 public:
  ProfileScope() : was_enabled_(profile::enabled()) {
    profile::session().reset();
    profile::session().enable();
  }
  ~ProfileScope() {
    profile::session().reset();
    if (!was_enabled_) profile::session().disable();
  }

 private:
  bool was_enabled_;
};

/// BM_HostIssLoop with the cycle profiler collecting: the profile-on
/// overhead row (compare instr/s against BM_HostIssLoop).
void BM_HostIssLoopProfile(benchmark::State& state) {
  const ProfileScope scope;
  BM_HostIssLoop(state);
}
BENCHMARK(BM_HostIssLoopProfile)->Unit(benchmark::kMillisecond);

/// Cluster ISS hot loop at an explicit execution tier (all 8 cores).
void cluster_iss_loop(benchmark::State& state, isa::ExecTier tier) {
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  core::HulkVSoc soc(cfg);
  for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
    soc.cluster().core(c).set_tier(tier);
  }
  isa::Assembler a(0, /*rv64=*/false);
  using namespace isa::reg;
  // Hardware loop over a MAC body: the cluster ISS hot path (block
  // dispatch + hwloop back edges) on all 8 cores.
  a.li(t0, 0);
  a.li(t1, 3);
  a.li(t4, 50000);
  a.lp_count(0, t4);
  a.lp_starti(0, "body");
  a.lp_endi(0, "end");
  a.label("body");
  a.rr(isa::Op::kPMac, t0, t1, t1);
  a.addi(t2, t2, 1);
  a.label("end");
  a.addi(t3, t3, 1);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  soc.load_program(mem::map::kL2Base, words);

  // Attach block facts to every core's decode cache, as the offload
  // runtime does for registered kernels (this bench calls run_kernel
  // directly). The kernel is pure ALU + a proven-exit ecall, so its
  // blocks come out run-ahead eligible.
  analysis::Options aopt;
  aopt.profile = analysis::IsaProfile::kClusterRv32;
  const auto facts = analysis::analyze_program(words, aopt).facts;
  for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
    analysis::attach_facts(soc.cluster().core(c).decode_blocks(),
                           mem::map::kL2Base, facts);
  }

  u64 instructions = 0;
  Cycles start = 0;
  for (auto _ : state) {
    const auto run =
        soc.cluster().run_kernel(start, mem::map::kL2Base, 0);
    instructions += run.instret;
    start = run.finish;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
  u64 proven = 0, eligible = 0;
  for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
    proven += soc.cluster().core(c).decode_blocks().fact_proven_blocks();
    eligible +=
        soc.cluster().core(c).decode_blocks().fact_eligible_blocks();
  }
  state.counters["fact_blocks"] = static_cast<double>(proven);
  state.counters["eligible_blocks"] = static_cast<double>(eligible);
}

void BM_ClusterIssLoop(benchmark::State& state) {
  cluster_iss_loop(state, isa::ExecTier::kInterp);
}
BENCHMARK(BM_ClusterIssLoop)->Unit(benchmark::kMillisecond);

/// Same kernel on the threaded-code tier; compare instr/s against
/// BM_ClusterIssLoop for the tier speedup.
void BM_ClusterIssLoopThreaded(benchmark::State& state) {
  cluster_iss_loop(state, isa::ExecTier::kThreaded);
}
BENCHMARK(BM_ClusterIssLoopThreaded)->Unit(benchmark::kMillisecond);

/// BM_ClusterIssLoop with the cycle profiler collecting.
void BM_ClusterIssLoopProfile(benchmark::State& state) {
  const ProfileScope scope;
  BM_ClusterIssLoop(state);
}
BENCHMARK(BM_ClusterIssLoopProfile)->Unit(benchmark::kMillisecond);

/// Scoped "telemetry collecting" state, mirroring ProfileScope: fresh
/// registry on entry, prior enabled/disabled state restored on exit so
/// the variants never leak spans into a --telemetry manifest.
class TelemetryScope {
 public:
  TelemetryScope() : was_enabled_(telemetry::enabled()) {
    telemetry::registry().reset();
    telemetry::registry().enable();
  }
  ~TelemetryScope() {
    telemetry::registry().reset();
    if (!was_enabled_) telemetry::registry().disable();
  }

 private:
  bool was_enabled_;
};

/// BM_HostIssLoop with telemetry spans collecting: the telemetry-on
/// overhead row (compare instr/s against BM_HostIssLoop). Note the
/// benchmark-name regex 'BM_(Host|Cluster)IssLoop' used by the simperf
/// gate also matches this row, so the telemetry-on rate is gated once a
/// baseline carries it.
void BM_HostIssLoopTelemetry(benchmark::State& state) {
  const TelemetryScope scope;
  BM_HostIssLoop(state);
}
BENCHMARK(BM_HostIssLoopTelemetry)->Unit(benchmark::kMillisecond);

/// Span construct/destruct with telemetry disabled: the cost every
/// instrumented phase pays in normal (untelemetered) runs. Should be a
/// load + branch — low single-digit ns.
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  if (telemetry::enabled()) telemetry::registry().disable();
  for (auto _ : state) {
    const telemetry::Span span(telemetry::SpanPhase::kBatchJob);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

/// Span construct/destruct with telemetry collecting: two clock reads,
/// one histogram record, one TLS buffer append.
void BM_TelemetrySpanEnabled(benchmark::State& state) {
  const TelemetryScope scope;
  for (auto _ : state) {
    const telemetry::Span span(telemetry::SpanPhase::kBatchJob);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TelemetrySpanEnabled);

/// Raw histogram record throughput (the per-sample floor under every
/// enabled span and sweep-latency sample).
void BM_HistogramRecord(benchmark::State& state) {
  telemetry::AtomicHistogram hist;
  u64 v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 8;  // cheap lcg
    benchmark::DoNotOptimize(v);
  }
  benchmark::DoNotOptimize(&hist);
}
BENCHMARK(BM_HistogramRecord);

void BM_BlockCacheLookup(benchmark::State& state) {
  // Steady-state dispatch cost: one warm block_at probe (the memoized
  // loop-body case the ISS run loops hit every iteration).
  isa::Assembler a(0x1000, /*rv64=*/false);
  using namespace isa::reg;
  for (int i = 0; i < 16; ++i) a.addi(t0, t0, 1);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  isa::BlockCache cache([&words](Addr pc) {
    return words[(pc - 0x1000) / 4];
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.block_at(0x1000));
  }
}
BENCHMARK(BM_BlockCacheLookup);

void BM_BlockCacheLookupAlternating(benchmark::State& state) {
  // Two blocks reaching each other in turn (a loop body split by a
  // branch): every lookup misses the one-entry memo and is served by
  // the memo block's successor link. Informational, not gated.
  isa::Assembler a(0x1000, /*rv64=*/false);
  using namespace isa::reg;
  for (int i = 0; i < 8; ++i) a.addi(t0, t0, 1);
  a.bnez(t0, "b");
  a.label("b");
  for (int i = 0; i < 8; ++i) a.addi(t1, t1, 1);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  isa::BlockCache cache([&words](Addr pc) {
    return words[(pc - 0x1000) / 4];
  });
  const Addr second = 0x1000 + 4 * 9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.block_for_exec(0x1000));
    benchmark::DoNotOptimize(&cache.block_for_exec(second));
  }
}
BENCHMARK(BM_BlockCacheLookupAlternating);

void BM_BackingStoreRead(benchmark::State& state) {
  // Same-page 8-byte reads: the page-pointer-cache fast path every host
  // load in the DRAM window takes.
  mem::BackingStore store;
  store.store<u64>(0x1000, 42);
  u64 v = 0;
  for (auto _ : state) {
    store.read(0x1000, &v, 8);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_BackingStoreRead);

void BM_CacheHit(benchmark::State& state) {
  mem::FixedLatency next(100);
  mem::CacheModel cache({.name = "bench"}, &next);
  cache.access(0, 0x8000'0000, 8, false);
  Cycles now = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(now++, 0x8000'0000, 8, false));
  }
}
BENCHMARK(BM_CacheHit);

void BM_HyperRamBurst(benchmark::State& state) {
  mem::HyperRamModel hyper({});
  Cycles now = 0;
  for (auto _ : state) {
    now = hyper.access(now, 0x8000'0000 + (now % 4096) * 64, 64, false);
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_HyperRamBurst);

void BM_RpcDramBurst(benchmark::State& state) {
  // Same access stream as BM_HyperRamBurst on the RPC DRAM model (row
  // buffers, interned counters). Informational, not gated.
  mem::RpcDramModel rpc({});
  Cycles now = 0;
  for (auto _ : state) {
    now = rpc.access(now, 0x8000'0000 + (now % 4096) * 64, 64, false);
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_RpcDramBurst);

/// The serve daemon's per-point data path on a cache hit — the
/// steady-state of a popular point, and the path every request pays
/// at minimum. The plain row is the tracing-off path (StageClock ==
/// nullptr compiles to zero clock reads inside run_point) and is
/// gated by SIMPERF_SERVE_OBS_OFF_THRESHOLD_PCT; the Obs row times
/// the same hit with a clock attached (tracing-on overhead, printed
/// informationally by simperf_check.sh).
void serve_point_cached(benchmark::State& state, bool obs) {
  serve::Service service;
  const serve::PointParams point = {0, 1, 1};
  const auto never_cancel = [] { return serve::Status::kOk; };
  // Prime the cache: one real simulation, then every iteration hits.
  service.run_point(point, false, never_cancel);
  serve::obs::StageClock clock;
  u64 points = 0;
  for (auto _ : state) {
    clock = {};
    const serve::Service::PointResult result = service.run_point(
        point, false, never_cancel, obs ? &clock : nullptr);
    benchmark::DoNotOptimize(result.row.cycles);
    ++points;
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(points), benchmark::Counter::kIsRate);
}

void BM_ServePointCached(benchmark::State& state) {
  serve_point_cached(state, false);
}
BENCHMARK(BM_ServePointCached);

void BM_ServePointCachedObs(benchmark::State& state) {
  serve_point_cached(state, true);
}
BENCHMARK(BM_ServePointCachedObs);

/// A SoC with some run history, so snapshots carry real state (warm
/// caches, non-zero stats) rather than a freshly-reset machine.
core::HulkVSoc& warmed_soc() {
  static core::HulkVSoc soc{core::SocConfig{}};
  static bool warmed = false;
  if (!warmed) {
    warmed = true;
    const auto prog = kernels::host_stride_reads(128, 512, 2);
    kernels::run_host_program(
        soc, prog, std::array<u64, 1>{core::layout::kSharedBase});
  }
  return soc;
}

void BM_SnapshotSave(benchmark::State& state) {
  core::HulkVSoc& soc = warmed_soc();
  u64 bytes = 0;
  for (auto _ : state) {
    std::ostringstream os(std::ios::binary);
    soc.save(os);
    bytes += static_cast<u64>(os.tellp());
    benchmark::DoNotOptimize(os);
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond);

void BM_SnapshotRestore(benchmark::State& state) {
  const batch::SocSnapshot snap = batch::SocSnapshot::capture(warmed_soc());
  core::HulkVSoc target{core::SocConfig{}};
  u64 bytes = 0;
  for (auto _ : state) {
    snap.restore_into(target);
    bytes += snap.size_bytes();
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMillisecond);

void BM_SnapshotDigest(benchmark::State& state) {
  core::HulkVSoc& soc = warmed_soc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc.state_digest());
  }
}
BENCHMARK(BM_SnapshotDigest)->Unit(benchmark::kMillisecond);

void BM_BatchSweep(benchmark::State& state) {
  // A small but real sweep (one SoC + host workload per point) at the
  // worker count given by the range argument. Comparing the /1 row to
  // the /N row gives the measured batch scaling on this machine. The
  // trace sink and the profiler are single-threaded, so an instrumented
  // run sweeps every row on one worker (the workers counter says so).
  const bool instrumented = trace::enabled() || profile::enabled();
  const u32 workers = instrumented ? 1u : static_cast<u32>(state.range(0));
  const batch::SweepEngine engine(workers);
  constexpr u64 kPoints = 4;
  for (auto _ : state) {
    const std::vector<Cycles> cycles = engine.map<Cycles>(
        kPoints, [](u64 index) {
          core::SocConfig cfg;
          cfg.llc.num_lines = 128u << index;
          core::HulkVSoc soc(cfg);
          const auto prog = kernels::host_stride_reads(256, 512, 3);
          return kernels::run_host_program(
                     soc, prog.words,
                     std::array<u64, 1>{core::layout::kSharedBase})
              .cycles;
        });
    benchmark::DoNotOptimize(cycles.data());
  }
  state.counters["workers"] = static_cast<double>(engine.workers());
}
BENCHMARK(BM_BatchSweep)
    ->Arg(1)
    // At least 2 workers even on a single-core box, so the scaling row
    // (and its honest ~1x there) always exists.
    ->Arg(static_cast<int>(std::max(2u, hulkv::batch::default_jobs())))
    ->Unit(benchmark::kMillisecond);

/// Collects every google-benchmark run into the shared MetricsReport;
/// the text table and the --json file then render from the same cells.
class ReportCollector : public benchmark::BenchmarkReporter {
 public:
  explicit ReportCollector(hulkv::report::MetricsReport* rep,
                           hulkv::report::Table* table)
      : rep_(rep), table_(table) {}

  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    namespace report = hulkv::report;
    for (const Run& run : runs) {
      const double iters = static_cast<double>(run.iterations);
      const double real_ns =
          iters > 0 ? run.real_accumulated_time / iters * 1e9 : 0;
      const double cpu_ns =
          iters > 0 ? run.cpu_accumulated_time / iters * 1e9 : 0;
      table_->add_row({report::Value::text(run.benchmark_name()),
                       report::Value::uinteger(run.iterations),
                       report::Value::number(real_ns, 1),
                       report::Value::number(cpu_ns, 1)});
      for (const auto& [name, counter] : run.counters) {
        rep_->add_metric(run.benchmark_name() + "." + name,
                         report::Value::number(counter.value, 1));
      }
    }
  }

 private:
  hulkv::report::MetricsReport* rep_;
  hulkv::report::Table* table_;
};

}  // namespace

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  return report::run_bench(argc, argv, [&](const report::BenchOptions&) {
    // run_bench stripped the shared bench flags: what is left in argv
    // is google-benchmark's.
    benchmark::Initialize(&argc, argv);
    report::MetricsReport rep("simperf");
    rep.add_note("Simulator microbenchmarks (google-benchmark): ISS "
                 "throughput, cache-model and HyperRAM-model access rates.");
    report::Table& table = rep.add_table(
        "microbenchmarks",
        {"benchmark", "iterations", "real_ns_per_iter", "cpu_ns_per_iter"});
    ReportCollector collector(&rep, &table);
    benchmark::RunSpecifiedBenchmarks(&collector);
    benchmark::Shutdown();
    return rep;
  });
}
