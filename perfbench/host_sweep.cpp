// host_sweep: the CVA6 host path of the paper's Fig. 8 evaluation.
//
// Rounds of the 30-point grid (crc32, fir, sort, histogram, strsearch x
// HyperRAM/DDR4/RPC-DRAM x LLC on/off) on one thread with the default
// execution tier. Every point builds a fresh HulkVSoc, writes the
// catalogue inputs, and runs the program to its exit, so the time goes
// to the host ISS and the memory models; the seed only shuffles the
// point order within a round (the catalogue programs have fixed seeds).
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/soc.hpp"
#include "kernels/golden.hpp"
#include "kernels/kernel.hpp"
#include "serve/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hulkv;

// Footprints of the serve catalogue programs (src/serve/workload.cpp):
// the output checks read exactly this much input and output.
constexpr u32 kCrcBytes = 16 * 1024;
constexpr u32 kFirSamples = 4096;
constexpr u32 kFirTaps = 32;
constexpr u32 kSortElems = 4096;
constexpr u32 kHistBytes = 24 * 1024;
constexpr u32 kSearchBytes = 24 * 1024;
constexpr u32 kNeedleBytes = 8;

/// Where a workload leaves its result and what kernels::golden says it
/// must hold.
struct Expected {
  Addr addr = 0;
  std::vector<u8> bytes;
};

template <typename T>
std::vector<T> read_vec(core::HulkVSoc& soc, Addr addr, size_t count) {
  std::vector<T> v(count);
  soc.read_mem(addr, v.data(), count * sizeof(T));
  return v;
}

template <typename T>
Expected expect(Addr addr, const std::vector<T>& values) {
  Expected e;
  e.addr = addr;
  e.bytes.resize(values.size() * sizeof(T));
  std::memcpy(e.bytes.data(), values.data(), e.bytes.size());
  return e;
}

/// Golden result of catalogue workload `id`, from the inputs
/// serve::setup_workload writes (identical on every memory config).
Expected golden_output(u8 id) {
  core::HulkVSoc soc;
  const serve::WorkloadSetup setup = serve::setup_workload(id, soc);
  const std::vector<u64>& a = setup.args;
  switch (id) {
    case 0: {
      const auto data = read_vec<u8>(soc, a[0], kCrcBytes);
      return expect(a[2], std::vector<u32>{kernels::golden::crc32(data)});
    }
    case 1: {
      const auto x = read_vec<i32>(soc, a[0], kFirSamples);
      const auto h = read_vec<i32>(soc, a[1], kFirTaps);
      std::vector<i32> y(kFirSamples - kFirTaps + 1);
      kernels::golden::fir_i32(x, h, y, kFirSamples, kFirTaps);
      return expect(a[2], y);
    }
    case 2: {
      auto data = read_vec<i32>(soc, a[0], kSortElems);
      kernels::golden::shell_sort(data);
      return expect(a[0], data);
    }
    case 3: {
      const auto data = read_vec<u8>(soc, a[0], kHistBytes);
      std::vector<u32> bins(256);
      kernels::golden::histogram(data, bins);
      return expect(a[1], bins);
    }
    case 4: {
      const auto hay = read_vec<u8>(soc, a[0], kSearchBytes);
      const auto needle = read_vec<u8>(soc, a[1], kNeedleBytes);
      return expect(a[2],
                    std::vector<u32>{kernels::golden::strsearch(hay, needle)});
    }
  }
  throw SimError("host_sweep: no golden output for workload " +
                 std::to_string(id));
}

/// Exact simulator counts of one point (a pure function of the point).
struct Counts {
  u64 instret = 0;
  u64 cycles = 0;
  u64 translations = 0;
  u64 fact_proven = 0;
  u64 l1d_accesses = 0;
  u64 l1d_misses = 0;
  u64 llc_accesses = 0;
  u64 llc_hits = 0;
  u64 hyperram_busy = 0;

  Counts& operator+=(const Counts& o) {
    instret += o.instret;
    cycles += o.cycles;
    translations += o.translations;
    fact_proven += o.fact_proven;
    l1d_accesses += o.l1d_accesses;
    l1d_misses += o.l1d_misses;
    llc_accesses += o.llc_accesses;
    llc_hits += o.llc_hits;
    hyperram_busy += o.hyperram_busy;
    return *this;
  }
};

Counts point_counts(core::HulkVSoc& soc,
                    const host::Cva6Core::RunResult& run) {
  Counts c;
  c.instret = run.instret;
  c.cycles = run.cycles;
  c.translations = soc.host().decode_blocks().translations();
  c.fact_proven = soc.host().decode_blocks().fact_proven_blocks();
  const StatGroup& l1d = soc.host().dcache().stats();
  c.l1d_accesses = l1d.get("reads") + l1d.get("writes");
  c.l1d_misses = l1d.get("misses");
  if (mem::Llc* llc = soc.llc()) {
    c.llc_accesses = llc->stats().get("reads") + llc->stats().get("writes");
    c.llc_hits = llc->stats().get("hits");
  }
  if (mem::HyperRamModel* hr = soc.hyperram()) {
    c.hyperram_busy = hr->stats().get("busy_cycles");
  }
  return c;
}

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

class HostSweep {
 public:
  explicit HostSweep(const Options& options)
      : tracer_(options.trace), rng_(options.seed), grid_(catalogue_grid()) {
    for (u8 w = 0; w < serve::workload_count(); ++w) {
      expected_.push_back(golden_output(w));
    }
    reference_.resize(grid_.size());
  }

  RunResult run(const Options& options) {
    RunResult result;
    // Set-up is one untimed warm-up round; the first one also records
    // every point's reference run and exact counts.
    double timed_instret = 0.0;
    bool first = true;
    const Phases phases = run_phases(
        options.seconds, options.trace ? 1 : kSetupRepeats,
        [&] {
          Tally warm;
          round(warm, first ? &round_counts_ : nullptr, nullptr, ~0ull);
          first = false;
          if (warm.failed != 0) result.correct = false;
        },
        [&](u64 deadline) {
          round(result.tally, nullptr, &timed_instret, deadline);
        });
    const double wall_s = phases.timed_s;
    if (result.tally.failed != 0) result.correct = false;

    const double ops = static_cast<double>(result.tally.attempted);
    if (!tracer_.enabled()) {
      result.metrics = {
          {"setup_s", median(phases.setup_s), "s"},
          {"ops_per_s", throughput(ops, wall_s), "1/s"},
          {"sim_mips", throughput(timed_instret, wall_s) / 1e6, "MIPS"},
          {"peak_rss_mb", peak_rss_mb(), "MiB"},
      };
      return result;
    }

    const auto layers = tracer_.layers();
    auto ms = [&](const std::string& span) {
      return mean_self_ns(layers, span) / 1e6;
    };
    result.metrics = {
        {"traced.ops_per_s", throughput(ops, wall_s), "1/s"},
        {"trace.op_coverage_min", tracer_.min_child_coverage("op.host_sweep"),
         "ratio"},
        {"core.soc_build_ms", ms("core.soc_build"), "ms"},
        {"kernels.setup_ms", ms("kernels.setup"), "ms"},
        {"analysis.prepare_ms", ms("analysis.prepare"), "ms"},
    };
    for (u8 w = 0; w < serve::workload_count(); ++w) {
      const std::string name = serve::workload_name(w);
      result.metrics.push_back(
          {"host.run_ms." + name, ms("host.run." + name), "ms"});
    }
    const Counts& c = round_counts_;
    result.metrics.insert(
        result.metrics.end(),
        {
            {"host.instret", static_cast<double>(c.instret), "count"},
            {"host.sim_cycles", static_cast<double>(c.cycles), "cycles"},
            {"isa.translations", static_cast<double>(c.translations),
             "count"},
            {"isa.fact_proven_blocks", static_cast<double>(c.fact_proven),
             "count"},
            {"mem.l1d_miss_ratio", ratio(c.l1d_misses, c.l1d_accesses),
             "ratio"},
            {"mem.llc_hit_ratio", ratio(c.llc_hits, c.llc_accesses), "ratio"},
            {"mem.hyperram_busy_cycles", static_cast<double>(c.hyperram_busy),
             "cycles"},
        });
    tracer_.write_chrome_trace(trace_path(options), other_data());
    return result;
  }

 private:
  /// One round over the grid in seeded order; stops early (between
  /// points) once `deadline` has passed. Adds each point's counts to
  /// `counts` and its retired instructions to `instret` (when non-null).
  void round(Tally& tally, Counts* counts, double* instret, u64 deadline) {
    std::vector<size_t> order(grid_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng_);
    for (size_t index : order) {
      if (now_ns() >= deadline) return;
      tally.record(point(index, counts, instret));
    }
  }

  /// Simulate one grid point and check it; true when the output matches
  /// kernels::golden and cycles/instret repeat the point's reference.
  bool point(size_t index, Counts* counts, double* instret) {
    const serve::PointParams& p = grid_[index];
    const std::string name = serve::workload_name(p.workload);
    const u64 op = next_op_++;
    const Tracer::Scope op_span(tracer_, "op.host_sweep", op);

    std::unique_ptr<core::HulkVSoc> soc;
    {
      const Tracer::Scope s(tracer_, "core.soc_build", op);
      soc = std::make_unique<core::HulkVSoc>(serve::point_config(p));
    }
    serve::WorkloadSetup setup;
    {
      const Tracer::Scope s(tracer_, "kernels.setup", op);
      setup = serve::setup_workload(p.workload, *soc);
    }
    {
      const Tracer::Scope s(tracer_, "analysis.prepare", op);
      kernels::prepare_host_program(*soc, setup.program.words, setup.args);
    }
    host::Cva6Core::RunResult run;
    {
      const Tracer::Scope s(tracer_, "host.run." + name, op);
      run = soc->host().run();
    }
    bool ok = false;
    {
      const Tracer::Scope s(tracer_, "bench.check", op);
      const Expected& want = expected_[p.workload];
      std::vector<u8> got(want.bytes.size());
      soc->read_mem(want.addr, got.data(), got.size());
      ok = run.exited && got == want.bytes;
      Reference& ref = reference_[index];
      if (!ref.set) {
        ref = {true, run.cycles, run.instret};
      } else {
        ok = ok && run.cycles == ref.cycles && run.instret == ref.instret;
      }
      if (counts != nullptr) *counts += point_counts(*soc, run);
      if (instret != nullptr) *instret += static_cast<double>(run.instret);
    }
    {
      const Tracer::Scope s(tracer_, "core.soc_teardown", op);
      soc.reset();
    }
    return ok;
  }

  std::string other_data() const {
    return "{\"workload\":\"host_sweep\",\"points_per_round\":" +
           std::to_string(grid_.size()) + "}";
  }

  struct Reference {
    bool set = false;
    u64 cycles = 0;
    u64 instret = 0;
  };

  Tracer tracer_;
  Xoshiro256 rng_;
  std::vector<serve::PointParams> grid_;
  std::vector<Expected> expected_;
  std::vector<Reference> reference_;
  Counts round_counts_;
  u64 next_op_ = 0;
};

}  // namespace

RunResult run_host_sweep(const Options& options) {
  HostSweep sweep(options);
  return sweep.run(options);
}

}  // namespace perfbench
