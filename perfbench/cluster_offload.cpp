// cluster_offload: the PMCA offload path of the paper's Fig. 6.
//
// One SoC (HyperRAM + LLC) and one OffloadRuntime with five kernels
// registered. Set-up registers them (running the static analyzer) and
// offloads each once cold to pay the lazy code load. Every timed op
// writes fresh seeded inputs into the kernel's hulk_malloc buffers,
// offloads it once, and compares the result with kernels::golden. The
// problem sizes keep each offload at several milliseconds of host time,
// so the per-op harness cost stays small next to the cluster ISS, TCDM
// and DMA models that dominate it.
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/golden.hpp"
#include "runtime/offload.hpp"
#include "snapshot/archive.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hulkv;

constexpr u32 kTcdm = static_cast<u32>(mem::map::kTcdmBase);
constexpr u32 kL1Data = kTcdm + 0x100;  // after the offload argument block

/// The bytes a kernel must leave at `addr` for the inputs just written.
struct Expected {
  Addr addr = 0;
  std::vector<u8> bytes;
};

template <typename T>
std::vector<u8> as_bytes(const std::vector<T>& v) {
  std::vector<u8> out(v.size() * sizeof(T));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<T> random_ints(Xoshiro256& rng, size_t n, i64 lo, i64 hi) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.next_range(lo, hi));
  return v;
}

std::vector<u16> random_halves(Xoshiro256& rng, size_t n) {
  std::vector<u16> v(n);
  for (auto& x : v) {
    x = float_to_half_bits(static_cast<float>(rng.next_range(-64, 64)) /
                           8.0f);
  }
  return v;
}

/// One registered kernel: its program, offload arguments, and the
/// writer of fresh inputs (which returns the golden result).
struct KernelCase {
  std::string name;
  kernels::KernelProgram program;
  std::vector<u32> args;
  /// Write seeded inputs into the SoC; fold their bytes into `digest`.
  std::function<Expected(core::HulkVSoc&, Xoshiro256&, u64& digest)> inputs;
  runtime::KernelHandle handle;
  u64 instret = 0;  // cluster instructions of the cold offload
};

template <typename T>
void put(core::HulkVSoc& soc, Addr addr, const std::vector<T>& v,
         u64& digest) {
  soc.write_mem(addr, v.data(), v.size() * sizeof(T));
  digest = snapshot::fnv1a(digest, v.data(), v.size() * sizeof(T));
}

u32 addr32(Addr a) { return static_cast<u32>(a); }

KernelCase matmul_i8(runtime::OffloadRuntime& rt) {
  constexpr u32 m = 48, n = 48, k = 64;
  const Addr pa = rt.hulk_malloc(m * k), pbt = rt.hulk_malloc(n * k);
  const Addr pc = rt.hulk_malloc(m * n * 4);
  const u32 a_l1 = kL1Data, bt_l1 = a_l1 + m * k, c_l1 = bt_l1 + n * k;
  KernelCase c{"matmul_i8", kernels::cluster_matmul_i8(m, n, k),
               {addr32(pa), addr32(pbt), addr32(pc), a_l1, bt_l1, c_l1},
               {}, {}};
  c.inputs = [=](core::HulkVSoc& soc, Xoshiro256& rng, u64& digest) {
    const auto a = random_ints<i8>(rng, m * k, -128, 127);
    const auto bt = random_ints<i8>(rng, n * k, -128, 127);
    put(soc, pa, a, digest);
    put(soc, pbt, bt, digest);
    std::vector<i32> want(m * n);
    kernels::golden::matmul_i8(a, bt, want, m, n, k);
    return Expected{pc, as_bytes(want)};
  };
  return c;
}

KernelCase conv3x3_i8(runtime::OffloadRuntime& rt) {
  constexpr u32 h = 64, w = 64;
  const Addr pi = rt.hulk_malloc(h * w), pk = rt.hulk_malloc(12);
  const Addr po = rt.hulk_malloc((h - 2) * (w - 2) * 4);
  const u32 img_l1 = kL1Data, ker_l1 = img_l1 + h * w, out_l1 = ker_l1 + 16;
  KernelCase c{"conv3x3_i8", kernels::cluster_conv3x3_i8(h, w),
               {addr32(pi), addr32(pk), addr32(po), img_l1, ker_l1, out_l1},
               {}, {}};
  c.inputs = [=](core::HulkVSoc& soc, Xoshiro256& rng, u64& digest) {
    const auto img = random_ints<i8>(rng, h * w, -128, 127);
    const auto ker = random_ints<i8>(rng, 9, -16, 16);
    put(soc, pi, img, digest);
    put(soc, pk, ker, digest);
    std::vector<i32> want((h - 2) * (w - 2));
    kernels::golden::conv3x3_i8(img, ker, want, h, w);
    return Expected{po, as_bytes(want)};
  };
  return c;
}

KernelCase fir_i8(runtime::OffloadRuntime& rt) {
  constexpr u32 n = 4096, taps = 32;
  const Addr px = rt.hulk_malloc(n), ph = rt.hulk_malloc(taps);
  const Addr py = rt.hulk_malloc((n - taps + 1) * 4);
  const u32 x_l1 = kL1Data, h_l1 = x_l1 + n, y_l1 = h_l1 + 64;
  KernelCase c{"fir_i8", kernels::cluster_fir_i8(n, taps),
               {addr32(px), addr32(ph), addr32(py), x_l1, h_l1, y_l1},
               {}, {}};
  c.inputs = [=](core::HulkVSoc& soc, Xoshiro256& rng, u64& digest) {
    const auto x = random_ints<i8>(rng, n, -128, 127);
    const auto hv = random_ints<i8>(rng, taps, -32, 32);
    put(soc, px, x, digest);
    put(soc, ph, hv, digest);
    std::vector<i32> want(n - taps + 1);
    kernels::golden::fir_i8(x, hv, want, n, taps);
    return Expected{py, as_bytes(want)};
  };
  return c;
}

KernelCase matmul_f16(runtime::OffloadRuntime& rt) {
  constexpr u32 m = 48, n = 48, k = 48;
  const Addr pa = rt.hulk_malloc(m * k * 2), pbt = rt.hulk_malloc(n * k * 2);
  const Addr pc = rt.hulk_malloc(m * n * 4);
  const u32 a_l1 = kL1Data, bt_l1 = a_l1 + m * k * 2, c_l1 = bt_l1 + n * k * 2;
  KernelCase c{"matmul_f16", kernels::cluster_matmul_f16(m, n, k),
               {addr32(pa), addr32(pbt), addr32(pc), a_l1, bt_l1, c_l1},
               {}, {}};
  c.inputs = [=](core::HulkVSoc& soc, Xoshiro256& rng, u64& digest) {
    const auto a = random_halves(rng, m * k);
    const auto bt = random_halves(rng, n * k);
    put(soc, pa, a, digest);
    put(soc, pbt, bt, digest);
    std::vector<float> want(m * n);
    kernels::golden::matmul_f16(a, bt, want, m, n, k);
    return Expected{pc, as_bytes(want)};
  };
  return c;
}

KernelCase dotp_f16(runtime::OffloadRuntime& rt, u32 cores) {
  constexpr u32 n = 16384;
  const Addr px = rt.hulk_malloc(n * 2), py = rt.hulk_malloc(n * 2);
  const u32 x_l1 = kL1Data, y_l1 = x_l1 + n * 2, part_l1 = y_l1 + n * 2;
  const u32 res_l1 = part_l1 + 64;
  KernelCase c{"dotp_f16", kernels::cluster_dotp_f16(n),
               {addr32(px), addr32(py), x_l1, y_l1, part_l1, res_l1},
               {}, {}};
  c.inputs = [=](core::HulkVSoc& soc, Xoshiro256& rng, u64& digest) {
    const auto x = random_halves(rng, n);
    const auto y = random_halves(rng, n);
    put(soc, px, x, digest);
    put(soc, py, y, digest);
    // The kernel's reduction order: one contiguous chunk per core,
    // partials summed by core 0 in core order.
    const u32 chunk = n / cores;
    float want = 0.0f;
    for (u32 i = 0; i < cores; ++i) {
      want += kernels::golden::dotp_f16(
          std::span(x).subspan(i * chunk, chunk),
          std::span(y).subspan(i * chunk, chunk));
    }
    return Expected{res_l1, as_bytes(std::vector<float>{want})};
  };
  return c;
}

/// Exact simulator counts of one round of timed offloads.
struct Counts {
  u64 instret = 0;
  u64 kernel_cycles = 0;
  u64 tcdm_accesses = 0;
  u64 tcdm_conflicts = 0;
  u64 fact_eligible = 0;   // at the end of set-up (all translation is cold)
  u64 code_load_cycles = 0;  // the cold offloads of set-up
  u64 input_digest = snapshot::kFnvOffset;  // inputs of that round
};

class ClusterOffload {
 public:
  explicit ClusterOffload(const Options& options)
      : tracer_(options.trace), rng_(options.seed) {}

  RunResult run(const Options& options) {
    RunResult result;
    double instret = 0.0;
    bool first_round = true;
    // A set-up replaces the SoC and runtime; timed rounds run on the
    // newest one.
    const Phases phases = run_phases(
        options.seconds, options.trace ? 1 : kSetupRepeats,
        [&] {
          if (!set_up()) result.correct = false;
        },
        [&](u64 deadline) {
          std::vector<size_t> order(cases_.size());
          for (size_t i = 0; i < order.size(); ++i) order[i] = i;
          shuffle(order, rng_);
          for (size_t index : order) {
            if (now_ns() >= deadline) break;
            result.tally.record(offload(cases_[index], first_round, instret));
          }
          first_round = false;
        });
    const double wall_s = phases.timed_s;
    if (result.tally.failed != 0) result.correct = false;

    const double ops = static_cast<double>(result.tally.attempted);
    if (!tracer_.enabled()) {
      result.metrics = {
          {"setup_s", median(phases.setup_s), "s"},
          {"ops_per_s", throughput(ops, wall_s), "1/s"},
          {"sim_mips", throughput(instret, wall_s) / 1e6, "MIPS"},
          {"peak_rss_mb", peak_rss_mb(), "MiB"},
      };
      return result;
    }

    const auto layers = tracer_.layers();
    result.metrics = {
        {"traced.ops_per_s", throughput(ops, wall_s), "1/s"},
        {"trace.op_coverage_min",
         tracer_.min_child_coverage("op.cluster_offload"), "ratio"},
        {"runtime.register_ms", mean_self_ns(layers, "runtime.register") / 1e6,
         "ms"},
    };
    for (const KernelCase& c : cases_) {
      result.metrics.push_back(
          {"runtime.offload_ms." + c.name,
           mean_self_ns(layers, "runtime.offload." + c.name) / 1e6, "ms"});
    }
    const double accesses = static_cast<double>(counts_.tcdm_accesses);
    result.metrics.insert(
        result.metrics.end(),
        {
            {"cluster.instret", static_cast<double>(counts_.instret),
             "count"},
            {"cluster.kernel_cycles",
             static_cast<double>(counts_.kernel_cycles), "cycles"},
            {"cluster.tcdm_conflict_ratio",
             accesses == 0 ? 0.0 : counts_.tcdm_conflicts / accesses, "ratio"},
            {"cluster.fact_eligible_blocks",
             static_cast<double>(counts_.fact_eligible), "count"},
            {"runtime.code_load_cycles",
             static_cast<double>(counts_.code_load_cycles), "cycles"},
        });
    tracer_.write_chrome_trace(
        trace_path(options),
        "{\"workload\":\"cluster_offload\",\"input_digest\":\"" +
            std::to_string(counts_.input_digest) + "\"}");
    return result;
  }

 private:
  /// Fresh SoC + runtime, kernels registered and offloaded once cold.
  /// Returns false when a cold result mismatches its golden output.
  bool set_up() {
    rt_.reset();
    soc_ = std::make_unique<core::HulkVSoc>();
    rt_ = std::make_unique<runtime::OffloadRuntime>(soc_.get());
    runtime::OffloadRuntime& rt = *rt_;
    cases_.clear();
    cases_.push_back(matmul_i8(rt));
    cases_.push_back(conv3x3_i8(rt));
    cases_.push_back(fir_i8(rt));
    cases_.push_back(matmul_f16(rt));
    cases_.push_back(dotp_f16(rt, soc_->cluster().num_cores()));

    bool ok = true;
    counts_.code_load_cycles = 0;
    for (KernelCase& c : cases_) {
      {
        const Tracer::Scope s(tracer_, "runtime.register", 0);
        c.handle = rt.register_kernel(c.name, c.program.words,
                                      c.program.symbols);
      }
      u64 digest = snapshot::kFnvOffset;
      const Expected want = c.inputs(*soc_, rng_, digest);
      runtime::OffloadRuntime::OffloadResult cold;
      {
        const Tracer::Scope s(tracer_, "runtime.offload_cold", 0);
        cold = rt.offload(c.handle, c.args);
      }
      counts_.code_load_cycles += cold.code_load;
      c.instret = cold.cluster_instret;
      ok = ok && cold.code_load > 0 && matches(want);
    }
    counts_.fact_eligible = 0;
    for (u32 i = 0; i < soc_->cluster().num_cores(); ++i) {
      counts_.fact_eligible +=
          soc_->cluster().core(i).decode_blocks().fact_eligible_blocks();
    }
    return ok;
  }

  bool matches(const Expected& want) {
    std::vector<u8> got(want.bytes.size());
    soc_->read_mem(want.addr, got.data(), got.size());
    return got == want.bytes;
  }

  /// One timed op: fresh inputs, one warm offload, golden check. The
  /// kernels have no data-dependent control flow, so every offload of a
  /// kernel retires the cold offload's instruction count (its cycles do
  /// move with the LLC and DMA state the previous ops left behind).
  bool offload(const KernelCase& c, bool count, double& instret) {
    const u64 op = next_op_++;
    const Tracer::Scope op_span(tracer_, "op.cluster_offload", op);
    Expected want;
    {
      const Tracer::Scope s(tracer_, "bench.inputs", op);
      u64 digest = counts_.input_digest;
      want = c.inputs(*soc_, rng_, digest);
      if (count) counts_.input_digest = digest;
    }
    const StatGroup& tcdm = soc_->cluster().tcdm().stats();
    const u64 acc0 = tcdm.get("accesses"), conf0 = tcdm.get("conflicts");
    runtime::OffloadRuntime::OffloadResult r;
    {
      const Tracer::Scope s(tracer_, "runtime.offload." + c.name, op);
      r = rt_->offload(c.handle, c.args);
    }
    tracer_.annotate_last("\"kernel_cycles\":" + std::to_string(r.kernel) +
                          ",\"cluster_instret\":" +
                          std::to_string(r.cluster_instret));
    const Tracer::Scope s(tracer_, "bench.check", op);
    instret += static_cast<double>(r.cluster_instret);
    if (count) {
      counts_.instret += r.cluster_instret;
      counts_.kernel_cycles += r.kernel;
      counts_.tcdm_accesses += tcdm.get("accesses") - acc0;
      counts_.tcdm_conflicts += tcdm.get("conflicts") - conf0;
    }
    return r.code_load == 0 && r.cluster_instret == c.instret &&
           matches(want);
  }

  Tracer tracer_;
  Xoshiro256 rng_;
  std::unique_ptr<core::HulkVSoc> soc_;
  std::unique_ptr<runtime::OffloadRuntime> rt_;
  std::vector<KernelCase> cases_;
  Counts counts_;
  u64 next_op_ = 0;
};

}  // namespace

RunResult run_cluster_offload(const Options& options) {
  ClusterOffload bench(options);
  return bench.run(options);
}

}  // namespace perfbench
