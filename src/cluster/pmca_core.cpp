#include "cluster/pmca_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/bitutil.hpp"
#include "common/half.hpp"
#include "common/log.hpp"
#include "isa/disasm.hpp"
#include "isa/rv_ops.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::cluster {

using isa::Op;

namespace {

float f32(u32 raw) { return std::bit_cast<float>(raw); }
u32 raw32(float v) { return std::bit_cast<u32>(v); }

/// Per-lane fp16 helper: op over two packed halves, rounded per lane.
template <typename F>
u32 fp16_lanes(u32 a, u32 b, F&& op) {
  u32 out = 0;
  for (int lane = 0; lane < 2; ++lane) {
    const float x = half_bits_to_float(static_cast<u16>(a >> (16 * lane)));
    const float y = half_bits_to_float(static_cast<u16>(b >> (16 * lane)));
    out |= static_cast<u32>(float_to_half_bits(op(x, y))) << (16 * lane);
  }
  return out;
}

i32 clip(i32 v, unsigned width) {
  const i32 hi = (1 << (width - 1)) - 1;
  const i32 lo = -(1 << (width - 1));
  return std::clamp(v, lo, hi);
}

}  // namespace

PmcaCore::PmcaCore(const PmcaCoreConfig& config, Tcdm* tcdm, Addr tcdm_base,
                   ClusterIcache* icache, mem::SocBus* bus)
    : config_(config),
      tcdm_(tcdm),
      tcdm_base_(tcdm_base),
      tcdm_data_(tcdm != nullptr ? tcdm->storage().data() : nullptr),
      tcdm_size_(tcdm != nullptr ? tcdm->storage().size() : 0),
      icache_(icache),
      bus_(bus),
      stats_("pmca_core" + std::to_string(config.core_id)),
      ctr_loads_(stats_.counter("loads")),
      ctr_stores_(stats_.counter("stores")),
      ctr_mac_ops_(stats_.counter("mac_ops")),
      ctr_simd_ops_(stats_.counter("simd_ops")),
      ctr_taken_branches_(stats_.counter("taken_branches")),
      ctr_hwloop_backedges_(stats_.counter("hwloop_backedges")),
      blocks_([bus](Addr pc) {
        u32 word = 0;
        bus->read_functional(pc, &word, 4);
        return word;
      }) {
  HULKV_CHECK(tcdm != nullptr && icache != nullptr && bus != nullptr,
              "PMCA core needs TCDM, I-cache and bus");
}

namespace {
/// Commit events are batched (one counter event per kCommitBatchSize
/// retired instructions); loads stalling at least kStallThreshold cycles
/// are recorded individually (demand AXI accesses, bad bank conflicts).
constexpr u32 kCommitBatchSize = 1024;
constexpr Cycles kStallThreshold = 8;
}  // namespace

void PmcaCore::trace_commit() {
  if (++pending_commits_ < kCommitBatchSize) return;
  auto& sink = trace::sink();
  sink.counter(sink.resolve(trace_track_, stats_.name()),
               trace::Ev::kCommitBatch, cycle_, pending_commits_);
  pending_commits_ = 0;
}

void PmcaCore::trace_stall(Cycles issue, Cycles stall, Addr addr) {
  auto& sink = trace::sink();
  sink.instant(sink.resolve(trace_track_, stats_.name()), trace::Ev::kStall,
               issue, stall, addr);
}

void PmcaCore::trace_kernel_done(Cycles dispatched) {
  if (!trace::enabled()) return;
  auto& sink = trace::sink();
  const u32 track = sink.resolve(trace_track_, stats_.name());
  if (pending_commits_ > 0) {
    sink.counter(track, trace::Ev::kCommitBatch, cycle_, pending_commits_);
    pending_commits_ = 0;
  }
  sink.complete(track, trace::Ev::kRun, dispatched, cycle_, instret_);
}

void PmcaCore::reset_for_run(Addr entry) {
  std::fill(std::begin(x_), std::end(x_), 0);
  std::fill(std::begin(f_), std::end(f_), 0);
  loops_[0] = loops_[1] = HwLoop{};
  pc_ = entry;
  fetch_line_ = ~0ull;
  state_ = State::kRunning;
}

bool PmcaCore::in_tcdm(Addr addr) const {
  return addr >= tcdm_base_ && addr < tcdm_base_ + tcdm_size_;
}

void PmcaCore::fetch_timing(Addr pc) {
  const Addr line = align_down(pc, 32);
  if (line != fetch_line_) {
    fetch_line_ = line;
    cycle_ = icache_->fetch(config_.core_id, cycle_, pc);
  }
}

u32 PmcaCore::load(Addr addr, u32 bytes, bool sign, Cycles issue) {
  ctr_loads_ += 1;
  u32 value = 0;
  if (in_tcdm(addr)) {
    HULKV_CHECK(addr + bytes <= tcdm_base_ + tcdm_size_,
                "TCDM load crosses the top of L1");
    std::memcpy(&value, tcdm_data_ + (addr - tcdm_base_), bytes);
    cycle_ = std::max(cycle_, tcdm_->access(issue, addr - tcdm_base_, bytes));
  } else {
    // Demand access over the cluster's AXI master port.
    u64 wide = 0;
    const u64 claimed_before = profile::claimed();
    cycle_ = std::max(
        cycle_, bus_->read(issue, addr, &wide, bytes,
                           mem::Master::kClusterCore));
    // The LSU parks the core for the whole AXI round trip; downstream
    // models (LLC, external memory) claimed their shares above, the
    // crossbar/port remainder is the park itself.
    profile::add(profile::Reason::kLsuPark,
                 profile::own_share(cycle_ - issue,
                                    profile::claimed() - claimed_before));
    value = static_cast<u32>(wide);
    stats_.increment("demand_axi_loads");
  }
  if (trace::enabled() && cycle_ > issue + kStallThreshold) {
    trace_stall(issue, cycle_ - issue, addr);
  }
  if (sign) value = static_cast<u32>(sign_extend(value, bytes * 8));
  return value;
}

void PmcaCore::store(Addr addr, u32 value, u32 bytes, Cycles issue) {
  ctr_stores_ += 1;
  if (in_tcdm(addr)) {
    HULKV_CHECK(addr + bytes <= tcdm_base_ + tcdm_size_,
                "TCDM store crosses the top of L1");
    std::memcpy(tcdm_data_ + (addr - tcdm_base_), &value, bytes);
    cycle_ = std::max(cycle_, tcdm_->access(issue, addr - tcdm_base_, bytes));
  } else {
    // Posted write through the AXI port: occupancy advances, no stall —
    // so the profiler must not attribute the hidden latency either.
    const u64 wide = value;
    const profile::SuppressGuard mute;
    bus_->write(issue, addr, &wide, bytes, mem::Master::kClusterCore);
    stats_.increment("demand_axi_stores");
  }
}

void PmcaCore::step() { run_slice(kNoLimitCycle, kNoLimitId, 1); }

void PmcaCore::run_slice(Cycles limit_cycle, u32 limit_id, u64 max_instrs) {
  HULKV_CHECK(state_ == State::kRunning, "stepping a non-running core");
  // With tracing on, every instruction is treated as shared so events
  // reach the process-global sink in exactly the per-instruction
  // scheduling order (run-ahead would reorder the sink's event stream;
  // cycles are identical either way).
  const bool lockstep = trace_ || trace::enabled();
  profile::CoreProfile* prof = profile::attach(prof_handle_, stats_.name());
  // One loop, two instantiations (DESIGN.md §15): the hooked loop
  // whenever something observes single instructions or the interp
  // reference tier is selected, else the fast loop.
  if (prof != nullptr || lockstep || tier_ == isa::ExecTier::kInterp) {
    run_slice_loop<true>(limit_cycle, limit_id, max_instrs, lockstep, prof);
  } else {
    run_slice_loop<false>(limit_cycle, limit_id, max_instrs, false, nullptr);
  }
}

void PmcaCore::apply_hwloops() {
  // Innermost loop first (index 0). A loop fires when control falls onto
  // its end address from the body's last instruction.
  for (int l = 0; l < 2; ++l) {
    HwLoop& loop = loops_[l];
    if (loop.count == 0 || next_pc_ != loop.end) continue;
    if (loop.count > 1) {
      --loop.count;
      next_pc_ = loop.start;  // zero-overhead back edge
      ctr_hwloop_backedges_ += 1;
      return;
    }
    loop.count = 0;  // natural exit, fall through; outer loop may fire too
  }
}

// ---- instruction semantics (DESIGN.md §15) ----
//
// One static handler per PMCA op, `void(PmcaCore&, const
// ThreadedInstr&)` — the only per-op implementation; exec_slow() covers
// the few ops without one. The RV32 base (integer, M, F-single, control
// and memory) is isa::rv::Base, shared with the host; ThreadedPmca
// supplies its policy (taken-branch penalty, next_pc_ target, the LSU
// at issue_cycle_) and the PMCA's own ops: CSRs, Xpulp, fmadd/fmsub
// (they count MACs) and packed FP16. Same ABI as the host table: when a
// handler runs, `cycle_` already includes the static cost (1-cycle
// issue + fixed latency folded into ThreadedInstr::cyc), `issue_cycle_`
// holds the pre-issue cycle, `next_pc_` is the sequential successor and
// `pc_ == t.pc`. Handlers perform every dynamic-cost and stat-counter
// side effect; control ops write `next_pc_` (the dispatch loop applies
// hardware loops and commits `pc_ = next_pc_` per retire).
struct ThreadedPmca {
  using TI = isa::threaded::ThreadedInstr;

  // ---- the isa::rv::Base policy ----
  static void branch(PmcaCore& c, const TI& t, bool taken) {
    if (taken) {
      c.next_pc_ = t.pc + t.imm;
      c.cycle_ += c.config_.taken_branch_penalty;
      c.ctr_taken_branches_ += 1;
    }
  }
  static void jump(PmcaCore& c, Addr target) { c.next_pc_ = target; }
  static u32 load(PmcaCore& c, Addr addr, u32 bytes, bool sign) {
    return c.load(addr, bytes, sign, c.issue_cycle_);
  }
  static void store(PmcaCore& c, Addr addr, u32 value, u32 bytes) {
    c.store(addr, value, bytes, c.issue_cycle_);
  }

  static void csr(PmcaCore& c, const TI& t) {
    const u16 addr = static_cast<u16>(t.imm);
    u32 value = 0;
    if (addr == isa::csr::kMhartid) {
      value = c.config_.core_id;
    } else if (addr == isa::csr::kCycle || addr == isa::csr::kMcycle) {
      value = static_cast<u32>(c.cycle_);
    } else if (addr == isa::csr::kInstret || addr == isa::csr::kMinstret) {
      value = static_cast<u32>(c.instret_);
    }
    c.set_reg(t.rd, value);
  }


  // ---- Xpulp ----
  static void plb(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 1, true, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plbu(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 1, false, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plh(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 2, true, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plhu(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 2, false, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plw(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 4, false, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void psb(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.store(rs1, c.x_[t.rs2], 1, c.issue_cycle_);
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void psh(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.store(rs1, c.x_[t.rs2], 2, c.issue_cycle_);
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void psw(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.store(rs1, c.x_[t.rs2], 4, c.issue_cycle_);
    c.set_reg(t.rs1, rs1 + t.imm);
  }


  static void lp_starti(PmcaCore& c, const TI& t) {
    c.loops_[t.rd & 1].start = t.pc + t.imm;
  }
  static void lp_endi(PmcaCore& c, const TI& t) {
    c.loops_[t.rd & 1].end = t.pc + t.imm;
  }
  static void lp_count(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    HULKV_CHECK(rs1 >= 1, "hardware loop count must be >= 1");
    c.loops_[t.rd & 1].count = rs1;
  }
  static void lp_counti(PmcaCore& c, const TI& t) {
    HULKV_CHECK(t.imm >= 1, "hardware loop count must be >= 1");
    c.loops_[t.rd & 1].count = static_cast<u32>(t.imm);
  }
  static void lp_setup(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    HULKV_CHECK(rs1 >= 1, "hardware loop count must be >= 1");
    PmcaCore::HwLoop& loop = c.loops_[t.rd & 1];
    loop.start = t.pc + 4;
    loop.end = t.pc + t.imm;
    loop.count = rs1;
  }

  static void pmac(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rd] + c.x_[t.rs1] * c.x_[t.rs2]);
    c.ctr_mac_ops_ += 1;
  }
  static void pmsu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rd] - c.x_[t.rs1] * c.x_[t.rs2]);
    c.ctr_mac_ops_ += 1;
  }
  static void pabs(PmcaCore& c, const TI& t) {
    const i32 v = static_cast<i32>(c.x_[t.rs1]);
    c.set_reg(t.rd, static_cast<u32>(v < 0 ? -v : v));
  }
  static void pmin(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    c.set_reg(t.rd, static_cast<i32>(rs1) < static_cast<i32>(rs2) ? rs1 : rs2);
  }
  static void pmax(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    c.set_reg(t.rd, static_cast<i32>(rs1) > static_cast<i32>(rs2) ? rs1 : rs2);
  }
  static void pclip(PmcaCore& c, const TI& t) {
    HULKV_CHECK(t.imm >= 1 && t.imm <= 31, "p.clip width out of range");
    c.set_reg(t.rd, static_cast<u32>(clip(static_cast<i32>(c.x_[t.rs1]),
                                          static_cast<unsigned>(t.imm))));
  }
  static void pexths(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(sign_extend(c.x_[t.rs1] & 0xFFFF, 16)));
  }
  static void pexthz(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & 0xFFFFu);
  }
  static void pextbs(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(sign_extend(c.x_[t.rs1] & 0xFF, 8)));
  }
  static void pextbz(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & 0xFFu);
  }

  template <Op kOp>
  static void pv_b(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    u32 out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      const i8 a = static_cast<i8>(rs1 >> (8 * lane));
      const i8 b = static_cast<i8>(rs2 >> (8 * lane));
      i32 r = 0;
      if constexpr (kOp == Op::kPvAddB) {
        r = static_cast<i8>(a + b);
      } else if constexpr (kOp == Op::kPvSubB) {
        r = static_cast<i8>(a - b);
      } else if constexpr (kOp == Op::kPvMinB) {
        r = std::min(a, b);
      } else {
        r = std::max(a, b);
      }
      out |= (static_cast<u32>(r) & 0xFFu) << (8 * lane);
    }
    c.set_reg(t.rd, out);
    c.ctr_simd_ops_ += 1;
  }
  template <Op kOp>
  static void pv_h(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    u32 out = 0;
    for (int lane = 0; lane < 2; ++lane) {
      const i16 a = static_cast<i16>(rs1 >> (16 * lane));
      const i16 b = static_cast<i16>(rs2 >> (16 * lane));
      i32 r = 0;
      if constexpr (kOp == Op::kPvAddH) {
        r = static_cast<i16>(a + b);
      } else if constexpr (kOp == Op::kPvSubH) {
        r = static_cast<i16>(a - b);
      } else if constexpr (kOp == Op::kPvMinH) {
        r = std::min(a, b);
      } else if constexpr (kOp == Op::kPvMaxH) {
        r = std::max(a, b);
      } else {
        r = static_cast<i16>(a >> (rs2 & 15));
      }
      out |= (static_cast<u32>(r) & 0xFFFFu) << (16 * lane);
    }
    c.set_reg(t.rd, out);
    c.ctr_simd_ops_ += 1;
  }
  template <bool kAccumulate>
  static void pv_dotsp_b(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    i32 acc = kAccumulate ? static_cast<i32>(c.x_[t.rd]) : 0;
    for (int lane = 0; lane < 4; ++lane) {
      acc += static_cast<i32>(static_cast<i8>(rs1 >> (8 * lane))) *
             static_cast<i32>(static_cast<i8>(rs2 >> (8 * lane)));
    }
    c.set_reg(t.rd, static_cast<u32>(acc));
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 4;
  }
  template <bool kAccumulate>
  static void pv_dotsp_h(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    i32 acc = kAccumulate ? static_cast<i32>(c.x_[t.rd]) : 0;
    for (int lane = 0; lane < 2; ++lane) {
      acc += static_cast<i32>(static_cast<i16>(rs1 >> (16 * lane))) *
             static_cast<i32>(static_cast<i16>(rs2 >> (16 * lane)));
    }
    c.set_reg(t.rd, static_cast<u32>(acc));
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }
  static void pv_sdotsp_b_mem(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    const u32 vec = c.load(rs1, 4, false, c.issue_cycle_);
    i32 acc = static_cast<i32>(c.x_[t.rd]);
    for (int lane = 0; lane < 4; ++lane) {
      acc += static_cast<i32>(static_cast<i8>(vec >> (8 * lane))) *
             static_cast<i32>(static_cast<i8>(rs2 >> (8 * lane)));
    }
    c.set_reg(t.rd, acc);
    c.set_reg(t.rs1, rs1 + 4);
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 4;
  }
  static void pv_sdotsp_h_mem(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    const u32 vec = c.load(rs1, 4, false, c.issue_cycle_);
    i32 acc = static_cast<i32>(c.x_[t.rd]);
    for (int lane = 0; lane < 2; ++lane) {
      acc += static_cast<i32>(static_cast<i16>(vec >> (16 * lane))) *
             static_cast<i32>(static_cast<i16>(rs2 >> (16 * lane)));
    }
    c.set_reg(t.rd, acc);
    c.set_reg(t.rs1, rs1 + 4);
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }

  // ---- F (single) beyond the shared base: MACs are counted ----
  static void fmadds(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(std::fma(f32(c.f_[t.rs1]), f32(c.f_[t.rs2]),
                                    f32(c.f_[t.rs3]))));
    c.ctr_mac_ops_ += 1;
  }
  static void fmsubs(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(std::fma(f32(c.f_[t.rs1]), f32(c.f_[t.rs2]),
                                    -f32(c.f_[t.rs3]))));
    c.ctr_mac_ops_ += 1;
  }

  static void vfaddh(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, fp16_lanes(c.f_[t.rs1], c.f_[t.rs2],
                                [](float a, float b) { return a + b; }));
    c.ctr_simd_ops_ += 1;
  }
  static void vfsubh(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, fp16_lanes(c.f_[t.rs1], c.f_[t.rs2],
                                [](float a, float b) { return a - b; }));
    c.ctr_simd_ops_ += 1;
  }
  static void vfmulh(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, fp16_lanes(c.f_[t.rs1], c.f_[t.rs2],
                                [](float a, float b) { return a * b; }));
    c.ctr_simd_ops_ += 1;
  }
  static void vfmach(PmcaCore& c, const TI& t) {
    u32 out = 0;
    for (int lane = 0; lane < 2; ++lane) {
      const float a =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs1] >> (16 * lane)));
      const float b =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs2] >> (16 * lane)));
      const float d =
          half_bits_to_float(static_cast<u16>(c.f_[t.rd] >> (16 * lane)));
      out |= static_cast<u32>(float_to_half_bits(std::fma(a, b, d)))
             << (16 * lane);
    }
    c.set_freg(t.rd, out);
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }
  static void vfdotpexsh(PmcaCore& c, const TI& t) {
    float acc = f32(c.f_[t.rd]);
    for (int lane = 0; lane < 2; ++lane) {
      const float a =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs1] >> (16 * lane)));
      const float b =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs2] >> (16 * lane)));
      acc = std::fma(a, b, acc);
    }
    c.set_freg(t.rd, raw32(acc));
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }
  static void vfcvths(PmcaCore& c, const TI& t) {
    const u16 lo = float_to_half_bits(f32(c.f_[t.rs1]));
    const u16 hi = float_to_half_bits(f32(c.f_[t.rs2]));
    c.set_freg(t.rd, static_cast<u32>(lo) | (static_cast<u32>(hi) << 16));
  }
};

isa::threaded::HandlerInfo threaded_resolve(isa::Op op,
                                            const PmcaCoreConfig& cfg) {
  using isa::rv::lat;
  using isa::rv::plain;
  using isa::threaded::HandlerInfo;
  using H = ThreadedPmca;
  using B = isa::rv::Base<PmcaCore, H>;
  if (const HandlerInfo base = isa::rv::resolve_base<PmcaCore, H>(op, cfg);
      base.fn != nullptr) {
    return base;
  }
  switch (op) {
    case Op::kPLbPost: return plain(&H::plb);
    case Op::kPLbuPost: return plain(&H::plbu);
    case Op::kPLhPost: return plain(&H::plh);
    case Op::kPLhuPost: return plain(&H::plhu);
    case Op::kPLwPost: return plain(&H::plw);
    case Op::kPSbPost: return plain(&H::psb);
    case Op::kPShPost: return plain(&H::psh);
    case Op::kPSwPost: return plain(&H::psw);
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: return plain(&H::csr);
    case Op::kLpStarti: return plain(&H::lp_starti);
    case Op::kLpEndi: return plain(&H::lp_endi);
    case Op::kLpCount: return plain(&H::lp_count);
    case Op::kLpCounti: return plain(&H::lp_counti);
    case Op::kLpSetup: return plain(&H::lp_setup);
    case Op::kPMac: return lat(&H::pmac, cfg.mul_latency);
    case Op::kPMsu: return lat(&H::pmsu, cfg.mul_latency);
    case Op::kPAbs: return plain(&H::pabs);
    case Op::kPMin: return plain(&H::pmin);
    case Op::kPMax: return plain(&H::pmax);
    case Op::kPClip: return plain(&H::pclip);
    case Op::kPExths: return plain(&H::pexths);
    case Op::kPExthz: return plain(&H::pexthz);
    case Op::kPExtbs: return plain(&H::pextbs);
    case Op::kPExtbz: return plain(&H::pextbz);
    case Op::kPvAddB: return plain(&H::pv_b<Op::kPvAddB>);
    case Op::kPvSubB: return plain(&H::pv_b<Op::kPvSubB>);
    case Op::kPvMinB: return plain(&H::pv_b<Op::kPvMinB>);
    case Op::kPvMaxB: return plain(&H::pv_b<Op::kPvMaxB>);
    case Op::kPvAddH: return plain(&H::pv_h<Op::kPvAddH>);
    case Op::kPvSubH: return plain(&H::pv_h<Op::kPvSubH>);
    case Op::kPvMinH: return plain(&H::pv_h<Op::kPvMinH>);
    case Op::kPvMaxH: return plain(&H::pv_h<Op::kPvMaxH>);
    case Op::kPvSraH: return plain(&H::pv_h<Op::kPvSraH>);
    case Op::kPvDotspB: return lat(&H::pv_dotsp_b<false>, cfg.mul_latency);
    case Op::kPvSdotspB: return lat(&H::pv_dotsp_b<true>, cfg.mul_latency);
    case Op::kPvDotspH: return lat(&H::pv_dotsp_h<false>, cfg.mul_latency);
    case Op::kPvSdotspH: return lat(&H::pv_dotsp_h<true>, cfg.mul_latency);
    // The fused MAC-&-load pair is LSU-timed only: no extra multiplier
    // latency.
    case Op::kPvSdotspBMem: return plain(&H::pv_sdotsp_b_mem);
    case Op::kPvSdotspHMem: return plain(&H::pv_sdotsp_h_mem);
    // fdiv/fsqrt cost is a fixed 12 cycles, not a config latency; the
    // shared FPU's min/max is single-cycle.
    case Op::kFdivS: return lat(&B::fdiv_s, 12);
    case Op::kFsqrtS: return lat(&B::fsqrt_s, 12);
    case Op::kFminS: return plain(&B::fmin_s);
    case Op::kFmaxS: return plain(&B::fmax_s);
    case Op::kFmaddS: return lat(&H::fmadds, cfg.fpu_latency);
    case Op::kFmsubS: return lat(&H::fmsubs, cfg.fpu_latency);
    case Op::kVfaddH: return lat(&H::vfaddh, cfg.fpu_latency);
    case Op::kVfsubH: return lat(&H::vfsubh, cfg.fpu_latency);
    case Op::kVfmulH: return lat(&H::vfmulh, cfg.fpu_latency);
    case Op::kVfmacH: return lat(&H::vfmach, cfg.fpu_latency);
    case Op::kVfdotpexSH: return lat(&H::vfdotpexsh, cfg.fpu_latency);
    case Op::kVfcvtHS: return lat(&H::vfcvths, cfg.fpu_latency);
    default:
      // ecall/ebreak, kIllegal, kWfi and the host-only RV64/D ops:
      // retired (or faulted, with the exact pc) by exec_slow().
      return HandlerInfo{nullptr, 1};
  }
}

void PmcaCore::exec_slow(Op op) {
  switch (op) {
    case Op::kEcall:
      HULKV_CHECK(static_cast<bool>(env_),
                  "PMCA ecall without an environment handler");
      env_(*this);
      break;
    case Op::kEbreak:
      throw SimError("PMCA ebreak at pc=" + hex_addr(pc_));
    default:
      throw SimError("PMCA cannot execute '" +
                     std::string(isa::mnemonic(op)) + "' at pc=" +
                     hex_addr(pc_) + " (RV64/D instructions are host-only)");
  }
}

// The slice loop over the block's lowered code. Per-retire state —
// issue_cycle_, next_pc_, hardware-loop application, pc_ commit — is
// kept per instruction (all of it is serialized, digest-relevant
// state). The run-ahead horizon check: an instruction that may touch
// cross-core state — memory, an envcall/trap, or a fetch missing the
// core's private I-cache — may only execute while this core is still
// the global laggard, so shared-resource reservations keep the exact
// (cycle, core_id) order of per-instruction min-clock scheduling. Pure
// ALU and control flow fetching from the private I-cache are core-local
// and run ahead of the horizon (their interleaving is unobservable).
// kFlagShared mirrors the block's (fact-narrowed) shared_mask bit.
//
// kHooks = false takes the new-fetch-line condition from the lowered
// line flags. kHooks = true is the reference and the instrumented path:
// a dynamic line compare and fetch_timing(pc) per instruction, profiler
// brackets, the trace log and commit batching, and — with `lockstep`
// (tracing on) — every instruction treated as shared, so events reach
// the process-global sink in exactly the per-instruction scheduling
// order.
template <bool kHooks>
void PmcaCore::run_slice_loop(Cycles limit_cycle, u32 limit_id,
                              u64 max_instrs, bool lockstep,
                              profile::CoreProfile* prof) {
  using PmcaFn = void (*)(PmcaCore&, const isa::threaded::ThreadedInstr&);
  const auto retire_hooks = [&](const isa::DecodedBlock& block, size_t i) {
    if (prof != nullptr) prof->end_instr(block, i, cycle_);
    if (trace::enabled()) trace_commit();
  };
  u64 executed = 0;
  while (true) {
    isa::DecodedBlock& block = blocks_.block_for_exec(pc_);
    if (block.threaded.generation != block.generation) {
      const telemetry::Span span(telemetry::SpanPhase::kThreadedLower);
      isa::threaded::lower(
          block, 32, /*want_shared=*/true,
          [](isa::Op op, const void* ctx) {
            return threaded_resolve(
                op, *static_cast<const PmcaCoreConfig*>(ctx));
          },
          &config_, &block.threaded);
    }
    const size_t count = block.threaded.code.size();
    const isa::threaded::ThreadedInstr* code = block.threaded.code.data();
    for (size_t i = 0; i < count; ++i) {
      const isa::threaded::ThreadedInstr& t = code[i];
      // Loop invariant: pc_ == t.pc (established by the block probe for
      // i == 0 and by the sequential-pc break below for i > 0), so a
      // yield here resumes at exactly this instruction.
      bool newline = false;
      if constexpr (kHooks) {
        newline = align_down(t.pc, 32) != fetch_line_;
      } else if ((t.flags & isa::threaded::kFlagLineCheck) != 0) {
        newline = align_down(t.pc, 32) != fetch_line_;
      } else if ((t.flags & isa::threaded::kFlagLineEntry) != 0) {
        newline = true;  // statically a new line within the block
      }
      const bool shared =
          (kHooks && lockstep) ||
          (t.flags & isa::threaded::kFlagShared) != 0 ||
          (newline && !icache_->private_hit(config_.core_id, t.pc));
      if (shared && (cycle_ > limit_cycle ||
                     (cycle_ == limit_cycle &&
                      config_.core_id >= limit_id))) {
        return;  // yield before executing; the scheduler re-picks the min
      }
      if constexpr (kHooks) {
        if (prof != nullptr) prof->begin_instr(cycle_);
        fetch_timing(t.pc);
        if (trace_) {
          log(LogLevel::kTrace, stats_.name(), "cyc=", cycle_, " pc=0x",
              std::hex, t.pc, std::dec, "  ", isa::disasm(block.instrs[i]));
        }
      } else if (newline) {
        fetch_line_ = align_down(t.pc, 32);
        cycle_ = icache_->fetch(config_.core_id, cycle_, t.pc);
      }
      next_pc_ = t.pc + 4;
      issue_cycle_ = cycle_;
      cycle_ += t.cyc;
      if ((t.flags & isa::threaded::kFlagSlow) != 0) {
        // ecall/ebreak (the block's last instruction) or a fault. A
        // retired envcall ends the slice: it may have stopped this core
        // (exit, barrier) or woken others — the ready set changed under
        // the scheduler.
        exec_slow(t.op);
        ++instret_;
        if constexpr (kHooks) retire_hooks(block, i);
        if (state_ == State::kRunning || state_ == State::kBlocked) {
          apply_hwloops();
          pc_ = next_pc_;
        }
        return;
      }
      reinterpret_cast<PmcaFn>(t.fn)(*this, t);
      ++instret_;
      ++executed;
      if constexpr (kHooks) retire_hooks(block, i);
      // Handlers never change the run state (ecall has none), so
      // hardware loops and the pc commit are unconditional.
      apply_hwloops();
      pc_ = next_pc_;
      if (executed >= max_instrs) return;
      if (pc_ != t.pc + 4) break;  // taken branch or hw-loop back edge
    }
  }
}

void PmcaCore::serialize(snapshot::Archive& ar) {
  ar.bytes(x_, sizeof(x_));
  ar.bytes(f_, sizeof(f_));
  ar.pod(pc_);
  ar.pod(next_pc_);
  ar.pod(cycle_);
  ar.pod(issue_cycle_);
  ar.pod(instret_);
  u32 state = static_cast<u32>(state_);
  ar.pod(state);
  if (ar.loading()) state_ = static_cast<State>(state);
  // Field by field: HwLoop has padding bytes.
  for (HwLoop& loop : loops_) {
    ar.pod(loop.start);
    ar.pod(loop.end);
    ar.pod(loop.count);
  }
  ar.pod(fetch_line_);
  ar.pod(pending_commits_);
  stats_.serialize(ar);
  if (ar.loading()) blocks_.invalidate();
}

void PmcaCore::reset() {
  std::fill(std::begin(x_), std::end(x_), 0);
  std::fill(std::begin(f_), std::end(f_), 0);
  pc_ = 0;
  next_pc_ = 0;
  cycle_ = 0;
  issue_cycle_ = 0;
  instret_ = 0;
  state_ = State::kFinished;
  loops_[0] = loops_[1] = HwLoop{};
  fetch_line_ = ~0ull;
  pending_commits_ = 0;
  stats_.reset();
  blocks_.invalidate();
}

}  // namespace hulkv::cluster
