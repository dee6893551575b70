#include "host/cva6.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/bitutil.hpp"
#include "common/log.hpp"
#include "isa/disasm.hpp"
#include "isa/rv_ops.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::host {

using isa::Op;

namespace {

/// Tracing thresholds: commits are batched (one counter event per
/// kCommitBatchSize retired instructions); loads stalling longer than
/// kStallThreshold cycles (cache misses reaching external memory) are
/// recorded individually.
constexpr u32 kCommitBatchSize = 1024;
constexpr Cycles kStallThreshold = 16;

float as_f32(u64 raw) { return std::bit_cast<float>(static_cast<u32>(raw)); }
u64 boxed(float v) {
  return 0xFFFFFFFF00000000ull | std::bit_cast<u32>(v);
}
double as_f64(u64 raw) { return std::bit_cast<double>(raw); }
u64 raw64(double v) { return std::bit_cast<u64>(v); }

i32 cvt_f_to_i32(double v) {
  if (std::isnan(v)) return std::numeric_limits<i32>::max();
  if (v >= 2147483647.0) return std::numeric_limits<i32>::max();
  if (v <= -2147483648.0) return std::numeric_limits<i32>::min();
  return static_cast<i32>(std::nearbyint(v));
}

i64 cvt_f_to_i64(double v) {
  if (std::isnan(v)) return std::numeric_limits<i64>::max();
  if (v >= 9.2233720368547758e18) return std::numeric_limits<i64>::max();
  if (v <= -9.2233720368547758e18) return std::numeric_limits<i64>::min();
  return static_cast<i64>(std::nearbyint(v));
}

}  // namespace

Cva6Core::Cva6Core(const Cva6Config& config, mem::SocBus* bus)
    : config_(config),
      bus_(bus),
      dram_(bus->dram_store()),
      icache_(config.icache, bus->dram_timing()),
      dcache_(config.dcache, bus->dram_timing()),
      stats_("cva6"),
      ctr_loads_(stats_.counter("loads")),
      ctr_stores_(stats_.counter("stores")),
      ctr_taken_branches_(stats_.counter("taken_branches")),
      ctr_branch_mispredicts_(stats_.counter("branch_mispredicts")),
      blocks_([bus](Addr pc) {
        u32 word = 0;
        bus->read_functional(pc, &word, 4);
        return word;
      }) {
  HULKV_CHECK(bus != nullptr, "core needs a bus");
  HULKV_CHECK(bus->dram_timing() != nullptr,
              "attach external memory to the bus before building the core");
  HULKV_CHECK(dram_ != nullptr,
              "attach external memory to the bus before building the core");
  if (config.enable_mmu) {
    // Page-table walks go through the L1D path, so PTE lines are cached
    // and walk cost scales with the memory configuration.
    const auto pte_reader = [this](Cycles now, Addr pte_addr) {
      return dcache_.access(now, pte_addr, 8, /*is_write=*/false);
    };
    itlb_ = std::make_unique<Tlb>(config.tlb, pte_reader);
    dtlb_ = std::make_unique<Tlb>(config.tlb, pte_reader);
  }
  pc_ = config.boot_pc;
}

void Cva6Core::advance_to(Cycles cycle) {
  if (cycle > cycle_) cycle_ = cycle;
}

bool Cva6Core::dram_cached(Addr addr) const {
  return addr >= mem::map::kDramBase;
}

void Cva6Core::fetch_timing(Addr pc) {
  // I-cache timing: pay once per line entered.
  const Addr line = align_down(pc, config_.icache.line_bytes);
  if (line != fetch_line_) {
    fetch_line_ = line;
    if (itlb_ && dram_cached(pc)) {
      // The whole walk — including its PTE reads through the L1D path —
      // is one stall to the profiler, so nested attribution is muted.
      const Cycles walk_start = cycle_;
      {
        const profile::SuppressGuard mute;
        cycle_ = itlb_->translate(cycle_, pc);
      }
      profile::add(profile::Reason::kHostTlbWalk, cycle_ - walk_start);
    }
    cycle_ = icache_.access(cycle_, pc, 4, /*is_write=*/false);
  }
}

u64 Cva6Core::load(Addr addr, u32 bytes, bool sign) {
  u64 value = 0;
  ctr_loads_ += 1;
  const Cycles issue = cycle_;
  if (dram_cached(addr)) {
    if (dtlb_) {
      const Cycles walk_start = cycle_;
      {
        const profile::SuppressGuard mute;
        cycle_ = dtlb_->translate(cycle_, addr);
      }
      profile::add(profile::Reason::kHostTlbWalk, cycle_ - walk_start);
    }
    if (addr + bytes <= mem::map::kDramBase + mem::map::kDramSize) {
      dram_->read(addr, &value, bytes);  // page-pointer fast path
    } else {
      bus_->read_functional(addr, &value, bytes);  // out of range: faults
    }
    cycle_ = dcache_.access(cycle_, addr, bytes, /*is_write=*/false);
  } else {
    const u64 claimed_before = profile::claimed();
    cycle_ = bus_->read(cycle_, addr, &value, bytes, mem::Master::kHost);
    // Crossbar + target latency beyond what instrumented models (LLC,
    // external memory) already claimed: the uncached-read stall.
    profile::add(profile::Reason::kUncachedBus,
                 profile::own_share(cycle_ - issue,
                                    profile::claimed() - claimed_before));
  }
  if (trace::enabled() && cycle_ > issue + kStallThreshold) {
    trace_track_.instant(trace::Ev::kStall, issue, cycle_ - issue, addr);
  }
  if (sign) value = sign_extend(value, bytes * 8);
  return value;
}

void Cva6Core::store(Addr addr, u64 value, u32 bytes) {
  ctr_stores_ += 1;
  if (dram_cached(addr)) {
    if (dtlb_) {
      const Cycles walk_start = cycle_;
      {
        const profile::SuppressGuard mute;
        cycle_ = dtlb_->translate(cycle_, addr);
      }
      profile::add(profile::Reason::kHostTlbWalk, cycle_ - walk_start);
    }
    if (addr + bytes <= mem::map::kDramBase + mem::map::kDramSize) {
      dram_->write(addr, &value, bytes);  // page-pointer fast path
    } else {
      bus_->write_functional(addr, &value, bytes);  // out of range: faults
    }
    // Write-through store buffer: downstream occupancy advances, the core
    // does not stall (CacheModel hides the downstream latency) — so the
    // profiler must not attribute the hidden latency either.
    const profile::SuppressGuard mute;
    dcache_.access(cycle_, addr, bytes, /*is_write=*/true);
  } else {
    // Uncached stores post through the crossbar; the AXI write buffer
    // hides the target latency from the core.
    const profile::SuppressGuard mute;
    bus_->write(cycle_, addr, &value, bytes, mem::Master::kHost);
  }
}

u64 Cva6Core::csr_read(u16 csr) const {
  switch (csr) {
    case isa::csr::kCycle:
    case isa::csr::kMcycle:
      return cycle_;
    case isa::csr::kInstret:
    case isa::csr::kMinstret:
      return instret_;
    case isa::csr::kMhartid:
      return 0;
    default:
      return 0;
  }
}

void Cva6Core::trace_commit() {
  if (++pending_commits_ < kCommitBatchSize) return;
  trace_track_.counter(trace::Ev::kCommitBatch, cycle_, pending_commits_);
  pending_commits_ = 0;
}

Cva6Core::RunResult Cva6Core::run(u64 max_instructions) {
  // One host-dispatch telemetry span per run() chunk — outside the
  // dispatch loop, so the disabled-mode loop body is untouched.
  const telemetry::Span span(telemetry::SpanPhase::kHostDispatch);
  const Cycles start_cycle = cycle_;
  const u64 start_instret = instret_;
  exited_ = false;

  // One loop, two instantiations (DESIGN.md §15): the hooked loop
  // whenever something observes single instructions (profiler, trace
  // log, event trace) or the interp reference tier is selected; else the
  // fast loop, specialized on whether the budget can bind (run()'s
  // default UINT64_MAX cannot; checkpointed runs keep the arithmetic).
  profile::CoreProfile* prof = profile::attach(prof_handle_, stats_.name());
  if (prof != nullptr || trace_ || trace::enabled() ||
      tier_ == isa::ExecTier::kInterp) {
    dispatch<true, true>(max_instructions, start_instret, prof);
  } else if (max_instructions == UINT64_MAX) {
    dispatch<false, false>(UINT64_MAX, start_instret, nullptr);
  } else {
    dispatch<false, true>(max_instructions, start_instret, nullptr);
  }

  stats_.set("cycles", cycle_);
  stats_.set("instret", instret_);
  if (trace::enabled()) {
    // Close the run interval and flush the commit remainder so windowed
    // commit totals equal instret exactly.
    if (pending_commits_ > 0) {
      trace_track_.counter(trace::Ev::kCommitBatch, cycle_, pending_commits_);
      pending_commits_ = 0;
    }
    trace_track_.complete(trace::Ev::kRun, start_cycle, cycle_,
                          instret_ - start_instret);
  }
  return {cycle_ - start_cycle, instret_ - start_instret, exit_code_,
          exited_};
}

// ---- instruction semantics (DESIGN.md §15) ----
//
// One static handler per host op, `void(Cva6Core&, const ThreadedInstr&)`
// — the only per-op implementation; exec_slow() covers the few ops
// without one. The RV32 base (integer, M, F-single, control and
// memory) is isa::rv::Base, shared with the PMCA; ThreadedHost supplies
// its policy (branch timing, pc target, LSU) and the host's own ops:
// RV64I, the W-ops, CSRs, fmadd/fmsub, the 64-bit conversions and D.
// The handler ABI: when a handler runs, `cycle_` already includes the
// instruction's static cost (1-cycle issue + fixed functional-unit
// latency, folded into ThreadedInstr::cyc at lower time) and
// `instret_` does NOT yet count the instruction. Dynamic
// costs (cache misses, TLB walks, branch-mispredict flushes) and every
// stat-counter side effect stay in the handler. Handlers never touch
// pc_/next_pc_ except the control ops (jal/jalr/branches), which write
// the successor into pc_ directly; the dispatch loop re-establishes
// `next_pc_ == pc_` at every block end.
struct ThreadedHost {
  using TI = isa::threaded::ThreadedInstr;

  // ---- the isa::rv::Base policy ----
  /// CVA6 has a branch predictor; we model static BTFN (backward taken,
  /// forward not-taken): loop back-edges are free, mispredictions
  /// (forward taken, or a not-taken backward branch such as a loop exit)
  /// pay the pipeline flush.
  static void branch(Cva6Core& c, const TI& t, bool taken) {
    if (taken) {
      c.pc_ = t.pc + t.imm;
      c.ctr_taken_branches_ += 1;
      if (t.imm > 0) {
        c.cycle_ += c.config_.taken_branch_penalty;
        c.ctr_branch_mispredicts_ += 1;
      }
    } else {
      c.pc_ = t.pc + 4;
      if (t.imm < 0) {
        c.cycle_ += c.config_.taken_branch_penalty;
        c.ctr_branch_mispredicts_ += 1;
      }
    }
  }
  static void jump(Cva6Core& c, Addr target) { c.pc_ = target; }
  static u64 load(Cva6Core& c, Addr addr, u32 bytes, bool sign) {
    return c.load(addr, bytes, sign);
  }
  static void store(Cva6Core& c, Addr addr, u64 value, u32 bytes) {
    c.store(addr, value, bytes);
  }

  // ---- RV64I ----
  static void wr32(Cva6Core& c, u8 rd, u64 v) {
    c.set_reg(rd, sign_extend(v & 0xFFFFFFFFull, 32));
  }
  static void lwu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 4, false));
  }
  static void ld(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 8, false));
  }
  static void sd(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 8);
  }

  static void addiw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] + t.imm);
  }
  static void slliw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] << (t.imm & 31));
  }
  static void srliw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, static_cast<u32>(c.x_[t.rs1]) >> (t.imm & 31));
  }
  static void sraiw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd,
         static_cast<u64>(static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) >>
                          (t.imm & 31)));
  }
  static void addw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] + c.x_[t.rs2]);
  }
  static void subw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] - c.x_[t.rs2]);
  }
  static void sllw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] << (c.x_[t.rs2] & 31));
  }
  static void srlw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, static_cast<u32>(c.x_[t.rs1]) >> (c.x_[t.rs2] & 31));
  }
  static void sraw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd,
         static_cast<u64>(static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) >>
                          (c.x_[t.rs2] & 31)));
  }
  static void mulw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd,
         static_cast<u64>(static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) *
                          static_cast<i64>(static_cast<i32>(c.x_[t.rs2]))));
  }
  static void divw(Cva6Core& c, const TI& t) {
    const i32 a = static_cast<i32>(c.x_[t.rs1]);
    const i32 b = static_cast<i32>(c.x_[t.rs2]);
    i32 r;
    if (b == 0) {
      r = -1;
    } else if (a == std::numeric_limits<i32>::min() && b == -1) {
      r = a;
    } else {
      r = a / b;
    }
    wr32(c, t.rd, static_cast<u32>(r));
  }
  static void divuw(Cva6Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.x_[t.rs1]);
    const u32 b = static_cast<u32>(c.x_[t.rs2]);
    wr32(c, t.rd, b == 0 ? ~0u : a / b);
  }
  static void remw(Cva6Core& c, const TI& t) {
    const i32 a = static_cast<i32>(c.x_[t.rs1]);
    const i32 b = static_cast<i32>(c.x_[t.rs2]);
    i32 r;
    if (b == 0) {
      r = a;
    } else if (a == std::numeric_limits<i32>::min() && b == -1) {
      r = 0;
    } else {
      r = a % b;
    }
    wr32(c, t.rd, static_cast<u32>(r));
  }
  static void remuw(Cva6Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.x_[t.rs1]);
    const u32 b = static_cast<u32>(c.x_[t.rs2]);
    wr32(c, t.rd, b == 0 ? a : a % b);
  }

  static void csr(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.csr_read(static_cast<u16>(t.imm)));
  }

  // ---- F (single) beyond the shared base ----
  static void fmadds(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(std::fma(as_f32(c.f_[t.rs1]), as_f32(c.f_[t.rs2]),
                                    as_f32(c.f_[t.rs3]))));
  }
  static void fmsubs(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(std::fma(as_f32(c.f_[t.rs1]), as_f32(c.f_[t.rs2]),
                                    -as_f32(c.f_[t.rs3]))));
  }
  static void fcvtls(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(cvt_f_to_i64(as_f32(c.f_[t.rs1]))));
  }
  static void fcvtsl(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               boxed(static_cast<float>(static_cast<i64>(c.x_[t.rs1]))));
  }

  // ---- D ----
  static void fld(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, c.load(c.x_[t.rs1] + t.imm, 8, false));
  }
  static void fsd(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.f_[t.rs2], 8);
  }
  static void faddd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) + as_f64(c.f_[t.rs2])));
  }
  static void fsubd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) - as_f64(c.f_[t.rs2])));
  }
  static void fmuld(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) * as_f64(c.f_[t.rs2])));
  }
  static void fdivd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) / as_f64(c.f_[t.rs2])));
  }
  static void fmaddd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(std::fma(as_f64(c.f_[t.rs1]), as_f64(c.f_[t.rs2]),
                                    as_f64(c.f_[t.rs3]))));
  }
  static void fmsubd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(std::fma(as_f64(c.f_[t.rs1]), as_f64(c.f_[t.rs2]),
                                    -as_f64(c.f_[t.rs3]))));
  }
  static void fsgnjd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, (c.f_[t.rs1] & 0x7FFFFFFFFFFFFFFFull) |
                         (c.f_[t.rs2] & 0x8000000000000000ull));
  }
  static void fsgnjnd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, (c.f_[t.rs1] & 0x7FFFFFFFFFFFFFFFull) |
                         (~c.f_[t.rs2] & 0x8000000000000000ull));
  }
  static void fsgnjxd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, c.f_[t.rs1] ^ (c.f_[t.rs2] & 0x8000000000000000ull));
  }
  static void feqd(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f64(c.f_[t.rs1]) == as_f64(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fltd(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f64(c.f_[t.rs1]) < as_f64(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fled(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f64(c.f_[t.rs1]) <= as_f64(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fcvtwd(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, sign_extend(static_cast<u32>(cvt_f_to_i32(
                                    as_f64(c.f_[t.rs1]))),
                                32));
  }
  static void fcvtld(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(cvt_f_to_i64(as_f64(c.f_[t.rs1]))));
  }
  static void fcvtdw(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               raw64(static_cast<double>(static_cast<i32>(c.x_[t.rs1]))));
  }
  static void fcvtdl(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               raw64(static_cast<double>(static_cast<i64>(c.x_[t.rs1]))));
  }
  static void fcvtds(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(static_cast<double>(as_f32(c.f_[t.rs1]))));
  }
  static void fcvtsd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(static_cast<float>(as_f64(c.f_[t.rs1]))));
  }
  static void fmvxd(Cva6Core& c, const TI& t) { c.set_reg(t.rd, c.f_[t.rs1]); }
  static void fmvdx(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, c.x_[t.rs1]);
  }
};

isa::threaded::HandlerInfo threaded_resolve(isa::Op op,
                                            const Cva6Config& cfg) {
  using isa::rv::lat;
  using isa::rv::plain;
  using isa::threaded::HandlerInfo;
  using H = ThreadedHost;
  using B = isa::rv::Base<Cva6Core, H>;
  if (const HandlerInfo base =
          isa::rv::resolve_base<Cva6Core, H>(op, cfg);
      base.fn != nullptr) {
    return base;
  }
  switch (op) {
    case Op::kLwu: return plain(&H::lwu);
    case Op::kLd: return plain(&H::ld);
    case Op::kSd: return plain(&H::sd);
    case Op::kAddiw: return plain(&H::addiw);
    case Op::kSlliw: return plain(&H::slliw);
    case Op::kSrliw: return plain(&H::srliw);
    case Op::kSraiw: return plain(&H::sraiw);
    case Op::kAddw: return plain(&H::addw);
    case Op::kSubw: return plain(&H::subw);
    case Op::kSllw: return plain(&H::sllw);
    case Op::kSrlw: return plain(&H::srlw);
    case Op::kSraw: return plain(&H::sraw);
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: return plain(&H::csr);
    case Op::kMulw: return lat(&H::mulw, cfg.mul_latency);
    case Op::kDivw: return lat(&H::divw, cfg.div_latency);
    case Op::kDivuw: return lat(&H::divuw, cfg.div_latency);
    case Op::kRemw: return lat(&H::remw, cfg.div_latency);
    case Op::kRemuw: return lat(&H::remuw, cfg.div_latency);
    case Op::kFld: return plain(&H::fld);
    case Op::kFsd: return plain(&H::fsd);
    case Op::kFdivS: return lat(&B::fdiv_s, cfg.fdiv_latency);
    case Op::kFsqrtS: return lat(&B::fsqrt_s, cfg.fdiv_latency);
    case Op::kFminS: return lat(&B::fmin_s, cfg.fpu_latency);
    case Op::kFmaxS: return lat(&B::fmax_s, cfg.fpu_latency);
    case Op::kFmaddS: return lat(&H::fmadds, cfg.fpu_latency);
    case Op::kFmsubS: return lat(&H::fmsubs, cfg.fpu_latency);
    case Op::kFcvtLS: return lat(&H::fcvtls, cfg.fpu_latency);
    case Op::kFcvtSL: return lat(&H::fcvtsl, cfg.fpu_latency);
    case Op::kFaddD: return lat(&H::faddd, cfg.fpu_latency);
    case Op::kFsubD: return lat(&H::fsubd, cfg.fpu_latency);
    case Op::kFmulD: return lat(&H::fmuld, cfg.fpu_latency);
    case Op::kFdivD: return lat(&H::fdivd, cfg.fdiv_latency);
    case Op::kFmaddD: return lat(&H::fmaddd, cfg.fpu_latency);
    case Op::kFmsubD: return lat(&H::fmsubd, cfg.fpu_latency);
    case Op::kFsgnjD: return plain(&H::fsgnjd);
    case Op::kFsgnjnD: return plain(&H::fsgnjnd);
    case Op::kFsgnjxD: return plain(&H::fsgnjxd);
    case Op::kFeqD: return plain(&H::feqd);
    case Op::kFltD: return plain(&H::fltd);
    case Op::kFleD: return plain(&H::fled);
    case Op::kFcvtWD: return lat(&H::fcvtwd, cfg.fpu_latency);
    case Op::kFcvtDW: return lat(&H::fcvtdw, cfg.fpu_latency);
    case Op::kFcvtDS: return lat(&H::fcvtds, cfg.fpu_latency);
    case Op::kFcvtSD: return lat(&H::fcvtsd, cfg.fpu_latency);
    case Op::kFcvtLD: return lat(&H::fcvtld, cfg.fpu_latency);
    case Op::kFcvtDL: return lat(&H::fcvtdl, cfg.fpu_latency);
    case Op::kFmvXD: return plain(&H::fmvxd);
    case Op::kFmvDX: return plain(&H::fmvdx);
    default:
      // ecall/ebreak/wfi, kIllegal and the PMCA-only Xpulp extensions:
      // retired (or faulted, with the exact pc) by exec_slow().
      return HandlerInfo{nullptr, 1};
  }
}

void Cva6Core::exec_slow(Op op) {
  switch (op) {
    case Op::kEcall: {
      const u64 num = x_[isa::reg::a7];
      if (num == 93) {  // exit
        exited_ = true;
        exit_code_ = x_[isa::reg::a0];
      } else if (num == 64) {  // write(buf = a0, len = a1)
        std::string text(x_[isa::reg::a1], '\0');
        bus_->read_functional(x_[isa::reg::a0], text.data(), text.size());
        std::fwrite(text.data(), 1, text.size(), stdout);
      } else if (syscall_) {
        if (syscall_(*this) == SyscallAction::kExit) exited_ = true;
      } else {
        throw SimError("unhandled ecall, a7=" + std::to_string(num));
      }
      break;
    }
    case Op::kEbreak:
      throw SimError("ebreak executed at pc=" + hex_addr(pc_));
    case Op::kWfi:
      if (wfi_) {
        const Cycles sleep_start = cycle_;
        advance_to(wfi_(cycle_));
        profile::add(profile::Reason::kHostWfi, cycle_ - sleep_start);
      }
      break;
    default:
      throw SimError("CVA6 cannot execute '" +
                     std::string(isa::mnemonic(op)) + "' at pc=" +
                     hex_addr(pc_) + " (Xpulp extensions are PMCA-only)");
  }
}

// The dispatch loop: one indirect call per retired instruction over the
// block's lowered code. The static per-instruction cost is added before
// the handler runs and instret_ is counted after. pc_/next_pc_ are
// block carried: only control-tail handlers write pc_; at block end the
// loop re-establishes `next_pc_ == pc_`. A null-handler entry retires
// through exec_slow() after the loop, with pc_/next_pc_ set to its own
// address and successor: ecall/ebreak/wfi end their block, anything
// else without a handler faults.
//
// kHooks = false trusts the lowered line flags for I-cache timing and
// re-enters a tight loop without a cache probe. kHooks = true is the
// reference and the instrumented path: it calls fetch_timing(pc) per
// instruction (the dynamic line compare the flags are checked against
// by the tier differential), brackets each retire for the cycle
// profiler, writes the trace log and batches commit events. It always
// runs bounded, so it never takes the tight-loop goto.
template <bool kHooks, bool kBounded>
void Cva6Core::dispatch(u64 max_instructions, u64 start_instret,
                        profile::CoreProfile* prof) {
  using HostFn = void (*)(Cva6Core&, const isa::threaded::ThreadedInstr&);
  const auto retire_hooks = [&](const isa::DecodedBlock& block, size_t i) {
    if (prof != nullptr) prof->end_instr(block, i, cycle_);
    if (trace::enabled()) trace_commit();
  };
  // exited_ is false on entry (run() clears it) and only exec_slow()
  // can set it, so it is re-checked only there, not per block.
  while (!kBounded || instret_ - start_instret < max_instructions) {
    isa::DecodedBlock& block = blocks_.block_for_exec(pc_);
    if (block.threaded.generation != block.generation) {
      const telemetry::Span span(telemetry::SpanPhase::kThreadedLower);
      isa::threaded::lower(
          block, config_.icache.line_bytes, /*want_shared=*/false,
          [](isa::Op op, const void* ctx) {
            return threaded_resolve(op,
                                    *static_cast<const Cva6Config*>(ctx));
          },
          &config_, &block.threaded);
    }
    const isa::threaded::ThreadedInstr* const code =
        block.threaded.code.data();
    const size_t size = block.threaded.code.size();
  run_block:
    size_t count = size;
    if constexpr (kBounded) {
      count = static_cast<size_t>(std::min<u64>(
          size, max_instructions - (instret_ - start_instret)));
    }
    size_t i = 0;
    for (; i < count; ++i) {
      const isa::threaded::ThreadedInstr& t = code[i];
      if constexpr (kHooks) {
        if (prof != nullptr) prof->begin_instr(cycle_);
        fetch_timing(t.pc);
        if (trace_) {
          log(LogLevel::kTrace, "cva6", "cyc=", cycle_, " pc=0x", std::hex,
              t.pc, std::dec, "  ", isa::disasm(block.instrs[i]));
        }
        if (t.fn == nullptr) break;
      } else if (t.flags != 0) {
        if ((t.flags & isa::threaded::kFlagSlow) != 0) break;
        fetch_timing(t.pc);  // block entry or a static line crossing
      }
      cycle_ += t.cyc;
      reinterpret_cast<HostFn>(t.fn)(*this, t);
      ++instret_;
      if constexpr (kHooks) retire_hooks(block, i);
    }
    if (i < count) {
      // ecall/ebreak/wfi (the block's last instruction) or a fault.
      const isa::threaded::ThreadedInstr& t = code[i];
      if constexpr (!kHooks) fetch_timing(t.pc);
      pc_ = t.pc;
      next_pc_ = t.pc + 4;
      cycle_ += t.cyc;
      exec_slow(t.op);
      ++instret_;
      if constexpr (kHooks) retire_hooks(block, i);
      pc_ = next_pc_;
      if (exited_) return;
      continue;
    }
    if (block.threaded.control_tail && i == size) {
      next_pc_ = pc_;
      // Tight-loop fast path: the tail branch re-entered this same
      // block, and nothing in a full handler-only run can invalidate
      // the cache or exit — skip the probe and generation re-check.
      if (!kBounded && pc_ == block.start) goto run_block;
      continue;
    }
    pc_ = block.start + 4 * i;  // fall-through or budget cut
    next_pc_ = pc_;
  }
}

void Cva6Core::serialize(snapshot::Archive& ar) {
  ar.bytes(x_, sizeof(x_));
  ar.bytes(f_, sizeof(f_));
  ar.pod(pc_);
  ar.pod(next_pc_);
  ar.pod(cycle_);
  ar.pod(instret_);
  ar.pod(exited_);
  ar.pod(exit_code_);
  ar.pod(fetch_line_);
  ar.pod(pending_commits_);
  icache_.serialize(ar);
  dcache_.serialize(ar);
  if (itlb_) itlb_->serialize(ar);
  if (dtlb_) dtlb_->serialize(ar);
  stats_.serialize(ar);
  if (ar.loading()) blocks_.invalidate();
}

void Cva6Core::reset() {
  std::fill(std::begin(x_), std::end(x_), 0);
  std::fill(std::begin(f_), std::end(f_), 0);
  pc_ = config_.boot_pc;
  next_pc_ = 0;
  cycle_ = 0;
  instret_ = 0;
  exited_ = false;
  exit_code_ = 0;
  fetch_line_ = ~0ull;
  pending_commits_ = 0;
  icache_.reset();
  dcache_.reset();
  if (itlb_) itlb_->reset();
  if (dtlb_) dtlb_->reset();
  stats_.reset();
  blocks_.invalidate();
}

}  // namespace hulkv::host
