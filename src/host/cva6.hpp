// CVA6 host-core model (paper section III).
//
// CVA6 is a 6-stage, single-issue, in-order RV64GC application core with
// 16 kB of L1 I-cache and 32 kB of write-through L1 D-cache. This model is
// a functional RV64-IMFD-subset instruction-set simulator coupled to an
// in-order timing model:
//
//  * one issue per cycle, plus per-instruction execution latencies
//    (multiplier, divider, FPU) — dependent-chain timing, which matches
//    the scalar DSP kernels the evaluation runs on the host;
//  * instruction fetch goes through the L1I model once per cache line;
//  * loads go through the L1D model (write-through, no write-allocate);
//    stores retire through a store buffer, consuming downstream
//    bandwidth without stalling the core;
//  * taken control flow pays a pipeline-flush penalty.
//
// External-memory addresses are cached by L1D; scratchpads and MMIO are
// accessed uncached (the write-through L1 plus uncached shared regions is
// what gives HULK-V its "simple coherency with other masters", section
// III). Compressed instructions are not modelled (RV64GC -> RV64G
// subset); all code is emitted by the in-memory assembler at 4-byte
// alignment, and the I-cache timing sees the same footprint.
#pragma once

#include <functional>
#include <memory>

#include "common/stats.hpp"
#include "isa/block_cache.hpp"
#include "isa/decoder.hpp"
#include "host/tlb.hpp"
#include "mem/cache.hpp"
#include "mem/interconnect.hpp"
#include "profile/profile.hpp"

namespace hulkv::host {

struct Cva6Config {
  Addr boot_pc = mem::map::kBootRomBase;

  /// Model SV39 address-translation timing (separate I/D TLBs + 3-level
  /// page-table walks through the L1D path). Off by default: the paper's
  /// FPGA performance counters are sampled on bare-metal binaries; the
  /// Linux-overhead study enables it.
  bool enable_mmu = false;
  TlbConfig tlb;

  // Execution latencies in cycles beyond the 1-cycle issue.
  Cycles mul_latency = 1;
  Cycles div_latency = 20;
  Cycles fpu_latency = 2;    // add/mul/fma/cvt
  Cycles fdiv_latency = 20;  // div/sqrt
  Cycles taken_branch_penalty = 4;
  Cycles jump_penalty = 2;

  mem::CacheConfig icache{.name = "host_l1i",
                          .size_bytes = 16 * 1024,
                          .line_bytes = 64,
                          .ways = 4,
                          .write_through = true,
                          .write_allocate = false,
                          .profile_reason =
                              profile::Reason::kHostIcacheMiss,
                          .hit_latency = 0,
                          .fill_penalty = 1};
  mem::CacheConfig dcache{.name = "host_l1d",
                          .size_bytes = 32 * 1024,
                          .line_bytes = 64,
                          .ways = 8,
                          .write_through = true,
                          .write_allocate = false,
                          .profile_reason =
                              profile::Reason::kHostDcacheMiss,
                          .hit_latency = 0,
                          .fill_penalty = 1};
};

class Cva6Core {
 public:
  /// The host's own handlers and its policy for the shared RV base
  /// (cva6.cpp, isa/rv_ops.hpp).
  friend struct ThreadedHost;

  /// Result of a run() segment.
  struct RunResult {
    Cycles cycles = 0;     // cycles consumed by this segment
    u64 instret = 0;       // instructions retired in this segment
    u64 exit_code = 0;     // a0 at the exit ecall
    bool exited = false;   // saw the exit syscall
  };

  /// What an ecall handler tells the core to do next.
  enum class SyscallAction { kContinue, kExit };

  /// Invoked on every ECALL; a7 selects the service (runtime offload
  /// calls, exit, console writes). The handler may advance the core's
  /// clock via advance_to() to model time spent in the service.
  using SyscallHandler = std::function<SyscallAction(Cva6Core&)>;

  /// Invoked on WFI with the current cycle; returns the wake-up cycle.
  using WfiHandler = std::function<Cycles(Cycles now)>;

  Cva6Core(const Cva6Config& config, mem::SocBus* bus);

  // ---- architectural state ----
  u64 reg(u8 index) const { return x_[index]; }
  void set_reg(u8 index, u64 value) {
    if (index != 0) x_[index] = value;
  }
  u64 freg(u8 index) const { return f_[index]; }
  void set_freg(u8 index, u64 value) { f_[index] = value; }
  Addr pc() const { return pc_; }
  void set_pc(Addr pc) { pc_ = pc; }

  // ---- time ----
  Cycles now() const { return cycle_; }
  /// Move the core's clock forward (never backward) — used by syscall
  /// and WFI handlers to model time spent outside the core.
  void advance_to(Cycles cycle);

  // ---- hooks ----
  void set_syscall_handler(SyscallHandler handler) {
    syscall_ = std::move(handler);
  }
  void set_wfi_handler(WfiHandler handler) { wfi_ = std::move(handler); }

  /// Emit one log line per retired instruction (LogLevel::kTrace,
  /// component "cva6"): cycle, pc, disassembly. For debugging programs.
  void set_trace(bool enabled) { trace_ = enabled; }

  /// Execution tier (DESIGN.md §15). Defaults to the process-wide
  /// isa::default_tier(). Both tiers run the same handlers: kInterp is
  /// the reference loop (per-instruction fetch timing), kThreaded the
  /// fast loop trusting the lowered line flags. The reference loop also
  /// runs whenever the cycle profiler or tracing is active, so the tier
  /// never changes attribution or event streams.
  void set_tier(isa::ExecTier tier) { tier_ = tier; }
  isa::ExecTier tier() const { return tier_; }

  /// Execute until the exit syscall or `max_instructions`.
  RunResult run(u64 max_instructions = UINT64_MAX);

  /// Drop cached decoded blocks (call after rewriting code). O(1):
  /// bumps the block-cache generation; stale blocks re-translate on
  /// their next dispatch.
  void invalidate_decode_cache() { blocks_.invalidate(); }
  /// Range-scoped variant: only invalidates when [base, base+bytes)
  /// overlaps code that was actually translated.
  void invalidate_decode_cache(Addr base, u64 bytes) {
    blocks_.invalidate_range(base, bytes);
  }
  /// Decoded-block cache (introspection for tests and stats).
  const isa::BlockCache& decode_blocks() const { return blocks_; }
  isa::BlockCache& decode_blocks() { return blocks_; }

  /// Snapshot traversal: architectural registers, clock, L1/TLB models,
  /// stats. The decoded-block cache is derived state and is invalidated
  /// on load (blocks re-translate from restored memory on demand).
  void serialize(snapshot::Archive& ar);

  /// Freshly-constructed state (registers cleared, pc back at the boot
  /// vector, clock and caches rewound).
  void reset();

  mem::CacheModel& icache() { return icache_; }
  mem::CacheModel& dcache() { return dcache_; }
  /// Data/instruction TLBs (nullptr when the MMU model is disabled).
  Tlb* dtlb() { return dtlb_.get(); }
  Tlb* itlb() { return itlb_.get(); }
  StatGroup& stats() { return stats_; }
  u64 instret() const { return instret_; }
  mem::SocBus& bus() { return *bus_; }

 private:
  /// The ops without a threaded handler — ecall, ebreak, wfi — and the
  /// fault for anything the host cannot execute. pc_/next_pc_ are the
  /// instruction's address and sequential successor on entry.
  void exec_slow(isa::Op op);
  /// The dispatch loop of run() over the lowered threaded code
  /// (DESIGN.md §15). kHooks selects the reference/instrumented variant
  /// (per-instruction fetch timing, profiler brackets, trace hooks);
  /// kBounded whether the instruction budget can bind. Never inlined
  /// into run(): inlined, the loop keeps its entry pointer on the stack
  /// (BM_HostIssLoopThreaded ran ~15% slower).
  template <bool kHooks, bool kBounded>
  [[gnu::noinline]] void dispatch(u64 max_instructions, u64 start_instret,
                                  profile::CoreProfile* prof);
  /// I-cache (+ITLB) timing for a fetch at `pc`: paid once per line.
  void fetch_timing(Addr pc);

  // Memory helpers (functional + timing).
  u64 load(Addr addr, u32 bytes, bool sign);
  void store(Addr addr, u64 value, u32 bytes);
  bool dram_cached(Addr addr) const;

  u64 csr_read(u16 csr) const;

  void trace_commit();

  Cva6Config config_;
  mem::SocBus* bus_;
  // Functional fast path to external memory: the common load/store in
  // the DRAM window skips the bus's region scan and hits the backing
  // store's page-pointer cache directly (timing is unchanged — the
  // L1/TLB models still run).
  mem::BackingStore* dram_;
  mem::CacheModel icache_;
  mem::CacheModel dcache_;
  std::unique_ptr<Tlb> itlb_;
  std::unique_ptr<Tlb> dtlb_;
  StatGroup stats_;
  // Interned counter slots for the per-instruction hot path.
  u64& ctr_loads_;
  u64& ctr_stores_;
  u64& ctr_taken_branches_;
  u64& ctr_branch_mispredicts_;
  u32 pending_commits_ = 0;

  u64 x_[32] = {};
  u64 f_[32] = {};
  Addr pc_ = 0;
  Addr next_pc_ = 0;
  Cycles cycle_ = 0;
  u64 instret_ = 0;
  bool exited_ = false;
  u64 exit_code_ = 0;
  Addr fetch_line_ = ~0ull;  // current I-cache line (64-byte aligned)

  bool trace_ = false;
  isa::ExecTier tier_ = isa::default_tier();
  isa::BlockCache blocks_;
  SyscallHandler syscall_;
  WfiHandler wfi_;
  // Cold (touched once per run() or only while tracing, not per
  // instruction); kept last so they do not shift the execution-state
  // members across cache lines.
  profile::Handle prof_handle_;  // cycle-attribution registration
  trace::Track trace_track_{stats_.name()};
};

/// Handler lookup for one op (null fn == retired by exec_slow()).
/// Exposed so threaded_test can assert exhaustive table coverage.
isa::threaded::HandlerInfo threaded_resolve(isa::Op op,
                                            const Cva6Config& config);

}  // namespace hulkv::host
