// Cycle-attribution profiler (hulkv::profile, DESIGN.md section 12).
//
// Attributes every simulated cycle of both ISSs to a (PC, basic block,
// stall reason) triple. Cores bracket each retired instruction with
// begin_instr()/end_instr(); the bracket publishes the core's
// AttrScratch (see attr.hpp) so the timing models underneath attribute
// their share of the instruction's latency, and end_instr() drains the
// scratch into per-decoded-block accumulators keyed by block start
// address — the BlockCache hot path stays a pointer compare.
//
// Clock advances that happen outside any bracket (barrier release,
// event-unit dispatch) are picked up as a gap at the next begin_instr()
// and attributed to the reason noted beforehand via note_gap().
//
// Conservation invariant (checked by Session::check_conservation and
// enforced on every figure bench run with --profile): per core,
//   sum over blocks/instructions of cycles  == total profiled cycles,
//   sum over blocks/instructions of stalls  == per-reason totals,
// exactly, and per instruction stalls <= cycles.
//
// The profiler is purely observational: no timing model reads it, so
// cycles are bit-identical with profiling on or off, and none of its
// state is part of snapshot save/restore or Soc::state_digest().
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "isa/block_cache.hpp"
#include "profile/attr.hpp"
#include "trace/trace.hpp"

namespace hulkv::report {
class MetricsReport;
}  // namespace hulkv::report

namespace hulkv::profile {

/// Per-instruction accumulator inside one decoded block.
struct InstrStats {
  u64 cycles = 0;  // total cycles attributed to this instruction slot
  u64 count = 0;   // times the instruction retired
  u64 stalls[kNumReasons] = {};
};

/// Accumulators for one decoded basic block, keyed by start address.
/// `stats` never shrinks: attribution history is PC-keyed and survives
/// re-decodes (self-modifying code swaps `instrs` but keeps the cycles).
struct BlockProfile {
  Addr start = 0;
  u64 generation = 0;               // BlockCache generation of `instrs`
  std::vector<isa::Instr> instrs;   // copy for the annotate view
  std::vector<InstrStats> stats;
};

/// Per-core profile: the instruction bracket plus the block table.
class CoreProfile {
 public:
  explicit CoreProfile(std::string name);

  /// Open the bracket for one instruction. `now` is the core clock
  /// before fetch timing; any gap since the previous end_instr() is an
  /// out-of-band advance and joins this instruction's cycles under the
  /// reason noted via note_gap() (default kOther).
  void begin_instr(Cycles now) {
    prev_scratch_ = detail::g_scratch;
    detail::g_scratch = &scratch_;
    begin_cycle_ = now;
    // A clock regression means a different SoC instance took over this
    // core name; start a new accumulation epoch instead of a bogus gap.
    gap_ = (has_last_ && now > last_cycle_) ? now - last_cycle_ : 0;
  }

  /// Close the bracket: attribute `now - begin` cycles (plus any gap)
  /// to instruction `index` of `block` and drain the scratch stalls.
  void end_instr(const isa::DecodedBlock& block, size_t index, Cycles now);

  /// Label the next out-of-band clock advance (consumed by the next
  /// bracket; harmless when the gap turns out to be zero).
  void note_gap(Reason r) { gap_reason_ = r; }

  const std::string& name() const { return name_; }
  u64 total_cycles() const { return total_cycles_; }
  u64 reason_total(Reason r) const {
    return reason_totals_[static_cast<size_t>(r)];
  }
  u64 total_stalls() const;
  const std::map<Addr, BlockProfile>& blocks() const { return blocks_; }

 private:
  friend class Session;
  void flush_trace_counters(Cycles now);

  std::string name_;
  AttrScratch scratch_;
  AttrScratch* prev_scratch_ = nullptr;
  Cycles begin_cycle_ = 0;
  Cycles last_cycle_ = 0;
  Cycles gap_ = 0;
  bool has_last_ = false;
  Reason gap_reason_ = Reason::kOther;
  u64 total_cycles_ = 0;
  u64 reason_totals_[kNumReasons] = {};
  // Ordered map: iteration order (and with it every emitted view) is
  // deterministic; the hot path goes through the memoized last block.
  std::map<Addr, BlockProfile> blocks_;
  BlockProfile* memo_ = nullptr;
  // Per-reason Perfetto counter batching (only when tracing is on), one
  // "<core>.stall.<reason>" track per reason.
  std::vector<trace::Track> stall_tracks_;
  u64 pending_[kNumReasons] = {};
  u64 pending_sum_ = 0;
};

/// Cached core-profile registration, resolved per run/slice. Invalidated
/// by Session::reset().
struct Handle {
  CoreProfile* core = nullptr;
  u32 gen = 0;
};

/// One profiled symbol lookup result.
struct Symbol {
  std::string_view program;  // registered program/kernel name
  std::string_view label;    // nearest preceding assembler label
  u64 offset = 0;            // pc - label address
  bool known = false;
};

/// The process-global profiler session. Single-threaded by contract:
/// batch::run_jobs refuses worker counts > 1 while profiling is on.
class Session {
 public:
  static Session& instance();

  bool is_enabled() const { return enabled_; }
  void enable();
  void disable();
  /// Drop all accumulators and symbols; invalidates every Handle.
  void reset();

  /// Find-or-create the profile for a core (keyed by its stats name).
  CoreProfile* core(std::string_view name);
  /// Existing profile or nullptr (tests, report rendering).
  CoreProfile* find_core(std::string_view name);
  /// All core profiles, ordered by name.
  std::vector<const CoreProfile*> cores() const;

  /// Register `program`'s assembler label table at its load address.
  /// Symbols previously covering [base, base+bytes) are replaced (the
  /// L2 arena recycles kernel-image addresses). No-op while disabled.
  void register_symbols(Addr base, u64 bytes, const std::string& program,
                        const std::vector<std::pair<std::string, u64>>& labels);

  /// Nearest preceding registered symbol, or known=false.
  Symbol symbolize(Addr pc) const;

  /// Folded-stack view: `core;program;label;[reason] cycles` lines,
  /// loadable by flamegraph.pl / speedscope unmodified.
  void write_folded(std::ostream& os) const;

  /// `perf annotate`-style listing: per-line cycle/stall columns over
  /// the disassembly of the hottest blocks (all blocks if max_blocks=0).
  void write_annotated(std::ostream& os, size_t max_blocks = 32) const;

  /// Attribution tables (per-core rollup + per-reason breakdown).
  void add_report_tables(report::MetricsReport& rep) const;

  /// Flush pending per-reason Perfetto counters into the trace sink.
  void flush_trace_counters();

  /// Empty string when the conservation invariant holds exactly; a
  /// description of the first violation otherwise.
  std::string check_conservation() const;

 private:
  Session() = default;

  struct SymEntry {
    Addr addr = 0;
    u64 end = 0;  // end of the registration range (for replacement)
    std::string program;
    std::string label;
  };

  bool enabled_ = false;
  std::map<std::string, std::unique_ptr<CoreProfile>, std::less<>> cores_;
  std::vector<SymEntry> symbols_;  // sorted by addr
};

/// Shorthand for the global session.
inline Session& session() { return Session::instance(); }

/// Resolve a core's cached profile registration. Returns nullptr when
/// profiling is off — the only per-run cost of a disabled profiler.
inline CoreProfile* attach(Handle& h, std::string_view name) {
  if (!enabled()) return nullptr;
  if (h.gen != detail::g_generation) {
    h.core = session().core(name);
    h.gen = detail::g_generation;
  }
  return h.core;
}

/// Note an out-of-band gap reason for a core by name (no-op when off).
void note_gap(std::string_view core_name, Reason r);

}  // namespace hulkv::profile
