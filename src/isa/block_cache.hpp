// Decoded basic-block cache shared by the two instruction-set
// simulators (host Cva6Core, cluster PmcaCore).
//
// Both cores used to cache individual decoded instructions in an
// `unordered_map<Addr, Instr>`, paying one hash lookup per retired
// instruction. GVSoC-class simulators get their throughput by caching
// *straight-line runs*: translate once into a flat vector of pre-decoded
// instructions, then execute the run with a tight dispatch loop. This
// class provides exactly that:
//
//  * `block_at(pc)` returns the decoded block starting at `pc`,
//    translating it on first use. Translation reads instruction words
//    through the core's functional fetch path and stops at the first
//    control-flow instruction (branch, jal/jalr, ecall/ebreak, wfi,
//    illegal) or after kMaxBlockInstrs.
//  * A one-entry memo makes loop bodies free: a hardware loop or a
//    backward branch re-entering the same block skips even the hash
//    lookup.
//  * Successor links chain the other transitions: every block keeps a
//    pointer to the block last reached from it over its fall-through
//    edge and one over its taken/other edge. A lookup that misses the
//    memo tries the memo block's two links before the hash map; a link
//    is used only when its target starts at the requested pc and was
//    translated in the current generation. A miss fills the matching
//    link of the block it came from.
//  * Invalidation is a generation bump, not a clear()-and-rehash: stale
//    blocks are detected by generation mismatch and re-translated in
//    place on next dispatch. Links need no walk either: a link only
//    names a map slot (whose address never changes), and the slot's
//    generation says whether its contents may run.
//    `invalidate_range()` additionally scopes the bump to writes
//    overlapping the span actually covered by translated blocks, so
//    rewriting one kernel image does not force the other cached code
//    regions to re-translate eagerly.
//
// Self-modifying-code semantics are unchanged from the per-instruction
// caches: guest stores do NOT auto-invalidate; callers must invalidate
// explicitly (HulkVSoc::load_program and Cluster::on_code_loaded do).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "isa/instr.hpp"
#include "isa/threaded.hpp"

namespace hulkv::isa {

/// One translated straight-line run of pre-decoded instructions.
/// `instrs[i]` sits at address `start + 4 * i`; the block's fall-through
/// next PC is `start + 4 * instrs.size()` (precomputed by the dispatch
/// loops as a running sequential PC).
struct DecodedBlock {
  Addr start = 0;
  u64 generation = 0;  // 0 = never translated (generations start at 1)
  /// Successor links, filled by BlockCache lookups: [0] the block last
  /// reached over the fall-through edge (`start + 4 * instrs.size()`),
  /// [1] the block last reached over any other edge (taken branch,
  /// jump, jalr target). A link may be stale; BlockCache checks the
  /// target's start and generation before following it.
  DecodedBlock* next[2] = {nullptr, nullptr};
  /// Bit i set when `instrs[i]` may touch state shared between cores
  /// (loads/stores — TCDM banks, AXI, DRAM — and the environment-call /
  /// trap ops). Pure ALU and control-flow ops leave the bit clear; a
  /// multi-core scheduler may execute those ahead of its time horizon
  /// without perturbing cross-core resource-reservation order (see
  /// PmcaCore::run_slice). kMaxBlockInstrs == 64 makes this one word.
  /// A registered fact provider may clear bits it proves core-local
  /// (see RunAheadFacts) at translate time.
  u64 shared_mask = 0;
  /// Static facts attached at translate time (false when no provider is
  /// registered or the provider could not prove the block).
  bool facts_proven = false;
  /// Proven free of shared-state instructions over its whole range: a
  /// run-ahead scheduler never parks inside this block.
  bool facts_eligible = false;
  /// Static lower bound on the block's execution cycles (>= 1 cycle per
  /// instruction); 0 when unproven.
  u32 min_cycles = 0;
  std::vector<Instr> instrs;
  /// Threaded-code form (DESIGN.md §15), lowered lazily by the owning
  /// core's dispatch loop on first execution of this block and kept in
  /// sync via its own generation tag (stale after an invalidation bump,
  /// re-lowered on next dispatch).
  threaded::ThreadedBlock threaded;
};

/// Facts a static-analysis provider attaches to a translated block.
/// The contract (DESIGN.md §13): `clear_mask` bits may only cover
/// instructions whose execution provably touches no cross-core shared
/// timing state (so clearing them from shared_mask cannot perturb the
/// global reservation order), and `eligible` asserts the whole range is
/// free of shared-state instructions after that widening.
struct RunAheadFacts {
  u64 clear_mask = 0;
  bool eligible = false;
  u32 min_cycles = 0;
};

class BlockCache {
 public:
  /// Upper bound on instructions per block; long straight-line code is
  /// simply split. Keeps worst-case translate-ahead (and the decode of
  /// never-executed garbage past a program's end) bounded.
  static constexpr size_t kMaxBlockInstrs = 64;

  /// Functional instruction-word fetch. May throw SimError for unmapped
  /// addresses: a fault on the block's first word propagates (same as a
  /// per-instruction fetch would); a fault on a later word ends the
  /// block there, and execution falling through re-faults at the real
  /// fetch of that address.
  using ReadWord = std::function<u32(Addr)>;

  /// Static block-facts source, queried once per translation with the
  /// block's start address and decoded instructions. Returns true and
  /// fills `out` when the whole range is covered by proven facts (the
  /// provider must verify the decoded words still match the analyzed
  /// image — self-modifying code invalidates facts, not just blocks).
  using FactProvider =
      std::function<bool(Addr start, const Instr* instrs, size_t count,
                         RunAheadFacts* out)>;

  explicit BlockCache(ReadWord read_word);
  // Blocks point at each other (successor links) and last_ points into
  // blocks_: a copy would point into the source cache.
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// The decoded block starting at `pc`, translated on demand.
  /// The returned reference is stable until the cache is destroyed
  /// (values live in node-based map storage), but its contents are
  /// only valid for the current generation.
  const DecodedBlock& block_at(Addr pc) { return block_for_exec(pc); }

  /// Mutable variant for the dispatch loops, which lazily
  /// attach the lowered form to the block (DecodedBlock::threaded).
  /// Memo first, then the memo block's two successor links, then the
  /// hash map.
  DecodedBlock& block_for_exec(Addr pc) {
    DecodedBlock* const last = last_;
    if (last != nullptr) {
      if (last->start == pc) return *last;
      for (DecodedBlock* next : last->next) {
        if (next != nullptr && next->start == pc &&
            next->generation == generation_) {
          last_ = next;
          return *next;
        }
      }
    }
    return lookup_slow(pc);
  }

  /// Drop every cached block: O(1) generation bump. Stale blocks
  /// re-translate in place on their next dispatch.
  void invalidate();

  /// Invalidate only if [base, base+bytes) overlaps the address span
  /// covered by translated blocks; a write elsewhere is a no-op.
  void invalidate_range(Addr base, u64 bytes);

  /// Install (or replace) the fact provider. Invalidates the cache so
  /// blocks translated before the provider existed pick up facts on
  /// their next dispatch. A default-constructed function clears it.
  void set_fact_provider(FactProvider provider);

  u64 generation() const { return generation_; }
  /// Total translations performed (re-translations included) — lets
  /// tests assert that invalidation really dropped (or kept) blocks.
  u64 translations() const { return translations_; }
  size_t cached_blocks() const { return blocks_.size(); }
  /// Cumulative count of translations the fact provider proved
  /// (monotonic, like translations()).
  u64 fact_proven_blocks() const { return fact_proven_; }
  /// Of those, translations proven run-ahead eligible — the counter the
  /// simperf ISS rows report.
  u64 fact_eligible_blocks() const { return fact_eligible_; }

  /// True when `op` terminates a straight-line run.
  static bool ends_block(Op op);

 private:
  DecodedBlock& lookup_slow(Addr pc);
  void translate(DecodedBlock& block, Addr pc);

  ReadWord read_word_;
  FactProvider fact_provider_;
  std::unordered_map<Addr, DecodedBlock> blocks_;
  DecodedBlock* last_ = nullptr;  // memo: only ever a current-generation block
  u64 generation_ = 1;
  u64 translations_ = 0;
  u64 fact_proven_ = 0;
  u64 fact_eligible_ = 0;
  // Union of [start, end) over translated blocks, for ranged invalidation.
  Addr span_lo_ = ~0ull;
  Addr span_hi_ = 0;
};

}  // namespace hulkv::isa
