// Threaded code: the one instruction-execution form of both ISSs
// (DESIGN.md §15).
//
// Each `DecodedBlock` is lowered once into a flat array of pre-resolved
// handler pointers with the operands already unpacked into a packed
// immediate/register-index form and the instruction's *static* cycle
// cost (issue + fixed functional-unit latency) precomputed. The
// dispatch loop then does no opcode switch, no field decode and no
// per-instruction cache probe — just an indirect call per instruction.
// The handlers are the cores' only per-op semantics.
//
// The lowering is core-agnostic: each core supplies a `HandlerResolver`
// mapping an `Op` to its handler, or null for the few ops each core
// retires through its `exec_slow()` (ecall/ebreak/wfi and faults). Both
// execution tiers run this code; they differ only in how fetch timing
// is found (lowered line flags vs a per-instruction compare) and in
// the per-retire hooks, so interp and threaded runs are bit-identical
// (enforced by the tier differential CI gate and determinism_test).
#pragma once

#include <string>
#include <vector>

#include "isa/instr.hpp"

namespace hulkv::isa {

struct DecodedBlock;

/// Which variant of the dispatch loop a core runs. kInterp is the
/// reference: per-instruction fetch timing, the variant that also
/// carries the profiler/trace hooks (and runs whenever those are
/// active). kThreaded trusts the lowered line flags.
enum class ExecTier : u8 { kInterp, kThreaded };

/// "interp" / "threaded" -> tier; throws SimError on anything else.
ExecTier parse_tier(const std::string& name);
const char* tier_name(ExecTier tier);

/// Process-wide default applied to cores at construction (benches set
/// it from --tier before building their SoCs); per-core override via
/// Cva6Core::set_tier / PmcaCore::set_tier.
void set_default_tier(ExecTier tier);
ExecTier default_tier();

namespace threaded {

// ThreadedInstr::flags bits. Line flags mark where the reference loop's
// per-line fetch timing can fire: the block's first instruction may
// land anywhere in a fetch line (dynamic compare against the core's
// current line), while a later instruction enters a new line exactly
// when its pc is line-aligned — and the line register provably differs
// there (lines only grow within a straight-line run), so the access is
// unconditional. Everything else provably stays in the current line and
// skips the check entirely.
inline constexpr u16 kFlagLineCheck = 1u << 0;  // block entry: compare
inline constexpr u16 kFlagLineEntry = 1u << 1;  // static line crossing
/// No handler: retired by the core's exec_slow(). Trap/envcall ops end
/// their block (BlockCache contract) and ops the core cannot execute
/// fault, so nothing after such an entry runs in the same block.
inline constexpr u16 kFlagSlow = 1u << 2;
/// May touch cross-core shared state (DecodedBlock::shared_mask bit,
/// post fact-provider widening) — the cluster's run-ahead horizon check.
inline constexpr u16 kFlagShared = 1u << 3;

/// Generic handler pointer; each core's dispatch loop casts it back to
/// its own `void(Core&, const ThreadedInstr&)` signature.
using AnyFn = void (*)();

/// One lowered instruction: pre-resolved handler, the op, unpacked
/// operands, the instruction's own address (control handlers compute
/// targets as `pc + imm`; exec_slow() and fault messages see `pc`), and
/// the static cycles the instruction always pays (1-cycle issue + fixed
/// latency). Dynamic cycle costs (cache misses, bank conflicts,
/// taken-branch penalties) stay inside the handler.
struct ThreadedInstr {
  AnyFn fn = nullptr;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  u8 rs3 = 0;
  u16 flags = 0;
  Op op = Op::kIllegal;  // what exec_slow() dispatches on (kFlagSlow)
  i32 imm = 0;
  u32 cyc = 1;
  Addr pc = 0;
};
// Two instructions per cache line: the dispatch loops stream through
// the array, so the entry size is part of the tier's perf contract
// (scripts/lint.sh greps for this assert staying put).
static_assert(sizeof(ThreadedInstr) == 32, "ThreadedInstr grew past 32B");

/// Threaded form of one DecodedBlock, lowered lazily on first dispatch
/// and tagged with the DecodedBlock generation it was lowered from: a
/// block-cache invalidation bumps the generation, the stale lowering is
/// detected by mismatch and redone in place (the invalidation round
/// trip pinned by threaded_test).
struct ThreadedBlock {
  u64 generation = 0;  // 0 = never lowered (generations start at 1)
  /// Last instruction is a handled branch/jump: its handler sets the
  /// core's pc. Otherwise control falls through to `start + 4 * n`.
  bool control_tail = false;
  std::vector<ThreadedInstr> code;
};

/// What a core's resolver returns for one Op: the handler and the
/// static cycles (1 + fixed latency). A null fn marks the op as one the
/// core retires through exec_slow().
struct HandlerInfo {
  AnyFn fn = nullptr;
  u32 static_cycles = 1;
};

/// Per-core Op -> handler mapping; `ctx` is the core's config (the
/// fixed latencies live there).
using HandlerResolver = HandlerInfo (*)(Op op, const void* ctx);

/// Lower `block` into `out` for a core with `line_bytes`-sized fetch
/// lines. `want_shared` controls kFlagShared emission (the host has no
/// run-ahead horizon and skips the bit so its flag word stays zero on
/// the fast path).
void lower(const DecodedBlock& block, u32 line_bytes, bool want_shared,
           HandlerResolver resolve, const void* ctx, ThreadedBlock* out);

}  // namespace threaded
}  // namespace hulkv::isa
