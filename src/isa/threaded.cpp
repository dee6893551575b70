#include "isa/threaded.hpp"

#include "common/types.hpp"
#include "isa/block_cache.hpp"
#include "report/report.hpp"

namespace hulkv::isa {

namespace {
ExecTier g_default_tier = ExecTier::kThreaded;
}  // namespace

ExecTier parse_tier(const std::string& name) {
  if (name == "interp") return ExecTier::kInterp;
  if (name == "threaded") return ExecTier::kThreaded;
  throw SimError("unknown execution tier '" + name +
                 "' (expected interp|threaded)");
}

const char* tier_name(ExecTier tier) {
  return tier == ExecTier::kInterp ? "interp" : "threaded";
}

void set_default_tier(ExecTier tier) { g_default_tier = tier; }

ExecTier default_tier() { return g_default_tier; }

void configure_tier(const report::BenchOptions& options) {
  if (!options.tier.empty()) set_default_tier(parse_tier(options.tier));
}

namespace threaded {

void lower(const DecodedBlock& block, u32 line_bytes, bool want_shared,
           HandlerResolver resolve, const void* ctx, ThreadedBlock* out) {
  out->code.clear();
  out->code.reserve(block.instrs.size());
  out->control_tail = false;
  for (size_t i = 0; i < block.instrs.size(); ++i) {
    const Instr& in = block.instrs[i];
    const HandlerInfo info = resolve(in.op, ctx);
    ThreadedInstr t;
    t.fn = info.fn;
    t.op = in.op;
    t.rd = in.rd;
    t.rs1 = in.rs1;
    t.rs2 = in.rs2;
    t.rs3 = in.rs3;
    t.imm = in.imm;
    t.cyc = info.static_cycles;
    t.pc = block.start + 4 * i;
    if (i == 0) {
      t.flags |= kFlagLineCheck;
    } else if (t.pc % line_bytes == 0) {
      // Provably entering a new fetch line: within a straight-line run
      // the line register only ever advances, so the compare the
      // reference loop's fetch_timing does is statically true here.
      t.flags |= kFlagLineEntry;
    }
    if (info.fn == nullptr) t.flags |= kFlagSlow;
    if (want_shared && ((block.shared_mask >> i) & 1) != 0) {
      t.flags |= kFlagShared;
    }
    out->code.push_back(t);
  }
  if (!block.instrs.empty()) {
    const Op tail = block.instrs.back().op;
    const bool is_control =
        tail == Op::kJal || tail == Op::kJalr || is_branch(tail);
    out->control_tail =
        is_control && (out->code.back().flags & kFlagSlow) == 0;
  }
  // Stamped last: a throw above leaves the lowering stale (generation
  // mismatch) so the next dispatch redoes it, mirroring
  // BlockCache::translate.
  out->generation = block.generation;
}

}  // namespace threaded
}  // namespace hulkv::isa
