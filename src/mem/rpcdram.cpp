#include "mem/rpcdram.hpp"

#include <algorithm>

#include "common/bitutil.hpp"

namespace hulkv::mem {

RpcDramModel::RpcDramModel(const RpcDramConfig& config)
    : config_(config),
      next_refresh_(config.refresh_period),
      open_row_(config.num_banks, -1),
      stats_("rpcdram"),
      ctr_reads_(stats_.counter("reads")),
      ctr_writes_(stats_.counter("writes")),
      ctr_bytes_read_(stats_.counter("bytes_read")),
      ctr_bytes_written_(stats_.counter("bytes_written")),
      ctr_busy_cycles_(stats_.counter("busy_cycles")),
      ctr_bursts_(stats_.counter("bursts")),
      ctr_row_hits_(stats_.counter("row_hits")),
      ctr_row_activations_(stats_.counter("row_activations")),
      ctr_row_conflicts_(stats_.counter("row_conflicts")),
      ctr_refresh_collisions_(stats_.counter("refresh_collisions")) {
  HULKV_CHECK(config.num_banks >= 1, "RPC DRAM needs banks");
  HULKV_CHECK(is_pow2(config.row_bytes), "row size must be a power of two");
  HULKV_CHECK(config.clk_div >= 1, "bus clock divider must be >= 1");
}

Cycles RpcDramModel::access(Cycles now, Addr addr, u32 bytes,
                            bool is_write) {
  HULKV_CHECK(bytes > 0, "zero-length RPC DRAM access");
  (is_write ? ctr_writes_ : ctr_reads_) += 1;
  (is_write ? ctr_bytes_written_ : ctr_bytes_read_) += bytes;

  u64 offset = addr % config_.total_bytes;
  Cycles t = std::max(now, busy_until_);
  const Cycles start = t;
  const u64 bursts_before = ctr_bursts_;
  const u64 refresh_before = ctr_refresh_collisions_;
  u32 remaining = bytes;
  while (remaining > 0) {
    const u64 to_row_end = config_.row_bytes - (offset % config_.row_bytes);
    const u32 chunk = static_cast<u32>(std::min<u64>(
        {remaining, to_row_end, config_.max_burst_bytes}));
    t = burst(t, offset, chunk);
    offset += chunk;
    remaining -= chunk;
  }
  busy_until_ = t;
  ctr_busy_cycles_ += t - start;
  if (trace::enabled()) {  // the arg packing stays off the untraced path
    trace_track_.complete(
        trace::Ev::kMemXact, start, t, bytes,
        trace::pack_xact_arg(
            {.write = is_write,
             .bursts = static_cast<u32>(ctr_bursts_ - bursts_before),
             .refresh_collisions = static_cast<u32>(ctr_refresh_collisions_ -
                                                    refresh_before)}));
  }
  return t;
}

Cycles RpcDramModel::burst(Cycles start, Addr addr, u32 bytes) {
  ctr_bursts_ += 1;
  u32 bus_clocks = config_.t_cmd_bus_clk;

  // Row-buffer management.
  const u32 bank = bank_of(addr);
  const i64 row = static_cast<i64>(row_of(addr));
  if (open_row_[bank] != row) {
    if (open_row_[bank] >= 0) {
      bus_clocks += config_.t_rp_bus_clk;  // precharge the old row
      ctr_row_conflicts_ += 1;
    }
    bus_clocks += config_.t_rcd_bus_clk;  // activate
    ctr_row_activations_ += 1;
    open_row_[bank] = row;
  } else {
    ctr_row_hits_ += 1;
  }

  // Refresh collision (same mechanism as the HyperRAM model).
  if (start >= next_refresh_) {
    bus_clocks += config_.refresh_extra_bus_clk;
    ctr_refresh_collisions_ += 1;
    while (next_refresh_ <= start) next_refresh_ += config_.refresh_period;
  }

  // 16-bit DDR data phase: 4 bytes per bus clock.
  bus_clocks += static_cast<u32>(ceil_div(bytes, 4));
  return start + static_cast<Cycles>(bus_clocks) * config_.clk_div;
}

void RpcDramModel::reset() {
  busy_until_ = 0;
  next_refresh_ = config_.refresh_period;
  open_row_.assign(config_.num_banks, -1);
  stats_.reset();
}

void RpcDramModel::serialize(snapshot::Archive& ar) {
  ar.pod(busy_until_);
  ar.pod(next_refresh_);
  ar.pod_vec(open_row_);
  stats_.serialize(ar);
}

}  // namespace hulkv::mem
