// RPC (Reduced Pin Count) DRAM timing model — the other IoT-DRAM family
// the paper cites next to HyperRAM (section I, [8]: Etron RPC DRAM):
// "HyperRAMs belong to the family of IoT memories, like RPC-DRAMs,
// providing relatively high-bandwidth, low-pin count, ease of
// integration, low power consumption...".
//
// RPC DRAM is a x16 DDR device with a serial command interface and a
// conventional DRAM core (banks, rows, activate/precharge). Compared to
// HyperRAM it has double the data-bus width and real bank-level row
// buffers, so sequential bursts that stay in an open row avoid the
// activation latency. This model extends the repo beyond the paper's
// evaluated configurations (an ablation, see bench/ablation_memsys.cpp):
//
//  * `num_banks` row buffers; a burst to an open row pays only the
//    command phase, a row miss pays precharge + activate;
//  * 16-bit DDR data: 4 bytes per bus clock;
//  * the bus clock is a divider of the SoC clock, like the HyperBUS;
//  * periodic refresh steals slots exactly like the HyperRAM model.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "mem/timing.hpp"
#include "trace/trace.hpp"

namespace hulkv::mem {

struct RpcDramConfig {
  u32 clk_div = 2;          // SoC cycles per RPC bus clock
  u32 num_banks = 4;
  u64 row_bytes = 2048;     // row-buffer size
  u64 total_bytes = 64ull * 1024 * 1024;
  u32 t_cmd_bus_clk = 2;    // serial command packet
  u32 t_rcd_bus_clk = 6;    // activate (row miss)
  u32 t_rp_bus_clk = 6;     // precharge (row conflict)
  u32 max_burst_bytes = 512;
  Cycles refresh_period = 4000;  // SoC cycles between refresh slots
  u32 refresh_extra_bus_clk = 8;

  /// Data bytes per SoC cycle at saturation (16-bit DDR).
  double peak_bytes_per_cycle() const { return 4.0 / clk_div; }
};

class RpcDramModel final : public MemTiming {
 public:
  explicit RpcDramModel(const RpcDramConfig& config);

  Cycles access(Cycles now, Addr addr, u32 bytes, bool is_write) override;

  /// Freshly-constructed state (device idle, rows closed).
  void reset();

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar);

  const RpcDramConfig& config() const { return config_; }
  const StatGroup& stats() const { return stats_; }
  StatGroup& stats() { return stats_; }

 private:
  Cycles burst(Cycles start, Addr addr, u32 bytes);

  u32 bank_of(Addr addr) const {
    return static_cast<u32>((addr / config_.row_bytes) % config_.num_banks);
  }
  u64 row_of(Addr addr) const {
    return addr / config_.row_bytes / config_.num_banks;
  }

  RpcDramConfig config_;
  Cycles busy_until_ = 0;
  Cycles next_refresh_;
  std::vector<i64> open_row_;  // -1 = closed
  StatGroup stats_;
  // Interned counter slots (one transaction may mean many bursts).
  u64& ctr_reads_;
  u64& ctr_writes_;
  u64& ctr_bytes_read_;
  u64& ctr_bytes_written_;
  u64& ctr_busy_cycles_;
  u64& ctr_bursts_;
  u64& ctr_row_hits_;
  u64& ctr_row_activations_;
  u64& ctr_row_conflicts_;
  u64& ctr_refresh_collisions_;
  trace::Track trace_track_{stats_.name()};
};

}  // namespace hulkv::mem
