// Idealised DDR4/LPDDR4 timing model.
//
// The paper's FPGA evaluation instantiates a Xilinx DDR4 controller whose
// PHY runs at 1.2 GHz against a 50 MHz SoC: "The DDR4 models an ideal
// off-chip memory, faster by one order of magnitude than the SoC"
// (section VI). We reproduce exactly that idealisation: a fixed
// controller+device round-trip latency plus a wide data path able to move
// a full AXI beat per SoC cycle. The same model doubles as the LPDDR4
// reference in the energy-efficiency comparison (Figs. 8/9), where only
// its *power* differs (see power/power_model.hpp: the paper cites the
// i.MX8M application note for LPDDR4 subsystem power).
#pragma once

#include "common/stats.hpp"
#include "mem/timing.hpp"
#include "trace/trace.hpp"

namespace hulkv::mem {

struct DdrConfig {
  Cycles latency = 21;        // fixed access latency in SoC cycles
  u32 bytes_per_cycle = 8;    // 64-bit AXI beat per SoC cycle
  u64 total_bytes = 512ull * 1024 * 1024;
};

class Ddr4Model final : public MemTiming {
 public:
  explicit Ddr4Model(const DdrConfig& config)
      : config_(config),
        stats_("ddr4"),
        ctr_reads_(stats_.counter("reads")),
        ctr_writes_(stats_.counter("writes")),
        ctr_bytes_read_(stats_.counter("bytes_read")),
        ctr_bytes_written_(stats_.counter("bytes_written")),
        ctr_busy_cycles_(stats_.counter("busy_cycles")) {
    HULKV_CHECK(config.bytes_per_cycle >= 1, "DDR data path too narrow");
  }

  Cycles access(Cycles now, Addr, u32 bytes, bool is_write) override {
    HULKV_CHECK(bytes > 0, "zero-length DDR access");
    (is_write ? ctr_writes_ : ctr_reads_) += 1;
    (is_write ? ctr_bytes_written_ : ctr_bytes_read_) += bytes;
    const Cycles start = std::max(now, busy_until_);
    const Cycles beats =
        (bytes + config_.bytes_per_cycle - 1) / config_.bytes_per_cycle;
    const Cycles done = start + config_.latency + beats;
    // The data bus is occupied for the transfer only; latency pipelines.
    busy_until_ = start + beats;
    ctr_busy_cycles_ += beats;
    if (trace::enabled()) {  // the burst count is the DDR data beats
      trace_track_.complete(
          trace::Ev::kMemXact, start, busy_until_, bytes,
          trace::pack_xact_arg(
              {.write = is_write, .bursts = static_cast<u32>(beats)}));
    }
    return done;
  }

  /// Freshly-constructed state (data bus idle).
  void reset() {
    busy_until_ = 0;
    stats_.reset();
  }

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar) {
    ar.pod(busy_until_);
    stats_.serialize(ar);
  }

  const DdrConfig& config() const { return config_; }
  const StatGroup& stats() const { return stats_; }
  StatGroup& stats() { return stats_; }

 private:
  DdrConfig config_;
  Cycles busy_until_ = 0;
  StatGroup stats_;
  u64& ctr_reads_;
  u64& ctr_writes_;
  u64& ctr_bytes_read_;
  u64& ctr_bytes_written_;
  u64& ctr_busy_cycles_;
  trace::Track trace_track_{stats_.name()};
};

}  // namespace hulkv::mem
