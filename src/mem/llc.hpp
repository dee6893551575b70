// Last-Level Cache (paper section III-A, figure 2).
//
// The LLC sits between the AXI crossbar and the external-memory
// controller. Incoming transactions are *filtered*: requests inside the
// cacheable region go through the cache, all others are propagated
// directly to the external memory. The geometry follows the paper's
// parameterization: a "block" is as wide as the AXI data bus (AXI_dw),
// a line holds N_blocks blocks, a set holds N_lines lines, and there are
// N_ways ways:
//
//   LLC_size = N_ways * N_lines * N_blocks * AXI_dw
//
// HULK-V's instance: AXI_dw = 8 B, N_blocks = 8, N_lines = 256,
// N_ways = 8  =>  128 kB, 64-byte lines. Write-back, write-allocate;
// tags are in SRAM and looked up in one cycle; on a miss the victim is
// written back through the write unit and the refill is fetched through
// the read unit (both modelled as sequential external-memory accesses).
#pragma once

#include "common/stats.hpp"
#include "mem/cache.hpp"
#include "mem/timing.hpp"

namespace hulkv::mem {

struct LlcConfig {
  u32 axi_data_bytes = 8;  // AXI_dw in bytes (block width)
  u32 num_blocks = 8;      // blocks per line
  u32 num_lines = 256;     // lines per set (i.e. number of sets)
  u32 num_ways = 8;
  Cycles tag_latency = 1;  // SRAM tag lookup, one cycle (paper)
  Cycles hit_latency = 2;  // data array access after a hit
  Addr cacheable_base = 0x8000'0000ull;  // external-memory window
  u64 cacheable_size = 512ull * 1024 * 1024;

  u32 line_bytes() const { return axi_data_bytes * num_blocks; }
  u32 size_bytes() const {
    return num_ways * num_lines * line_bytes();
  }
};

class Llc final : public MemTiming {
 public:
  Llc(const LlcConfig& config, MemTiming* ext_mem);

  /// Model one AXI transaction. Non-cacheable addresses bypass the cache.
  Cycles access(Cycles now, Addr addr, u32 bytes, bool is_write) override;

  void flush() { tags_.flush(); }

  /// Freshly-constructed state (tags + stats).
  void reset();

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar);

  const LlcConfig& config() const { return config_; }
  const StatGroup& stats() const { return stats_; }
  StatGroup& stats() { return stats_; }
  double hit_ratio() const;

  /// True if the line containing `addr` is currently cached (test hook).
  bool probe(Addr addr) const { return tags_.probe(addr); }

 private:
  Cycles access_line(Cycles now, Addr line_addr, bool is_write);

  LlcConfig config_;
  MemTiming* ext_mem_;
  SetAssocTags tags_;
  StatGroup stats_;
  // Interned counter slots (hot path: one bump per AXI transaction).
  u64& ctr_bypass_;
  u64& ctr_reads_;
  u64& ctr_writes_;
  u64& ctr_hits_;
  u64& ctr_misses_;
  u64& ctr_evictions_;
  trace::Track trace_track_{stats_.name()};
};

}  // namespace hulkv::mem
