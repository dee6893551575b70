// uDMA engine of the HyperRAM controller front-end (paper section III-B).
//
// "The uDMA engine directly connects the L2SPM and the HyperRAM and can
// generate both 1D and 2D burst transactions." It is programmed through
// APB and multiplexed onto the PHY together with the AXI front-end — i.e.
// its traffic *bypasses the LLC* and lands straight on the external
// memory device. 2D transfers (stride between rows) are what DORY-style
// ML tiling uses to gather weight sub-tensors into the L2SPM.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "mem/backing_store.hpp"
#include "mem/timing.hpp"
#include "trace/trace.hpp"

namespace hulkv::mem {

class Udma {
 public:
  /// `ext_mem` is the raw external-memory device timing (not the LLC);
  /// `l2` / `l2_base` locate the on-chip L2 scratchpad.
  Udma(BackingStore* dram, MemTiming* ext_mem, std::vector<u8>* l2,
       Addr l2_base, Addr dram_base);

  /// 1D transfer of `bytes` bytes. Exactly one of src/dst must be in L2,
  /// the other in external memory. Returns the completion cycle.
  Cycles transfer_1d(Cycles now, Addr dst, Addr src, u64 bytes);

  /// 2D transfer: `rows` rows of `row_bytes`, with the external-memory
  /// side striding by `ext_stride` between rows and the L2 side packed
  /// contiguously. Each row is one burst on the HyperBUS.
  Cycles transfer_2d(Cycles now, Addr dst, Addr src, u64 row_bytes,
                     u64 rows, u64 ext_stride);

  const StatGroup& stats() const { return stats_; }

  /// Snapshot traversal (transfers are synchronous; counters are the
  /// only state).
  void serialize(snapshot::Archive& ar) { stats_.serialize(ar); }

  /// Freshly-constructed state.
  void reset() { stats_.reset(); }

 private:
  bool in_l2(Addr addr, u64 bytes) const;
  bool in_dram(Addr addr, u64 bytes) const;
  void copy(Addr dst, Addr src, u64 bytes);

  BackingStore* dram_;
  MemTiming* ext_mem_;
  std::vector<u8>* l2_;
  Addr l2_base_;
  Addr dram_base_;
  StatGroup stats_;
  trace::Track trace_track_{stats_.name()};
};

}  // namespace hulkv::mem
