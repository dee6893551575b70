// Cluster DMA (paper section III-C): "The cluster provides a DMA with one
// AXI4 port and 4 ports towards the L1SPM for high-bandwidth, low-latency
// transactions to/from the L1SPM."
//
// Transfers move data between the TCDM and the rest of the SoC (L2SPM or
// external memory via the LLC). The TCDM side sustains 4 words/cycle; the
// AXI side sustains one 64-bit beat/cycle and is further limited by the
// target (L2 SRAM or the LLC/HyperRAM path, whose occupancy the shared
// timing models track). Jobs are asynchronous: the runtime issues a job
// and later waits on its completion, which is what enables the
// double-buffering overlap that DORY-style tiling exploits.
#pragma once

#include <vector>

#include "cluster/tcdm.hpp"
#include "common/stats.hpp"
#include "mem/interconnect.hpp"

namespace hulkv::cluster {

class ClusterDma {
 public:
  ClusterDma(mem::SocBus* bus, Tcdm* tcdm, Addr tcdm_base);

  /// Start a 1D transfer. Exactly one side must be in TCDM. Returns a job
  /// id; the transfer's completion cycle is recorded internally.
  u32 start_1d(Cycles now, Addr dst, Addr src, u32 bytes);

  /// Start a 2D transfer: `rows` rows of `row_bytes`; the non-TCDM side
  /// strides by `ext_stride` between rows, the TCDM side is packed.
  u32 start_2d(Cycles now, Addr dst, Addr src, u32 row_bytes, u32 rows,
               u32 ext_stride);

  /// Completion cycle of job `id`.
  Cycles finish_time(u32 id) const;

  /// Completion cycle of all outstanding jobs (dma_wait barrier).
  Cycles finish_all() const;

  /// Forget completed jobs (keeps the vector bounded across long runs).
  void retire_before(Cycles now);

  const StatGroup& stats() const { return stats_; }

  /// Snapshot traversal (outstanding job completion times + stats).
  void serialize(snapshot::Archive& ar);

  /// Freshly-constructed state (no outstanding jobs).
  void reset();

 private:
  bool in_tcdm(Addr addr, u64 bytes) const;
  Cycles move(Cycles now, Addr dst, Addr src, u32 bytes);

  mem::SocBus* bus_;
  Tcdm* tcdm_;
  Addr tcdm_base_;
  std::vector<Cycles> jobs_;  // finish time per job id
  u32 retired_ = 0;
  StatGroup stats_;
  trace::Track trace_track_{stats_.name()};
};

}  // namespace hulkv::cluster
