// Programmable Multi-Core Accelerator: 8 RV32-DSP cores, 16-bank TCDM,
// two-level I-cache, event unit and cluster DMA (paper section III-C,
// figure 1 right half).
//
// The cluster executes *kernels*: all cores are dispatched at an entry
// point (the event unit's fine-grain thread dispatch), partition work by
// hart id, synchronise on event-unit barriers, and finish through the
// envcall::kExit service. The per-core clocks advance independently and
// the scheduler always steps the laggard core, so TCDM bank conflicts and
// DMA overlap are modelled consistently (DESIGN.md section 4).
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster_dma.hpp"
#include "cluster/event_unit.hpp"
#include "cluster/icache.hpp"
#include "cluster/pmca_core.hpp"
#include "cluster/sched.hpp"
#include "cluster/tcdm.hpp"
#include "mem/interconnect.hpp"

namespace hulkv::cluster {

struct ClusterConfig {
  u32 num_cores = 8;
  TcdmConfig tcdm;
  ClusterIcacheConfig icache;
  PmcaCoreConfig core;          // per-core latencies (core_id is set per core)
  Cycles dispatch_latency = 5;  // event-unit wake-up at kernel start
};

class Cluster {
 public:
  Cluster(const ClusterConfig& config, mem::SocBus* bus);

  /// Result of one kernel execution on the cluster.
  struct KernelResult {
    Cycles start = 0;    // dispatch cycle
    Cycles finish = 0;   // last core's exit cycle
    Cycles cycles = 0;   // finish - start
    u64 instret = 0;     // instructions retired across all cores
  };

  /// Dispatch a team of `team_size` cores at `entry` (code must already
  /// be visible through the SoC bus, normally in the L2SPM). `arg0` is
  /// passed in a0 of every core (by convention a pointer to an argument
  /// record in TCDM). Runs to completion and returns the timing.
  /// `team_size` = 0 (default) dispatches every core; smaller teams model
  /// OpenMP num_threads() clauses — the event unit only wakes (and
  /// barriers) the dispatched cores, the rest stay clock-gated.
  KernelResult run_kernel(Cycles start_time, Addr entry, u32 arg0,
                          u32 team_size = 0);

  /// Invalidate instruction caches and decoded-instruction caches (call
  /// after loading a new kernel image).
  void on_code_loaded();
  /// Range-scoped variant: the I-cache flush is unconditional (it is
  /// timing-visible), but each core's decoded-block invalidation is a
  /// no-op unless [base, base+bytes) overlaps code it translated.
  void on_code_loaded(Addr base, u64 bytes);

  Tcdm& tcdm() { return tcdm_; }
  ClusterDma& dma() { return dma_; }
  EventUnit& event_unit() { return *event_unit_; }
  ClusterIcache& icache() { return icache_; }
  PmcaCore& core(u32 index) { return *cores_[index]; }
  u32 num_cores() const { return config_.num_cores; }
  const ClusterConfig& config() const { return config_; }

  /// TCDM base address in the SoC map.
  Addr tcdm_base() const { return mem::map::kTcdmBase; }

  /// Snapshot traversal. Only legal between kernels (run_kernel is
  /// synchronous, so there is no mid-kernel snapshot point): the
  /// scheduler heap is empty then and is simply re-sized on load. The
  /// event unit is recreated with the saved team size before loading.
  void serialize(snapshot::Archive& ar);

  /// Freshly-constructed state across all cluster blocks.
  void reset();

 private:
  void handle_envcall(PmcaCore& core);
  void release_barrier();

  ClusterConfig config_;
  mem::SocBus* bus_;
  Tcdm tcdm_;
  ClusterIcache icache_;
  std::unique_ptr<EventUnit> event_unit_;
  ClusterDma dma_;
  std::vector<std::unique_ptr<PmcaCore>> cores_;
  CoreScheduler sched_;  // runnable cores ordered by (cycle, core_id)
  std::vector<bool> at_barrier_;
  u32 team_size_ = 0;
  trace::Track trace_track_{"event_unit"};  // dispatch markers
};

}  // namespace hulkv::cluster
