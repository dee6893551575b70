// Cluster event unit (paper section III-C: "A dedicated event unit
// enables fine-grain parallel thread dispatching").
//
// The event unit implements low-latency barriers and team dispatch for
// the 8 PMCA cores: a core arriving at a barrier clock-gates itself and
// is woken when the last team member arrives. In the simulator the PMCA
// runtime reaches the event unit through its environment-call interface
// (see pmca_core.hpp); this class holds the barrier state machine and its
// timing, and the cluster scheduler applies the wake-up cycles it
// computes.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "trace/trace.hpp"

namespace hulkv::cluster {

class EventUnit {
 public:
  /// `wakeup_latency` models the event-propagation + clock-ungate delay.
  explicit EventUnit(u32 num_cores, Cycles wakeup_latency = 2);

  /// Core `core_id` arrives at the team barrier at `now`.
  /// Returns true if this arrival completes the barrier.
  bool arrive(u32 core_id, Cycles now);

  /// Cycle at which all cores resume after a completed barrier
  /// (max arrival + wake-up latency). Resets the barrier for reuse.
  Cycles release();

  /// True while a barrier is in progress (some but not all arrived).
  bool barrier_open() const { return arrived_count_ > 0; }
  u32 arrived_count() const { return arrived_count_; }
  u32 num_cores() const { return num_cores_; }

  const StatGroup& stats() const { return stats_; }

  /// Snapshot traversal (the cluster recreates the unit with the saved
  /// team size before loading this).
  void serialize(snapshot::Archive& ar);

 private:
  u32 num_cores_;
  Cycles wakeup_latency_;
  u32 arrived_count_ = 0;
  Cycles max_arrival_ = 0;
  Cycles first_arrival_ = 0;  // for the trace: barrier span + skew
  std::vector<bool> arrived_;
  StatGroup stats_;
  trace::Track trace_track_{stats_.name()};
};

}  // namespace hulkv::cluster
