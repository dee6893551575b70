#include "trace/trace.hpp"

#include <algorithm>

#include "report/report.hpp"
#include "trace/chrome_trace.hpp"

namespace hulkv::trace {

namespace detail {
bool g_enabled = false;
}  // namespace detail

const char* event_name(Ev type) {
  switch (type) {
    case Ev::kRun: return "run";
    case Ev::kCommitBatch: return "commits";
    case Ev::kStall: return "stall";
    case Ev::kHitBatch: return "hits";
    case Ev::kHit: return "hit";
    case Ev::kMiss: return "miss";
    case Ev::kWriteback: return "writeback";
    case Ev::kEvict: return "evict";
    case Ev::kBypass: return "bypass";
    case Ev::kMemXact: return "mem_xact";
    case Ev::kRefreshCollision: return "refresh_collision";
    case Ev::kAccessBatch: return "accesses";
    case Ev::kConflict: return "bank_conflict";
    case Ev::kDmaJob: return "dma_job";
    case Ev::kBarrier: return "barrier";
    case Ev::kDispatch: return "dispatch";
    case Ev::kCodeLoad: return "code_load";
    case Ev::kMarshal: return "marshal";
    case Ev::kMailbox: return "mailbox";
    case Ev::kKernel: return "kernel";
    case Ev::kOffload: return "offload";
    case Ev::kStallCycles: return "stall_cycles";
  }
  return "unknown";
}

Phase event_phase(Ev type) {
  switch (type) {
    case Ev::kRun:
    case Ev::kMemXact:
    case Ev::kDmaJob:
    case Ev::kBarrier:
    case Ev::kCodeLoad:
    case Ev::kMarshal:
    case Ev::kKernel:
    case Ev::kOffload:
      return Phase::kComplete;
    case Ev::kCommitBatch:
    case Ev::kHitBatch:
    case Ev::kAccessBatch:
    case Ev::kStallCycles:
      return Phase::kCounter;
    case Ev::kStall:
    case Ev::kHit:
    case Ev::kMiss:
    case Ev::kWriteback:
    case Ev::kEvict:
    case Ev::kBypass:
    case Ev::kRefreshCollision:
    case Ev::kConflict:
    case Ev::kDispatch:
    case Ev::kMailbox:
      return Phase::kInstant;
  }
  return Phase::kInstant;
}

u64 pack_xact_arg(const XactArg& a) {
  return (a.write ? 1u : 0u) | (static_cast<u64>(a.bursts & 0x7FFF'FFFFu) << 1) |
         (static_cast<u64>(a.refresh_collisions) << 32);
}

XactArg unpack_xact_arg(u64 packed) {
  XactArg a;
  a.write = (packed & 1u) != 0;
  a.bursts = static_cast<u32>((packed >> 1) & 0x7FFF'FFFFu);
  a.refresh_collisions = static_cast<u32>(packed >> 32);
  return a;
}

TraceSink& TraceSink::instance() {
  static TraceSink sink;
  return sink;
}

void TraceSink::enable() {
  enabled_ = true;
  detail::g_enabled = true;
}

void TraceSink::disable() {
  enabled_ = false;
  detail::g_enabled = false;
}

void TraceSink::clear() {
  events_.clear();
  tracks_.clear();
  dropped_ = 0;
  max_ts_ = 0;
  ++generation_;  // invalidates every cached TrackHandle
}

u32 TraceSink::track(std::string_view name) {
  const u32 existing = find_track(name);
  if (existing != kNoTrack) return existing;
  tracks_.emplace_back(name);
  return static_cast<u32>(tracks_.size() - 1);
}

u32 TraceSink::resolve(TrackHandle& handle, std::string_view name) {
  if (handle.id == kNoTrack || handle.gen != generation_) {
    handle.id = track(name);
    handle.gen = generation_;
  }
  return handle.id;
}

u32 TraceSink::find_track(std::string_view name) const {
  const auto it = std::find(tracks_.begin(), tracks_.end(), name);
  return it == tracks_.end() ? kNoTrack
                             : static_cast<u32>(it - tracks_.begin());
}

void TraceSink::push(const Event& e) {
  if (capacity_ != 0 && events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  max_ts_ = std::max(max_ts_, e.ts + e.dur);
  events_.push_back(e);
}

void TraceSink::instant(u32 track_id, Ev type, Cycles ts, u64 value,
                        u64 arg) {
  if (!enabled_) return;
  push(Event{ts, 0, value, arg, track_id, type});
}

void TraceSink::complete(u32 track_id, Ev type, Cycles start, Cycles end,
                         u64 value, u64 arg) {
  if (!enabled_) return;
  const Cycles dur = end > start ? end - start : 0;
  push(Event{start, dur, value, arg, track_id, type});
}

void TraceSink::counter(u32 track_id, Ev type, Cycles ts, u64 delta) {
  if (!enabled_) return;
  push(Event{ts, 0, delta, 0, track_id, type});
}

void configure(const report::BenchOptions& options) {
  if (options.trace_path.empty()) return;
  TraceSink& s = sink();
  s.clear();
  s.enable();
}

void finish_bench(const report::BenchOptions& options) {
  if (options.trace_path.empty()) return;
  write_chrome_trace_file(options.trace_path, sink());
}

}  // namespace hulkv::trace
