#include "mem/cache.hpp"

#include <algorithm>

#include "common/bitutil.hpp"

namespace hulkv::mem {

SetAssocTags::SetAssocTags(u32 num_sets, u32 num_ways, u32 line_bytes)
    : num_sets_(num_sets), num_ways_(num_ways), line_bytes_(line_bytes) {
  HULKV_CHECK(is_pow2(num_sets), "cache sets must be a power of two");
  HULKV_CHECK(is_pow2(line_bytes), "cache line size must be a power of two");
  HULKV_CHECK(num_ways >= 1, "cache needs at least one way");
  line_shift_ = static_cast<u8>(log2_exact(line_bytes));
  tag_shift_ = static_cast<u8>(line_shift_ + log2_exact(num_sets));
  ways_.resize(static_cast<size_t>(num_sets) * num_ways);
}

SetAssocTags::Way* SetAssocTags::find(Addr addr) {
  const u64 tag = tag_of(addr);
  Way* base = &ways_[static_cast<size_t>(set_index(addr)) * num_ways_];
  for (u32 w = 0; w < num_ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

const SetAssocTags::Way* SetAssocTags::find(Addr addr) const {
  return const_cast<SetAssocTags*>(this)->find(addr);
}

bool SetAssocTags::lookup(Addr addr) {
  if (Way* way = find(addr)) {
    way->lru = ++use_clock_;
    return true;
  }
  return false;
}

bool SetAssocTags::probe(Addr addr) const { return find(addr) != nullptr; }

SetAssocTags::Victim SetAssocTags::fill(Addr addr) {
  Victim victim;
  Way* base = &ways_[static_cast<size_t>(set_index(addr)) * num_ways_];
  Way* slot = nullptr;
  for (u32 w = 0; w < num_ways_; ++w) {
    if (!base[w].valid) {
      slot = &base[w];
      break;
    }
  }
  if (slot == nullptr) {
    slot = &base[0];
    for (u32 w = 1; w < num_ways_; ++w) {
      if (base[w].lru < slot->lru) slot = &base[w];
    }
    victim.valid = true;
    victim.dirty = slot->dirty;
    // Reconstruct the victim's base address from its tag and this set.
    victim.line_addr = slot->tag << tag_shift_ |
                       static_cast<Addr>(set_index(addr)) << line_shift_;
  }
  slot->tag = tag_of(addr);
  slot->valid = true;
  slot->dirty = false;
  slot->lru = ++use_clock_;
  return victim;
}

void SetAssocTags::mark_dirty(Addr addr) {
  Way* way = find(addr);
  HULKV_CHECK(way != nullptr, "mark_dirty on absent line");
  way->dirty = true;
}

bool SetAssocTags::line_dirty(Addr addr) const {
  const Way* way = find(addr);
  return way != nullptr && way->dirty;
}

void SetAssocTags::flush() {
  for (Way& way : ways_) way = Way{};
  use_clock_ = 0;
}

void SetAssocTags::reset() { flush(); }

void SetAssocTags::serialize(snapshot::Archive& ar) {
  ar.pod(use_clock_);
  // Field by field: Way has padding bytes, which must never reach the
  // digest or the file.
  for (Way& way : ways_) {
    ar.pod(way.tag);
    ar.pod(way.lru);
    ar.pod(way.valid);
    ar.pod(way.dirty);
  }
}

void CacheModel::reset() {
  tags_.reset();
  stats_.reset();
  pending_hits_ = 0;
}

void CacheModel::serialize(snapshot::Archive& ar) {
  tags_.serialize(ar);
  stats_.serialize(ar);
  ar.pod(pending_hits_);
}

CacheModel::CacheModel(const CacheConfig& config, MemTiming* next)
    : config_(config),
      next_(next),
      tags_(config.size_bytes / config.line_bytes / config.ways, config.ways,
            config.line_bytes),
      stats_(config.name),
      ctr_reads_(stats_.counter("reads")),
      ctr_writes_(stats_.counter("writes")),
      ctr_hits_(stats_.counter("hits")),
      ctr_misses_(stats_.counter("misses")),
      ctr_writebacks_(stats_.counter("writebacks")),
      ctr_wt_words_(stats_.counter("writethrough_words")) {
  HULKV_CHECK(next != nullptr, "cache needs a next-level timing model");
  HULKV_CHECK(config.size_bytes % (config.line_bytes * config.ways) == 0,
              "cache size must be a multiple of line_bytes * ways");
}

/// L1 hits are batched: one counter event per kHitBatchSize hits keeps
/// the trace small while the windowed activity curve stays usable.
namespace {
constexpr u32 kHitBatchSize = 256;
}  // namespace

void CacheModel::trace_hit(Cycles now) {
  if (++pending_hits_ < kHitBatchSize) return;
  trace_track_.counter(trace::Ev::kHitBatch, now, pending_hits_);
  pending_hits_ = 0;
}

Cycles CacheModel::access(Cycles now, Addr addr, u32 bytes, bool is_write) {
  // Split accesses that straddle a line boundary (rare; the ISS only
  // issues naturally aligned scalar accesses, but the DMA engines may not).
  const Addr first_line = tags_.line_of(addr);
  const Addr last_line = tags_.line_of(addr + bytes - 1);
  Cycles done = now;
  for (Addr line = first_line; line <= last_line;
       line += config_.line_bytes) {
    done = access_line(done, line, is_write);
  }
  return done;
}

Cycles CacheModel::access_line(Cycles now, Addr line_addr, bool is_write) {
  (is_write ? ctr_writes_ : ctr_reads_) += 1;
  const bool hit = tags_.lookup(line_addr);

  if (hit) {
    ctr_hits_ += 1;
    if (trace::enabled()) trace_hit(now);
    if (is_write) {
      if (config_.write_through) {
        // Forward the word to the next level; the store buffer absorbs the
        // latency so the core sees only the hit latency, but the next
        // level's occupancy advances (bandwidth is consumed). The core
        // never waits for it, so the profiler must not claim it either.
        const profile::SuppressGuard mute;
        next_->access(now, line_addr, 8, /*is_write=*/true);
        ctr_wt_words_ += 1;
      } else {
        tags_.mark_dirty(line_addr);
      }
    }
    return now + config_.hit_latency;
  }

  ctr_misses_ += 1;
  trace_track_.instant(trace::Ev::kMiss, now, line_addr, is_write ? 1 : 0);
  if (is_write && !config_.write_allocate) {
    // Write miss, no allocate: forward the write downstream.
    const profile::SuppressGuard mute;
    const Cycles done = next_->access(now, line_addr, 8, /*is_write=*/true);
    ctr_wt_words_ += 1;
    // The store buffer hides the downstream latency from the core.
    (void)done;
    return now + config_.hit_latency;
  }

  // Refill (and evict a dirty victim first for write-back caches).
  // Attribution: nested levels (LLC, external memory) claim their share
  // of the refill chain below; the leftover span is this cache's own
  // miss handling and lands on config_.profile_reason.
  const u64 claimed_before = profile::claimed();
  const SetAssocTags::Victim victim = tags_.fill(line_addr);
  Cycles t = now + config_.hit_latency;  // tag lookup before the miss
  if (victim.valid && victim.dirty) {
    ctr_writebacks_ += 1;
    trace_track_.instant(trace::Ev::kWriteback, t, victim.line_addr);
    t = next_->access(t, victim.line_addr, config_.line_bytes,
                      /*is_write=*/true);
  }
  t = next_->access(t, line_addr, config_.line_bytes, /*is_write=*/false);
  t += config_.fill_penalty;
  if (is_write) {
    if (config_.write_through) {
      const profile::SuppressGuard mute;
      next_->access(t, line_addr, 8, /*is_write=*/true);
      ctr_wt_words_ += 1;
    } else {
      tags_.mark_dirty(line_addr);
    }
  }
  profile::add(config_.profile_reason,
               profile::own_share(t - now, profile::claimed() - claimed_before));
  return t;
}

double CacheModel::hit_ratio() const {
  const u64 total = stats_.get("reads") + stats_.get("writes");
  return total == 0 ? 0.0 : static_cast<double>(stats_.get("hits")) /
                                static_cast<double>(total);
}

}  // namespace hulkv::mem
