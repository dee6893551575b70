#include "mem/llc.hpp"

#include "profile/attr.hpp"

namespace hulkv::mem {

namespace {

/// External-memory transaction with its span attributed to the device
/// (kExtMemWait) when the cycle profiler is collecting.
Cycles ext_access(MemTiming* ext, Cycles now, Addr addr, u32 bytes,
                  bool is_write) {
  const Cycles done = ext->access(now, addr, bytes, is_write);
  profile::add(profile::Reason::kExtMemWait, done - now);
  return done;
}

}  // namespace

Llc::Llc(const LlcConfig& config, MemTiming* ext_mem)
    : config_(config),
      ext_mem_(ext_mem),
      tags_(config.num_lines, config.num_ways, config.line_bytes()),
      stats_("llc"),
      ctr_bypass_(stats_.counter("bypass")),
      ctr_reads_(stats_.counter("reads")),
      ctr_writes_(stats_.counter("writes")),
      ctr_hits_(stats_.counter("hits")),
      ctr_misses_(stats_.counter("misses")),
      ctr_evictions_(stats_.counter("evictions")) {
  HULKV_CHECK(ext_mem != nullptr, "LLC needs an external memory model");
}

Cycles Llc::access(Cycles now, Addr addr, u32 bytes, bool is_write) {
  HULKV_CHECK(bytes > 0, "zero-length LLC access");
  // AXI filter: outside the cacheable region, propagate directly.
  if (addr < config_.cacheable_base ||
      addr >= config_.cacheable_base + config_.cacheable_size) {
    ctr_bypass_ += 1;
    trace_track_.instant(trace::Ev::kBypass, now, addr, is_write ? 1 : 0);
    return ext_access(ext_mem_, now, addr, bytes, is_write);
  }

  const u32 line = config_.line_bytes();
  const Addr first = tags_.line_of(addr);
  const Addr last = tags_.line_of(addr + bytes - 1);
  Cycles done = now;
  for (Addr a = first; a <= last; a += line) {
    done = access_line(done, a, is_write);
  }
  return done;
}

Cycles Llc::access_line(Cycles now, Addr line_addr, bool is_write) {
  (is_write ? ctr_writes_ : ctr_reads_) += 1;
  const u64 claimed_before = profile::claimed();
  Cycles t = now + config_.tag_latency;  // descriptor tag lookup (1 cycle)

  if (tags_.lookup(line_addr)) {
    ctr_hits_ += 1;
    trace_track_.instant(trace::Ev::kHit, now, line_addr, is_write ? 1 : 0);
    if (is_write) tags_.mark_dirty(line_addr);
    profile::add(profile::Reason::kLlcWait,
                 t + config_.hit_latency - now);
    return t + config_.hit_latency;
  }

  ctr_misses_ += 1;
  trace_track_.instant(trace::Ev::kMiss, now, line_addr, is_write ? 1 : 0);
  const SetAssocTags::Victim victim = tags_.fill(line_addr);
  if (victim.valid && victim.dirty) {
    // Eviction: AXI write transaction on the output port.
    ctr_evictions_ += 1;
    trace_track_.instant(trace::Ev::kEvict, t, victim.line_addr);
    t = ext_access(ext_mem_, t, victim.line_addr, config_.line_bytes(),
                   /*is_write=*/true);
  }
  // Refill: AXI read transaction on the output port.
  t = ext_access(ext_mem_, t, line_addr, config_.line_bytes(),
                 /*is_write=*/false);
  if (is_write) tags_.mark_dirty(line_addr);
  // The device claimed its share above; the leftover span (tag + hit
  // pipeline around the refill) is the LLC's own.
  profile::add(profile::Reason::kLlcWait,
               profile::own_share(t + config_.hit_latency - now,
                                  profile::claimed() - claimed_before));
  return t + config_.hit_latency;
}

double Llc::hit_ratio() const {
  const u64 total = stats_.get("reads") + stats_.get("writes");
  return total == 0 ? 0.0 : static_cast<double>(stats_.get("hits")) /
                                static_cast<double>(total);
}

void Llc::reset() {
  tags_.reset();
  stats_.reset();
}

void Llc::serialize(snapshot::Archive& ar) {
  tags_.serialize(ar);
  stats_.serialize(ar);
}

}  // namespace hulkv::mem
