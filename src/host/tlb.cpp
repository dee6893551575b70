#include "host/tlb.hpp"

#include "common/bitutil.hpp"

namespace hulkv::host {

Tlb::Tlb(const TlbConfig& config, PteReader pte_read)
    : config_(config),
      pte_read_(std::move(pte_read)),
      entries_(config.entries),
      stats_("tlb"),
      ctr_lookups_(stats_.counter("lookups")),
      ctr_hits_(stats_.counter("hits")),
      ctr_misses_(stats_.counter("misses")),
      ctr_walk_cycles_(stats_.counter("walk_cycles")),
      ctr_flushes_(stats_.counter("flushes")) {
  HULKV_CHECK(config.entries >= 1, "TLB needs entries");
  HULKV_CHECK(static_cast<bool>(pte_read_), "TLB needs a PTE reader");
}

Cycles Tlb::translate(Cycles now, Addr vaddr) {
  const u64 vpn = vaddr / config_.page_bytes;
  ctr_lookups_ += 1;

  Entry* lru = &entries_[0];
  for (Entry& entry : entries_) {
    if (entry.valid && entry.vpn == vpn) {
      entry.lru = ++use_clock_;
      ctr_hits_ += 1;
      return now;
    }
    if (entry.lru < lru->lru) lru = &entry;
  }

  // Miss: SV39 walk — one PTE read per level. The synthetic PTE
  // addresses reproduce the locality of a real radix walk: the root
  // level is one line (always hot), deeper levels spread with the VPN.
  ctr_misses_ += 1;
  Cycles t = now;
  for (u32 level = 0; level < config_.levels; ++level) {
    const u64 index = (vpn >> (9 * (config_.levels - 1 - level))) & 0x1FF;
    const Addr pte_addr =
        kPageTableBase + (static_cast<Addr>(level) << 16) + index * 8;
    t = pte_read_(t, pte_addr);
  }
  ctr_walk_cycles_ += t - now;

  lru->vpn = vpn;
  lru->valid = true;
  lru->lru = ++use_clock_;
  return t;
}

void Tlb::flush() {
  for (Entry& entry : entries_) entry = Entry{};
  ctr_flushes_ += 1;
}

void Tlb::reset() {
  for (Entry& entry : entries_) entry = Entry{};
  use_clock_ = 0;
  stats_.reset();
}

void Tlb::serialize(snapshot::Archive& ar) {
  ar.pod(use_clock_);
  // Field by field: Entry has padding bytes.
  for (Entry& entry : entries_) {
    ar.pod(entry.vpn);
    ar.pod(entry.lru);
    ar.pod(entry.valid);
  }
  stats_.serialize(ar);
}

double Tlb::hit_ratio() const {
  return ctr_lookups_ == 0 ? 0.0
                           : static_cast<double>(ctr_hits_) /
                                 static_cast<double>(ctr_lookups_);
}

}  // namespace hulkv::host
