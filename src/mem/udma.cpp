#include "mem/udma.hpp"

#include <cstring>

namespace hulkv::mem {

namespace {
/// APB programming + engine setup overhead per job.
constexpr Cycles kSetupCycles = 10;
}  // namespace

Udma::Udma(BackingStore* dram, MemTiming* ext_mem, std::vector<u8>* l2,
           Addr l2_base, Addr dram_base)
    : dram_(dram),
      ext_mem_(ext_mem),
      l2_(l2),
      l2_base_(l2_base),
      dram_base_(dram_base),
      stats_("udma") {
  HULKV_CHECK(dram != nullptr && ext_mem != nullptr && l2 != nullptr,
              "uDMA needs DRAM, device timing and L2");
}

bool Udma::in_l2(Addr addr, u64 bytes) const {
  return addr >= l2_base_ && addr + bytes <= l2_base_ + l2_->size();
}

bool Udma::in_dram(Addr addr, u64 bytes) const {
  return addr >= dram_base_;
  (void)bytes;
}

void Udma::copy(Addr dst, Addr src, u64 bytes) {
  // L2 -> DRAM or DRAM -> L2 (validated by the callers).
  if (in_l2(src, bytes)) {
    dram_->write(dst, l2_->data() + (src - l2_base_), bytes);
  } else {
    dram_->read(src, l2_->data() + (dst - l2_base_), bytes);
  }
}

Cycles Udma::transfer_1d(Cycles now, Addr dst, Addr src, u64 bytes) {
  HULKV_CHECK(bytes > 0, "zero-length uDMA transfer");
  const bool to_l2 = in_l2(dst, bytes) && in_dram(src, bytes);
  const bool from_l2 = in_l2(src, bytes) && in_dram(dst, bytes);
  HULKV_CHECK(to_l2 || from_l2,
              "uDMA connects L2SPM and external memory only");

  copy(dst, src, bytes);
  stats_.increment("jobs_1d");
  stats_.add("bytes", bytes);

  const Addr ext_addr = to_l2 ? src : dst;
  const Cycles done = ext_mem_->access(now + kSetupCycles, ext_addr,
                                       static_cast<u32>(bytes),
                                       /*is_write=*/from_l2);
  trace_track_.complete(trace::Ev::kDmaJob, now, done, bytes, to_l2 ? 1 : 0);
  return done;
}

Cycles Udma::transfer_2d(Cycles now, Addr dst, Addr src, u64 row_bytes,
                         u64 rows, u64 ext_stride) {
  HULKV_CHECK(row_bytes > 0 && rows > 0, "empty uDMA 2D transfer");
  HULKV_CHECK(ext_stride >= row_bytes, "2D stride smaller than the row");
  const bool to_l2 = in_l2(dst, row_bytes * rows);

  Cycles t = now + kSetupCycles;
  for (u64 r = 0; r < rows; ++r) {
    const Addr row_src = to_l2 ? src + r * ext_stride : src + r * row_bytes;
    const Addr row_dst = to_l2 ? dst + r * row_bytes : dst + r * ext_stride;
    HULKV_CHECK((to_l2 ? in_l2(row_dst, row_bytes) : in_l2(row_src, row_bytes)),
                "uDMA 2D row outside L2SPM");
    copy(row_dst, row_src, row_bytes);
    const Addr ext_addr = to_l2 ? row_src : row_dst;
    t = ext_mem_->access(t, ext_addr, static_cast<u32>(row_bytes),
                         /*is_write=*/!to_l2);
  }
  stats_.increment("jobs_2d");
  stats_.add("bytes", row_bytes * rows);
  trace_track_.complete(trace::Ev::kDmaJob, now, t, row_bytes * rows,
                        to_l2 ? 1 : 0);
  return t;
}

}  // namespace hulkv::mem
