#include "cluster/cluster_dma.hpp"

#include <algorithm>
#include <cstring>

#include "common/bitutil.hpp"

namespace hulkv::cluster {

namespace {
/// Job programming overhead (writing the DMA configuration registers).
constexpr Cycles kSetupCycles = 4;
/// TCDM-side bandwidth: 4 ports x 4-byte words per cycle.
constexpr u32 kTcdmBytesPerCycle = 16;
}  // namespace

ClusterDma::ClusterDma(mem::SocBus* bus, Tcdm* tcdm, Addr tcdm_base)
    : bus_(bus), tcdm_(tcdm), tcdm_base_(tcdm_base), stats_("cluster_dma") {
  HULKV_CHECK(bus != nullptr && tcdm != nullptr, "DMA needs bus and TCDM");
}

bool ClusterDma::in_tcdm(Addr addr, u64 bytes) const {
  return addr >= tcdm_base_ &&
         addr + bytes <= tcdm_base_ + tcdm_->storage().size();
}

Cycles ClusterDma::move(Cycles now, Addr dst, Addr src, u32 bytes) {
  const bool to_tcdm = in_tcdm(dst, bytes);
  const bool from_tcdm = in_tcdm(src, bytes);
  HULKV_CHECK(to_tcdm != from_tcdm,
              "cluster DMA moves between TCDM and the SoC (exactly one "
              "endpoint in L1)");

  // The AXI side is a timed bus transaction (occupancy-aware all the way
  // to L2/LLC/external memory) that also moves the data; the TCDM side
  // streams through the 4 L1 ports. The slower side bounds the job.
  std::vector<u8> buffer(bytes);
  Cycles axi_done;
  if (from_tcdm) {
    std::memcpy(buffer.data(), tcdm_->storage().data() + (src - tcdm_base_),
                bytes);
    axi_done = bus_->write(now, dst, buffer.data(), bytes,
                           mem::Master::kClusterDma);
  } else {
    axi_done =
        bus_->read(now, src, buffer.data(), bytes, mem::Master::kClusterDma);
    std::memcpy(tcdm_->storage().data() + (dst - tcdm_base_), buffer.data(),
                bytes);
  }
  const Cycles tcdm_done = now + ceil_div(bytes, kTcdmBytesPerCycle);
  return std::max(axi_done, tcdm_done);
}

u32 ClusterDma::start_1d(Cycles now, Addr dst, Addr src, u32 bytes) {
  HULKV_CHECK(bytes > 0, "zero-length DMA job");
  const Cycles done = move(now + kSetupCycles, dst, src, bytes);
  jobs_.push_back(done);
  stats_.increment("jobs_1d");
  stats_.add("bytes", bytes);
  trace_track_.complete(trace::Ev::kDmaJob, now, done, bytes,
                        in_tcdm(dst, bytes) ? 1 : 0);
  return static_cast<u32>(jobs_.size() - 1);
}

u32 ClusterDma::start_2d(Cycles now, Addr dst, Addr src, u32 row_bytes,
                         u32 rows, u32 ext_stride) {
  HULKV_CHECK(row_bytes > 0 && rows > 0, "empty 2D DMA job");
  HULKV_CHECK(ext_stride >= row_bytes, "2D stride smaller than row");
  const bool to_tcdm = in_tcdm(dst, static_cast<u64>(row_bytes) * rows);
  Cycles t = now + kSetupCycles;
  for (u32 r = 0; r < rows; ++r) {
    const Addr row_src = to_tcdm ? src + static_cast<Addr>(r) * ext_stride
                                 : src + static_cast<Addr>(r) * row_bytes;
    const Addr row_dst = to_tcdm ? dst + static_cast<Addr>(r) * row_bytes
                                 : dst + static_cast<Addr>(r) * ext_stride;
    t = move(t, row_dst, row_src, row_bytes);
  }
  jobs_.push_back(t);
  stats_.increment("jobs_2d");
  stats_.add("bytes", static_cast<u64>(row_bytes) * rows);
  trace_track_.complete(trace::Ev::kDmaJob, now, t,
                        static_cast<u64>(row_bytes) * rows, to_tcdm ? 1 : 0);
  return static_cast<u32>(jobs_.size() - 1);
}

Cycles ClusterDma::finish_time(u32 id) const {
  HULKV_CHECK(id < jobs_.size(), "unknown DMA job id");
  return jobs_[id];
}

Cycles ClusterDma::finish_all() const {
  Cycles t = 0;
  for (size_t i = retired_; i < jobs_.size(); ++i) t = std::max(t, jobs_[i]);
  return t;
}

void ClusterDma::retire_before(Cycles now) {
  while (retired_ < jobs_.size() && jobs_[retired_] <= now) ++retired_;
}

void ClusterDma::serialize(snapshot::Archive& ar) {
  ar.pod_vec(jobs_);
  ar.pod(retired_);
  stats_.serialize(ar);
}

void ClusterDma::reset() {
  jobs_.clear();
  retired_ = 0;
  stats_.reset();
}

}  // namespace hulkv::cluster
