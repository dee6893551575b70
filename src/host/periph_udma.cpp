#include "host/periph_udma.hpp"

#include <cstring>

namespace hulkv::host {

namespace {
/// APB configuration writes to arm a stream.
constexpr Cycles kSetupCycles = 12;
/// L2 beats are posted in bursts of this size.
constexpr u32 kBurstBytes = 64;
}  // namespace

PeriphUdma::PeriphUdma(std::vector<u8>* l2, Addr l2_base,
                       mem::MemTiming* l2_timing, std::function<void()> irq)
    : l2_(l2),
      l2_base_(l2_base),
      l2_timing_(l2_timing),
      irq_(std::move(irq)),
      stats_("periph_udma"),
      ctr_rx_streams_(stats_.counter("rx_streams")),
      ctr_rx_bytes_(stats_.counter("rx_bytes")),
      ctr_tx_streams_(stats_.counter("tx_streams")),
      ctr_tx_bytes_(stats_.counter("tx_bytes")) {
  HULKV_CHECK(l2 != nullptr && l2_timing != nullptr,
              "peripheral uDMA needs the L2 and its timing model");
}

bool PeriphUdma::in_l2(Addr addr, u64 bytes) const {
  return addr >= l2_base_ && addr + bytes <= l2_base_ + l2_->size();
}

Cycles PeriphUdma::charge_l2(Cycles start, Addr addr, u32 bytes,
                             bool is_write) {
  // The stream rate dominates; the L2 port just has to absorb the bursts
  // (its occupancy advances so other masters feel the traffic).
  Cycles t = start;
  for (u32 off = 0; off < bytes; off += kBurstBytes) {
    const u32 n = std::min(kBurstBytes, bytes - off);
    t = l2_timing_->access(t, addr + off, n, is_write);
  }
  return t;
}

Cycles PeriphUdma::start_rx(Cycles now, Addr dst, std::span<const u8> data,
                            double bytes_per_cycle) {
  HULKV_CHECK(!data.empty(), "empty peripheral RX stream");
  HULKV_CHECK(bytes_per_cycle > 0, "peripheral rate must be positive");
  HULKV_CHECK(in_l2(dst, data.size()),
              "peripheral uDMA targets the L2SPM only");

  std::memcpy(l2_->data() + (dst - l2_base_), data.data(), data.size());
  const Cycles stream_time = static_cast<Cycles>(
      static_cast<double>(data.size()) / bytes_per_cycle);
  const Cycles l2_done = charge_l2(now + kSetupCycles, dst,
                                   static_cast<u32>(data.size()),
                                   /*is_write=*/true);
  const Cycles done =
      std::max(now + kSetupCycles + stream_time, l2_done);
  ctr_rx_streams_ += 1;
  ctr_rx_bytes_ += data.size();
  if (irq_) irq_();
  return done;
}

Cycles PeriphUdma::start_tx(Cycles now, Addr src, u32 bytes,
                            double bytes_per_cycle) {
  HULKV_CHECK(bytes > 0, "empty peripheral TX stream");
  HULKV_CHECK(bytes_per_cycle > 0, "peripheral rate must be positive");
  HULKV_CHECK(in_l2(src, bytes), "peripheral uDMA reads the L2SPM only");

  tx_log_.append(reinterpret_cast<const char*>(l2_->data() +
                                               (src - l2_base_)),
                 bytes);
  const Cycles stream_time =
      static_cast<Cycles>(static_cast<double>(bytes) / bytes_per_cycle);
  const Cycles l2_done =
      charge_l2(now + kSetupCycles, src, bytes, /*is_write=*/false);
  const Cycles done = std::max(now + kSetupCycles + stream_time, l2_done);
  ctr_tx_streams_ += 1;
  ctr_tx_bytes_ += bytes;
  if (irq_) irq_();
  return done;
}

}  // namespace hulkv::host
