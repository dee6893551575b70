// SoC memory map and AXI4 crossbar model (paper figure 1).
//
// The main host interconnect is a 64-bit AXI4 crossbar connecting the
// CVA6 core, the PMCA's master port, the uDMA and the memory targets
// (L2SPM, LLC + external memory, cluster TCDM, APB peripherals). This
// model routes by address, applies a per-hop crossbar latency, performs
// the functional data movement, and delegates per-target timing to the
// registered MemTiming models. An IOPMP hook filters transactions from
// cluster masters (section III-C: "An IOPMP controlled by CVA6 filters
// master transactions").
#pragma once

#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "mem/backing_store.hpp"
#include "mem/timing.hpp"

namespace hulkv::mem {

/// SoC physical memory map (PULP-style, DESIGN.md section 4).
namespace map {
inline constexpr Addr kBootRomBase = 0x0000'1000ull;
inline constexpr u64 kBootRomSize = 64 * 1024;
inline constexpr Addr kTcdmBase = 0x1000'0000ull;
inline constexpr u64 kTcdmSize = 128 * 1024;
inline constexpr Addr kClusterPeriphBase = 0x1020'0000ull;
inline constexpr u64 kClusterPeriphSize = 64 * 1024;
inline constexpr Addr kApbBase = 0x1A10'0000ull;
inline constexpr u64 kApbSize = 1024 * 1024;
inline constexpr Addr kL2Base = 0x1C00'0000ull;
inline constexpr u64 kL2Size = 512 * 1024;
inline constexpr Addr kDramBase = 0x8000'0000ull;
inline constexpr u64 kDramSize = 512ull * 1024 * 1024;
}  // namespace map

/// Memory-mapped peripheral registers (event unit, mailbox, DMA config).
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual u64 mmio_read(Addr offset, u32 size) = 0;
  virtual void mmio_write(Addr offset, u64 value, u32 size) = 0;
};

/// Identity of the requesting AXI master (for IOPMP filtering and for
/// per-path crossbar latencies).
enum class Master { kHost, kClusterCore, kClusterDma, kUdma };

class SocBus {
 public:
  SocBus();

  // ---- wiring (called once by the SoC constructor) ----

  /// Attach flat SRAM targets. `timing` models the target-side latency;
  /// the crossbar hop is added by the bus.
  void set_tcdm(std::vector<u8>* storage, MemTiming* timing);
  void set_l2(std::vector<u8>* storage, MemTiming* timing);
  void set_boot_rom(std::vector<u8>* storage, MemTiming* timing);

  /// Attach the external-memory path. `timing` is the LLC (or the bare
  /// device when the LLC is disabled, Figs. 7/8 configurations).
  void set_dram(BackingStore* store, MemTiming* timing);

  /// Attach an MMIO window (cluster peripherals / APB devices).
  void add_mmio(Addr base, u64 size, MmioDevice* device, MemTiming* timing);

  /// Install the IOPMP check applied to cluster-master transactions.
  /// Return false to deny (the bus raises a SimError, modelling an AXI
  /// error response).
  using IopmpCheck = std::function<bool(Addr addr, u32 bytes, bool is_write)>;
  void set_iopmp(IopmpCheck check) { iopmp_ = std::move(check); }

  // ---- timed accesses (functional data movement + timing) ----

  Cycles read(Cycles now, Addr addr, void* dst, u32 bytes, Master master);
  Cycles write(Cycles now, Addr addr, const void* src, u32 bytes,
               Master master);

  // ---- functional-only accesses (loaders, tests, debug) ----

  void read_functional(Addr addr, void* dst, u32 bytes);
  void write_functional(Addr addr, const void* src, u32 bytes);

  /// Direct handle to the DRAM contents (loaders, DMA engines).
  BackingStore* dram_store() { return dram_store_; }
  /// Timing model of the DRAM path as seen from the AXI side (the LLC).
  MemTiming* dram_timing() { return dram_timing_; }

  const StatGroup& stats() const { return stats_; }

  /// Snapshot traversal. The wiring (regions, handlers) is established
  /// at construction and never changes; the crossbar's only mutable
  /// state is its counters.
  void serialize(snapshot::Archive& ar) { stats_.serialize(ar); }

  /// Freshly-constructed state (counters only; wiring is untouched).
  void reset() { stats_.reset(); }

 private:
  struct SramRegion {
    Addr base = 0;
    u64 size = 0;
    std::vector<u8>* storage = nullptr;
    MemTiming* timing = nullptr;
  };
  struct MmioRegion {
    Addr base = 0;
    u64 size = 0;
    MmioDevice* device = nullptr;
    MemTiming* timing = nullptr;
  };

  Cycles transact(Cycles now, Addr addr, void* data, u32 bytes,
                  bool is_write, Master master, bool timed);
  Cycles xbar_latency(Master master) const;

  std::vector<SramRegion> srams_;
  std::vector<MmioRegion> mmios_;
  BackingStore* dram_store_ = nullptr;
  MemTiming* dram_timing_ = nullptr;
  IopmpCheck iopmp_;
  StatGroup stats_;
  // Interned counter slots, bumped on every timed transaction.
  u64& ctr_reads_;
  u64& ctr_writes_;
  u64& ctr_bytes_;
};

}  // namespace hulkv::mem
