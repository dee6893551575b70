// Memory-system tests: backing store, caches + LRU, LLC geometry and
// filter, HyperRAM timing identities, DDR model, uDMA, SoC bus routing.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/ddr.hpp"
#include "mem/hyperram.hpp"
#include "mem/interconnect.hpp"
#include "mem/llc.hpp"
#include "mem/rpcdram.hpp"
#include "mem/udma.hpp"
#include "snapshot/archive.hpp"

namespace hulkv::mem {
namespace {

TEST(BackingStore, ReadsZeroWhenUntouched) {
  BackingStore store;
  EXPECT_EQ(store.load<u64>(0x8000'0000), 0u);
  EXPECT_EQ(store.resident_pages(), 0u);
}

TEST(BackingStore, RoundTripAcrossPages) {
  BackingStore store;
  std::vector<u8> data(10000);
  std::iota(data.begin(), data.end(), 0);
  const Addr base = 0x8000'0FF0;  // straddles page boundaries
  store.write(base, data.data(), data.size());
  std::vector<u8> back(data.size());
  store.read(base, back.data(), back.size());
  EXPECT_EQ(back, data);
  EXPECT_GE(store.resident_pages(), 3u);
}

TEST(BackingStore, TypedAccessors) {
  BackingStore store;
  store.store<u32>(0x100, 0xDEADBEEF);
  EXPECT_EQ(store.load<u32>(0x100), 0xDEADBEEFu);
  EXPECT_EQ(store.load<u16>(0x100), 0xBEEFu);
}

TEST(SetAssocTags, HitAfterFill) {
  SetAssocTags tags(4, 2, 64);
  EXPECT_FALSE(tags.lookup(0x1000));
  tags.fill(0x1000);
  EXPECT_TRUE(tags.lookup(0x1000));
  EXPECT_TRUE(tags.probe(0x1000));
  EXPECT_TRUE(tags.lookup(0x1038));  // same line
  EXPECT_FALSE(tags.probe(0x1040));  // next line
}

TEST(SetAssocTags, LruEviction) {
  SetAssocTags tags(1, 2, 64);  // one set, two ways
  tags.fill(0x0000);
  tags.fill(0x1000);
  EXPECT_TRUE(tags.probe(0x0000));
  // Touch 0x0000 so 0x1000 becomes LRU.
  EXPECT_TRUE(tags.lookup(0x0000));
  const auto victim = tags.fill(0x2000);
  EXPECT_TRUE(victim.valid);
  EXPECT_EQ(victim.line_addr, 0x1000u);
  EXPECT_TRUE(tags.probe(0x0000));
  EXPECT_FALSE(tags.probe(0x1000));
}

TEST(SetAssocTags, DirtyVictimReported) {
  SetAssocTags tags(1, 1, 64);
  tags.fill(0x0000);
  tags.mark_dirty(0x0000);
  const auto victim = tags.fill(0x1000);
  EXPECT_TRUE(victim.valid);
  EXPECT_TRUE(victim.dirty);
  EXPECT_EQ(victim.line_addr, 0x0000u);
}

TEST(SetAssocTags, VictimAddressReconstruction) {
  // Property: for random addresses, the evicted line address always maps
  // back to the same set as the filling address.
  Xoshiro256 rng(3);
  SetAssocTags tags(16, 2, 64);
  for (int i = 0; i < 2000; ++i) {
    const Addr addr = rng.next_below(1u << 24) * 64;
    const auto victim = tags.fill(addr);
    if (victim.valid) {
      EXPECT_EQ((victim.line_addr / 64) % 16, (addr / 64) % 16);
    }
  }
}

TEST(CacheModel, HitsAreFast) {
  FixedLatency slow(100);
  CacheConfig cfg{.name = "c",
                  .size_bytes = 1024,
                  .line_bytes = 64,
                  .ways = 2,
                  .write_through = false,
                  .write_allocate = true,
                  .hit_latency = 1,
                  .fill_penalty = 1};
  CacheModel cache(cfg, &slow);
  const Cycles miss = cache.access(0, 0x1000, 4, false);
  EXPECT_GE(miss, 100u);  // refill went downstream
  const Cycles hit = cache.access(miss, 0x1000, 4, false) - miss;
  EXPECT_EQ(hit, 1u);
  EXPECT_EQ(cache.stats().get("misses"), 1u);
  EXPECT_EQ(cache.stats().get("hits"), 1u);
}

TEST(CacheModel, WriteThroughForwardsEveryWrite) {
  FixedLatency next(10);
  CacheConfig cfg{.name = "wt",
                  .size_bytes = 1024,
                  .line_bytes = 64,
                  .ways = 2,
                  .write_through = true,
                  .write_allocate = false,
                  .hit_latency = 1,
                  .fill_penalty = 1};
  CacheModel cache(cfg, &next);
  cache.access(0, 0x0, 64, false);  // fill the line
  cache.access(100, 0x0, 8, true);  // write hit
  cache.access(200, 0x4000, 8, true);  // write miss (no allocate)
  EXPECT_EQ(cache.stats().get("writethrough_words"), 2u);
  EXPECT_FALSE(cache.config().write_allocate);
  // No-allocate: the missed write must not have installed the line.
  const Cycles before = cache.stats().get("misses");
  cache.access(300, 0x4000, 8, false);
  EXPECT_EQ(cache.stats().get("misses"), before + 1);
}

TEST(CacheModel, WritebackEvictsDirtyLines) {
  FixedLatency next(10);
  CacheConfig cfg{.name = "wb",
                  .size_bytes = 64,  // one line only
                  .line_bytes = 64,
                  .ways = 1,
                  .write_through = false,
                  .write_allocate = true,
                  .hit_latency = 1,
                  .fill_penalty = 0};
  CacheModel cache(cfg, &next);
  cache.access(0, 0x0, 8, true);     // miss + allocate + dirty
  cache.access(100, 0x1000, 8, false);  // evicts dirty line
  EXPECT_EQ(cache.stats().get("writebacks"), 1u);
}

TEST(CacheModel, LineStraddleSplits) {
  FixedLatency next(10);
  CacheConfig cfg{.name = "sp", .size_bytes = 1024, .line_bytes = 64,
                  .ways = 2};
  CacheModel cache(cfg, &next);
  cache.access(0, 60, 8, false);  // crosses the 64-byte boundary
  EXPECT_EQ(cache.stats().get("reads"), 2u);
}

TEST(Llc, PaperGeometryIs128kB) {
  LlcConfig cfg;
  EXPECT_EQ(cfg.line_bytes(), 64u);
  EXPECT_EQ(cfg.size_bytes(), 128u * 1024);
}

TEST(Llc, FilterBypassesNonCacheable) {
  Ddr4Model ddr({.latency = 50, .bytes_per_cycle = 8});
  Llc llc(LlcConfig{}, &ddr);
  // Below the cacheable base: propagated directly.
  llc.access(0, 0x1000, 8, false);
  EXPECT_EQ(llc.stats().get("bypass"), 1u);
  EXPECT_EQ(llc.stats().get("reads"), 0u);
}

TEST(Llc, MissThenHit) {
  Ddr4Model ddr({.latency = 50, .bytes_per_cycle = 8});
  Llc llc(LlcConfig{}, &ddr);
  const Addr addr = 0x8000'0000;
  const Cycles miss_done = llc.access(0, addr, 8, false);
  EXPECT_GT(miss_done, 50u);
  EXPECT_TRUE(llc.probe(addr));
  const Cycles t1 = llc.access(miss_done, addr, 8, false);
  EXPECT_EQ(t1 - miss_done,
            llc.config().tag_latency + llc.config().hit_latency);
  EXPECT_EQ(llc.hit_ratio(), 0.5);
}

TEST(Llc, DirtyEvictionWritesBack) {
  Ddr4Model ddr({.latency = 10, .bytes_per_cycle = 8});
  LlcConfig cfg;
  cfg.num_ways = 1;
  cfg.num_lines = 1;  // single line: every new line evicts
  Llc llc(cfg, &ddr);
  llc.access(0, 0x8000'0000, 8, true);   // dirty
  llc.access(100, 0x8000'1000, 8, false);  // evict + refill
  EXPECT_EQ(llc.stats().get("evictions"), 1u);
  EXPECT_EQ(ddr.stats().get("writes"), 1u);
  EXPECT_EQ(ddr.stats().get("bytes_written"), 64u);
}

TEST(Llc, WorkingSetLargerThanCacheMisses) {
  Ddr4Model ddr({.latency = 10, .bytes_per_cycle = 8});
  Llc llc(LlcConfig{}, &ddr);
  // Stream 1 MB twice: > 128 kB LLC, second pass should still miss.
  Cycles t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (Addr a = 0; a < (1u << 20); a += 64) {
      t = llc.access(t, 0x8000'0000 + a, 64, false);
    }
  }
  EXPECT_LT(llc.hit_ratio(), 0.01);
}

TEST(HyperRam, SingleBurstTiming) {
  HyperRamConfig cfg;
  cfg.refresh_period = 1u << 30;  // no refresh in this test
  HyperRamModel hyper(cfg);
  // 64-byte read: (3 CA + 6 latency + 32 data clocks) * clk_div 2.
  const Cycles done = hyper.access(0, 0x8000'0000, 64, false);
  EXPECT_EQ(done, (3 + 6 + 32) * 2u);
}

TEST(HyperRam, DualBusDoublesBandwidth) {
  HyperRamConfig one;
  one.refresh_period = 1u << 30;
  HyperRamConfig two = one;
  two.num_buses = 2;
  HyperRamModel bus1(one), bus2(two);
  const u32 bytes = 512;  // one max burst
  const Cycles t1 = bus1.access(0, 0x8000'0000, bytes, false);
  const Cycles t2 = bus2.access(0, 0x8000'0000, bytes, false);
  // Data phase halves; CA + latency overheads stay.
  const Cycles data1 = bytes / 2 * 2;  // clocks*div
  const Cycles data2 = bytes / 4 * 2;
  EXPECT_EQ(t1 - data1, t2 - data2);
  EXPECT_EQ(t1 - t2, data1 - data2);
  EXPECT_DOUBLE_EQ(two.peak_bytes_per_cycle(), 2.0);
}

TEST(HyperRam, LongTransfersSplitIntoBursts) {
  HyperRamConfig cfg;
  cfg.refresh_period = 1u << 30;
  cfg.max_burst_bytes = 512;
  HyperRamModel hyper(cfg);
  hyper.access(0, 0x8000'0000, 2048, false);
  EXPECT_EQ(hyper.stats().get("bursts"), 4u);
}

TEST(HyperRam, ChipSelectBoundarySplits) {
  HyperRamConfig cfg;
  cfg.refresh_period = 1u << 30;
  cfg.chip_bytes = 1024;  // tiny chips to force a CS crossing
  cfg.chips_per_bus = 8;
  cfg.max_burst_bytes = 4096;
  HyperRamModel hyper(cfg);
  hyper.access(0, 0x8000'0000 + 512, 1024, false);  // crosses chip 0->1
  EXPECT_EQ(hyper.stats().get("bursts"), 2u);
}

TEST(HyperRam, RefreshCollisionAddsLatency) {
  HyperRamConfig cfg;
  cfg.refresh_period = 100;
  HyperRamModel hyper(cfg);
  Cycles t = 0;
  for (int i = 0; i < 20; ++i) {
    t = hyper.access(t, 0x8000'0000, 64, false);
  }
  EXPECT_GT(hyper.stats().get("refresh_collisions"), 0u);
}

TEST(HyperRam, DeviceSerialisesConcurrentMasters) {
  HyperRamConfig cfg;
  cfg.refresh_period = 1u << 30;
  HyperRamModel hyper(cfg);
  const Cycles a = hyper.access(0, 0x8000'0000, 64, false);
  // Second request issued "in the past" still starts after the first.
  const Cycles b = hyper.access(0, 0x8000'2000, 64, false);
  EXPECT_GE(b, a);
}

TEST(HyperRam, CapacityAndConfigValidation) {
  HyperRamConfig cfg;
  EXPECT_EQ(cfg.total_bytes(), 512ull * 1024 * 1024);
  cfg.num_buses = 3;
  EXPECT_THROW(HyperRamModel bad(cfg), SimError);
}

TEST(Ddr4, LatencyAndBandwidth) {
  Ddr4Model ddr({.latency = 21, .bytes_per_cycle = 8});
  EXPECT_EQ(ddr.access(0, 0x8000'0000, 64, false), 21u + 8u);
  // Back-to-back transfers pipeline: only the data beats serialise.
  const Cycles second = ddr.access(0, 0x8000'0040, 64, false);
  EXPECT_EQ(second, 8u + 21u + 8u);
}

TEST(Ddr4, IsFasterThanHyperRamForLines) {
  HyperRamConfig hcfg;
  hcfg.refresh_period = 1u << 30;
  HyperRamModel hyper(hcfg);
  Ddr4Model ddr({});
  const Cycles th = hyper.access(0, 0x8000'0000, 64, false);
  const Cycles td = ddr.access(0, 0x8000'0000, 64, false);
  EXPECT_GT(th, 2 * td);  // the gap Figs. 7/8 rest on
}

class SocBusFixture : public ::testing::Test {
 protected:
  SocBusFixture() : l2_(1024 * 512), rom_(65536), ddr_({}) {
    bus_.set_l2(&l2_, &l2_timing_);
    bus_.set_boot_rom(&rom_, &rom_timing_);
    bus_.set_dram(&dram_, &ddr_);
  }

  std::vector<u8> l2_, rom_;
  BackingStore dram_;
  Ddr4Model ddr_;
  SramTiming l2_timing_{1, 8};
  SramTiming rom_timing_{1, 8};
  SocBus bus_;
};

TEST_F(SocBusFixture, RoutesByAddress) {
  const u64 value = 0x1122334455667788ull;
  bus_.write_functional(map::kL2Base + 8, &value, 8);
  EXPECT_EQ(*reinterpret_cast<u64*>(l2_.data() + 8), value);
  u64 got = 0;
  bus_.read_functional(map::kL2Base + 8, &got, 8);
  EXPECT_EQ(got, value);

  bus_.write_functional(map::kDramBase + 64, &value, 8);
  EXPECT_EQ(dram_.load<u64>(map::kDramBase + 64), value);
}

TEST_F(SocBusFixture, UnmappedAddressThrows) {
  u64 v = 0;
  EXPECT_THROW(bus_.read_functional(0x5000'0000, &v, 8), SimError);
}

TEST_F(SocBusFixture, TimedAccessAddsXbarHop) {
  u64 v = 0;
  const Cycles done = bus_.read(100, map::kL2Base, &v, 8, Master::kHost);
  EXPECT_GT(done, 100u);
}

TEST_F(SocBusFixture, IopmpDeniesClusterOnly) {
  bus_.set_iopmp([](Addr, u32, bool) { return false; });
  u64 v = 0;
  EXPECT_NO_THROW(bus_.read(0, map::kL2Base, &v, 8, Master::kHost));
  EXPECT_THROW(bus_.read(0, map::kL2Base, &v, 8, Master::kClusterCore),
               SimError);
  EXPECT_THROW(bus_.write(0, map::kL2Base, &v, 8, Master::kClusterDma),
               SimError);
}

TEST_F(SocBusFixture, IopmpDenialNamesTheAddressInHex) {
  bus_.set_iopmp([](Addr, u32, bool) { return false; });
  u64 v = 0;
  try {
    bus_.read(0, map::kL2Base + 0x40, &v, 8, Master::kClusterCore);
    FAIL() << "IOPMP let a denied access through";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "IOPMP denied cluster access to 0x1c000040");
  }
  // A denied access is not counted as a bus transaction.
  EXPECT_EQ(bus_.stats().get("reads"), 0u);
}

class MmioEcho : public MmioDevice {
 public:
  u64 mmio_read(Addr offset, u32) override { return offset * 2; }
  void mmio_write(Addr offset, u64 value, u32) override {
    last_offset = offset;
    last_value = value;
  }
  Addr last_offset = 0;
  u64 last_value = 0;
};

TEST_F(SocBusFixture, MmioDispatch) {
  MmioEcho device;
  FixedLatency timing(4);
  bus_.add_mmio(0x1A10'0000, 0x1000, &device, &timing);
  u32 value = 0;
  bus_.read_functional(0x1A10'0010, &value, 4);
  EXPECT_EQ(value, 0x20u);
  const u32 w = 0xABCD;
  bus_.write_functional(0x1A10'0020, &w, 4);
  EXPECT_EQ(device.last_offset, 0x20u);
  EXPECT_EQ(device.last_value, 0xABCDu);
}

TEST(Udma, Transfers1dBothDirections) {
  BackingStore dram;
  std::vector<u8> l2(512 * 1024);
  HyperRamConfig cfg;
  cfg.refresh_period = 1u << 30;
  HyperRamModel hyper(cfg);
  Udma udma(&dram, &hyper, &l2, map::kL2Base, map::kDramBase);

  std::vector<u8> payload(1000);
  std::iota(payload.begin(), payload.end(), 1);
  dram.write(map::kDramBase + 0x100, payload.data(), payload.size());

  // DRAM -> L2.
  const Cycles t1 =
      udma.transfer_1d(0, map::kL2Base + 64, map::kDramBase + 0x100, 1000);
  EXPECT_GT(t1, 0u);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), l2.begin() + 64));

  // L2 -> DRAM.
  l2[64] = 0x5A;
  udma.transfer_1d(t1, map::kDramBase + 0x8000, map::kL2Base + 64, 1000);
  EXPECT_EQ(dram.load<u8>(map::kDramBase + 0x8000), 0x5A);
}

TEST(Udma, RejectsDramToDram) {
  BackingStore dram;
  std::vector<u8> l2(1024);
  Ddr4Model ddr({});
  Udma udma(&dram, &ddr, &l2, map::kL2Base, map::kDramBase);
  EXPECT_THROW(
      udma.transfer_1d(0, map::kDramBase, map::kDramBase + 0x1000, 64),
      SimError);
}

TEST(Udma, TwoDimensionalGather) {
  BackingStore dram;
  std::vector<u8> l2(4096);
  Ddr4Model ddr({});
  Udma udma(&dram, &ddr, &l2, map::kL2Base, map::kDramBase);
  // 4 rows of 16 bytes with stride 64 in DRAM -> packed in L2.
  for (u32 r = 0; r < 4; ++r) {
    std::vector<u8> row(16, static_cast<u8>(r + 1));
    dram.write(map::kDramBase + r * 64, row.data(), row.size());
  }
  udma.transfer_2d(0, map::kL2Base, map::kDramBase, 16, 4, 64);
  for (u32 r = 0; r < 4; ++r) {
    EXPECT_EQ(l2[r * 16], r + 1);
    EXPECT_EQ(l2[r * 16 + 15], r + 1);
  }
  EXPECT_EQ(udma.stats().get("jobs_2d"), 1u);
  EXPECT_EQ(udma.stats().get("bytes"), 64u);
}

TEST(SramTiming, PortSerialises) {
  SramTiming sram(1, 8);
  const Cycles a = sram.access(0, 0, 64, false);  // 8 beats
  EXPECT_EQ(a, 1u + 8u);
  const Cycles b = sram.access(0, 64, 8, false);  // queued behind
  EXPECT_EQ(b, 8u + 1u + 1u);
}

// ---------------------------------------------------------------------
// Golden access scripts. Each runs a fixed access sequence and pins
// every returned cycle (folded into one FNV-1a value), every non-zero
// counter and the snapshot digest of the tag/LRU state to values
// recorded from the reference implementation. Host-side speed work on
// these models (interned counters, shift-indexed tags) must leave all
// of them unchanged.
// ---------------------------------------------------------------------

/// Deterministic LCG for the scripts (no library RNG involved).
struct ScriptRng {
  u64 state;
  u64 next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 17;
  }
};

u64 fold(u64 hash, u64 value) {
  return snapshot::fnv1a(hash, &value, sizeof(value));
}

std::map<std::string, u64> nonzero_counters(const StatGroup& group) {
  std::map<std::string, u64> out;
  for (const auto& [key, value] : group.counters()) {
    if (value != 0) out[key] = value;
  }
  return out;
}

template <class Model>
u64 state_digest(Model& model) {
  snapshot::Archive ar = snapshot::Archive::hasher();
  model.serialize(ar);
  return ar.hash();
}

TEST(GoldenScript, RpcDramCyclesCountersAndState) {
  RpcDramModel rpc(RpcDramConfig{});
  ScriptRng rng{7};
  constexpr u32 kSizes[] = {4, 8, 64, 64, 600, 2100};
  u64 cycles_hash = snapshot::kFnvOffset;
  Cycles now = 0;
  Addr hot = 0;
  for (int i = 0; i < 3000; ++i) {
    const u64 r = rng.next();
    if (r % 8 == 0) hot = rng.next() % (96ull << 20);  // wraps past 64 MB
    const Addr addr = map::kDramBase + hot + rng.next() % 8192;
    const u32 bytes = kSizes[(r >> 4) % 6];
    const bool is_write = (r >> 8) % 3 == 0;
    now += (r >> 12) % 300;
    cycles_hash = fold(cycles_hash, rpc.access(now, addr, bytes, is_write));
  }
  EXPECT_EQ(cycles_hash, 8459091041689730449ull);
  EXPECT_EQ(nonzero_counters(rpc.stats()),
            (std::map<std::string, u64>{{"bursts", 5695},
                                        {"busy_cycles", 794502},
                                        {"bytes_read", 1086408},
                                        {"bytes_written", 379200},
                                        {"reads", 2019},
                                        {"refresh_collisions", 198},
                                        {"row_activations", 1449},
                                        {"row_conflicts", 1445},
                                        {"row_hits", 4246},
                                        {"writes", 981}}));
  EXPECT_EQ(state_digest(rpc), 14394325016113380719ull);
}

TEST(GoldenScript, SetAssocTagsLookupFillAndLru) {
  struct Geometry {
    u32 sets, ways, line;
    u64 golden;  // recorded script + final-state hash
  };
  for (const Geometry g :
       {Geometry{1, 8, 32, 3319053943326510970ull},
        Geometry{64, 4, 64, 2118506027925560704ull},
        Geometry{512, 8, 128, 3446620801870578538ull},
        Geometry{16, 1, 16, 634754052418603114ull}}) {
    SetAssocTags tags(g.sets, g.ways, g.line);
    ScriptRng rng{g.sets * 131 + g.ways};
    const u64 window = u64{g.sets} * g.ways * g.line * 3;
    u64 hash = snapshot::kFnvOffset;
    for (int i = 0; i < 5000; ++i) {
      const u64 r = rng.next();
      const Addr addr = rng.next() % window + ((r >> 20) % 4 << 40);
      switch (r % 5) {
        case 0:
        case 1:
          hash = fold(hash, tags.lookup(addr));
          break;
        case 2: {
          const SetAssocTags::Victim v = tags.fill(addr);
          hash = fold(hash, v.valid);
          hash = fold(hash, v.dirty);
          hash = fold(hash, v.line_addr);
          break;
        }
        case 3:
          if (tags.probe(addr)) tags.mark_dirty(addr);
          break;
        default:
          hash = fold(hash, tags.line_dirty(addr));
          hash = fold(hash, tags.line_of(addr));
          break;
      }
    }
    SCOPED_TRACE(testing::Message() << g.sets << "x" << g.ways << "x"
                                    << g.line);
    hash = fold(hash, state_digest(tags));
    EXPECT_EQ(hash, g.golden);
  }
}

TEST(GoldenScript, CacheHierarchyOverRpcDram) {
  // A write-through, no-allocate L1 in front of a write-back LLC-like
  // level in front of RPC DRAM: hits, misses, straddles, dirty
  // evictions and write-through words all occur.
  RpcDramModel rpc(RpcDramConfig{});
  CacheModel l2(CacheConfig{.name = "l2",
                            .size_bytes = 8 * 1024,
                            .line_bytes = 64,
                            .ways = 4,
                            .write_through = false,
                            .write_allocate = true,
                            .hit_latency = 3,
                            .fill_penalty = 2},
                &rpc);
  CacheModel l1(CacheConfig{.name = "l1",
                            .size_bytes = 2 * 1024,
                            .line_bytes = 32,
                            .ways = 2,
                            .hit_latency = 1,
                            .fill_penalty = 1},
                &l2);
  ScriptRng rng{11};
  constexpr u32 kSizes[] = {1, 2, 4, 8, 8, 16};
  u64 cycles_hash = snapshot::kFnvOffset;
  Cycles now = 0;
  for (int i = 0; i < 20000; ++i) {
    const u64 r = rng.next();
    const u64 span = (r >> 11) % 2 == 0 ? 1024 : 24 * 1024;  // hot half
    const Addr addr = map::kDramBase + rng.next() % span;
    now = l1.access(now + r % 3, addr, kSizes[(r >> 3) % 6],
                    (r >> 9) % 4 == 0);
    cycles_hash = fold(cycles_hash, now);
  }
  EXPECT_EQ(cycles_hash, 6022032405213452662ull);
  EXPECT_EQ(nonzero_counters(l1.stats()),
            (std::map<std::string, u64>{{"hits", 10063},
                                        {"misses", 13327},
                                        {"reads", 17554},
                                        {"writes", 5836},
                                        {"writethrough_words", 5836}}));
  EXPECT_EQ(nonzero_counters(l2.stats()),
            (std::map<std::string, u64>{{"hits", 8244},
                                        {"misses", 7540},
                                        {"reads", 9948},
                                        {"writebacks", 2501},
                                        {"writes", 5836}}));
  EXPECT_EQ(nonzero_counters(rpc.stats()),
            (std::map<std::string, u64>{{"bursts", 10041},
                                        {"busy_cycles", 523356},
                                        {"bytes_read", 482560},
                                        {"bytes_written", 160064},
                                        {"reads", 7540},
                                        {"refresh_collisions", 150},
                                        {"row_activations", 6647},
                                        {"row_conflicts", 6643},
                                        {"row_hits", 3394},
                                        {"writes", 2501}}));
  EXPECT_EQ(state_digest(l1), 6087291466256875731ull);
  EXPECT_EQ(state_digest(l2), 5403960384933356719ull);
  EXPECT_EQ(state_digest(rpc), 6121891572800653150ull);
}

}  // namespace
}  // namespace hulkv::mem
