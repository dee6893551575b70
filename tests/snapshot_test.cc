// hulkv::snapshot: container format, archive traversal, Soc::save /
// restore / state_digest / reset.
//
// The load-bearing guarantee (DESIGN.md section 11): restore is exact.
// A SoC restored from a mid-run snapshot continues cycle-identically —
// same per-segment cycle counts, same trace events, same final state
// digest — as the uninterrupted run.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "isa/instr.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "kernels/kernel.hpp"
#include "runtime/offload.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hulkv;

/// Minimal cluster kernel: every core writes hartid+arg[0] to
/// tcdm[0x400+4*hart], then exits.
std::vector<u32> stamp_kernel() {
  using namespace isa::reg;
  isa::Assembler a(0, false);
  a.lw(s1, 0, a0);  // args[0]
  a.ri(isa::Op::kCsrrs, t0, 0, isa::csr::kMhartid);
  a.add(t1, t0, s1);
  a.slli(t2, t0, 2);
  a.li(t3, mem::map::kTcdmBase + 0x400);
  a.add(t2, t2, t3);
  a.sw(t1, 0, t2);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  return a.assemble();
}

// ---------------------------------------------------------------- archive

TEST(Archive, PodRoundTrip) {
  std::vector<u8> bytes;
  {
    snapshot::Archive ar = snapshot::Archive::saver(&bytes);
    u64 a = 0x1122334455667788ull;
    u32 b = 42;
    bool c = true;
    ar.pod(a);
    ar.pod(b);
    ar.pod(c);
  }
  snapshot::Archive ar = snapshot::Archive::loader(bytes.data(),
                                                   bytes.size());
  u64 a = 0;
  u32 b = 0;
  bool c = false;
  ar.pod(a);
  ar.pod(b);
  ar.pod(c);
  EXPECT_EQ(a, 0x1122334455667788ull);
  EXPECT_EQ(b, 42u);
  EXPECT_TRUE(c);
  EXPECT_EQ(ar.remaining(), 0u);
}

TEST(Archive, StringVectorAndBoolVectorRoundTrip) {
  std::vector<u8> bytes;
  {
    snapshot::Archive ar = snapshot::Archive::saver(&bytes);
    std::string s = "hulk-v";
    std::vector<u32> v = {1, 2, 3, 0xFFFFFFFFu};
    std::vector<bool> b = {true, false, true, true};
    ar.str(s);
    ar.pod_vec(v);
    ar.bool_vec(b);
  }
  snapshot::Archive ar = snapshot::Archive::loader(bytes.data(),
                                                   bytes.size());
  std::string s;
  std::vector<u32> v;
  std::vector<bool> b;
  ar.str(s);
  ar.pod_vec(v);
  ar.bool_vec(b);
  EXPECT_EQ(s, "hulk-v");
  EXPECT_EQ(v, (std::vector<u32>{1, 2, 3, 0xFFFFFFFFu}));
  EXPECT_EQ(b, (std::vector<bool>{true, false, true, true}));
}

TEST(Archive, LoaderThrowsOnTruncation) {
  std::vector<u8> bytes = {1, 2, 3};
  snapshot::Archive ar = snapshot::Archive::loader(bytes.data(),
                                                   bytes.size());
  u64 v = 0;
  EXPECT_THROW(ar.pod(v), SimError);
}

/// Loader input holding a u64 length prefix of `len` and four payload
/// bytes: what a corrupt or hostile snapshot section looks like.
std::vector<u8> length_prefixed(u64 len) {
  std::vector<u8> bytes(sizeof(u64) + 4, 0xAB);
  std::memcpy(bytes.data(), &len, sizeof(len));
  return bytes;
}

TEST(Archive, HugeLengthPrefixThrowsBeforeAllocating) {
  // Sizing the container from the prefix before the bounds check would
  // surface as std::bad_alloc / std::length_error, not SimError.
  for (const u64 len : {u64{1} << 40, ~u64{0}}) {
    const std::vector<u8> bytes = length_prefixed(len);
    {
      auto ar = snapshot::Archive::loader(bytes.data(), bytes.size());
      std::string s;
      EXPECT_THROW(ar.str(s), SimError) << len;
      EXPECT_TRUE(s.empty());
    }
    {
      auto ar = snapshot::Archive::loader(bytes.data(), bytes.size());
      std::vector<u32> v;
      EXPECT_THROW(ar.pod_vec(v), SimError) << len;
      EXPECT_TRUE(v.empty());
    }
    {
      auto ar = snapshot::Archive::loader(bytes.data(), bytes.size());
      std::vector<bool> v;
      EXPECT_THROW(ar.bool_vec(v), SimError) << len;
      EXPECT_TRUE(v.empty());
    }
  }
}

TEST(Archive, ElementCountTimesSizeOverflowIsRejected) {
  // (2^62 + 1) * sizeof(u32) wraps to 4 bytes — exactly what is left.
  const std::vector<u8> bytes = length_prefixed((u64{1} << 62) + 1);
  auto ar = snapshot::Archive::loader(bytes.data(), bytes.size());
  std::vector<u32> v;
  EXPECT_THROW(ar.pod_vec(v), SimError);
  EXPECT_TRUE(v.empty());
}

TEST(Archive, RawByteLengthCannotWrapTheBoundsCheck) {
  const std::vector<u8> bytes = length_prefixed(0);
  auto ar = snapshot::Archive::loader(bytes.data(), bytes.size());
  u64 prefix = 1;
  ar.pod(prefix);  // in_pos_ = 8: in_pos_ + (2^64 - 1) wraps to 7
  u8 dst[4] = {};
  EXPECT_THROW(ar.bytes(dst, ~u64{0}), SimError);
  EXPECT_EQ(ar.remaining(), 4u);
}

TEST(Archive, HashDistinguishesValues) {
  const auto digest = [](u64 value) {
    snapshot::Archive ar = snapshot::Archive::hasher();
    ar.pod(value);
    return ar.hash();
  };
  EXPECT_EQ(digest(7), digest(7));
  EXPECT_NE(digest(7), digest(8));
}

// -------------------------------------------------------------- container

TEST(SnapshotContainer, WriterReaderRoundTrip) {
  std::ostringstream os(std::ios::binary);
  {
    snapshot::Writer w(os);
    w.section(snapshot::kMeta, [](snapshot::Archive& ar) {
      u64 v = 0xABCDu;
      ar.pod(v);
    });
    w.finish();
  }
  std::istringstream is(os.str(), std::ios::binary);
  snapshot::Reader r(is);
  ASSERT_TRUE(r.has(snapshot::kMeta));
  u64 v = 0;
  r.section(snapshot::kMeta, [&](snapshot::Archive& ar) { ar.pod(v); });
  EXPECT_EQ(v, 0xABCDu);
}

TEST(SnapshotContainer, UnknownSectionsAreSkippable) {
  // A reader from this build must tolerate sections written by a future
  // build: ids it does not ask for are simply never consumed.
  constexpr u32 kFutureId = 0x7F00;
  std::ostringstream os(std::ios::binary);
  {
    snapshot::Writer w(os);
    w.section(kFutureId, [](snapshot::Archive& ar) {
      u64 junk = 0xDEAD;
      ar.pod(junk);
    });
    w.section(snapshot::kMeta, [](snapshot::Archive& ar) {
      u64 v = 1;
      ar.pod(v);
    });
    w.finish();
  }
  std::istringstream is(os.str(), std::ios::binary);
  snapshot::Reader r(is);
  EXPECT_TRUE(r.has(kFutureId));
  u64 v = 0;
  r.section(snapshot::kMeta, [&](snapshot::Archive& ar) { ar.pod(v); });
  EXPECT_EQ(v, 1u);
}

TEST(SnapshotContainer, PartiallyConsumedSectionIsAnError) {
  std::ostringstream os(std::ios::binary);
  {
    snapshot::Writer w(os);
    w.section(snapshot::kMeta, [](snapshot::Archive& ar) {
      u64 a = 1, b = 2;
      ar.pod(a);
      ar.pod(b);
    });
    w.finish();
  }
  std::istringstream is(os.str(), std::ios::binary);
  snapshot::Reader r(is);
  u64 a = 0;
  EXPECT_THROW(
      r.section(snapshot::kMeta,
                [&](snapshot::Archive& ar) { ar.pod(a); }),
      SimError);
}

// ------------------------------------------------------- error rejection

std::string saved_soc_bytes(core::HulkVSoc& soc) {
  std::ostringstream os(std::ios::binary);
  soc.save(os);
  return os.str();
}

void expect_restore_error(const std::string& bytes,
                          const std::string& needle) {
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  std::istringstream is(bytes, std::ios::binary);
  try {
    soc.restore(is);
    FAIL() << "restore accepted a corrupt snapshot (wanted error with '"
           << needle << "')";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(SnapshotErrors, BadMagicRejected) {
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  bytes[0] = 'X';
  expect_restore_error(bytes, "bad magic");
}

TEST(SnapshotErrors, UnsupportedVersionRejected) {
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  bytes[4] = 99;  // version field follows the 4-byte magic
  expect_restore_error(bytes, "unsupported format version");
}

TEST(SnapshotErrors, TruncatedFileRejected) {
  core::HulkVSoc soc;
  const std::string bytes = saved_soc_bytes(soc);
  expect_restore_error(bytes.substr(0, bytes.size() / 2), "truncated");
  expect_restore_error(bytes.substr(0, 6), "truncated");
  expect_restore_error("", "truncated");
}

TEST(SnapshotErrors, FlippedPayloadByteFailsChecksum) {
  core::HulkVSoc soc;
  std::string bytes = saved_soc_bytes(soc);
  bytes[bytes.size() / 2] ^= 0x40;
  expect_restore_error(bytes, "checksum mismatch");
}

TEST(SnapshotErrors, ConfigMismatchRejected) {
  core::SocConfig cfg;
  cfg.enable_llc = false;
  core::HulkVSoc soc(cfg);
  // Restore into the default (LLC-enabled) config must be refused via
  // the kMeta fingerprint before any component state is touched.
  expect_restore_error(saved_soc_bytes(soc), "configuration mismatch");
}

// ------------------------------------------------------------ reset/fresh

TEST(SocReset, ResetEqualsFreshlyConstructedDigest) {
  core::SocConfig cfg;
  core::HulkVSoc fresh(cfg);
  core::HulkVSoc used(cfg);
  const u64 fresh_digest = fresh.state_digest();
  ASSERT_EQ(used.state_digest(), fresh_digest);

  const std::array<u64, 1> args = {core::layout::kSharedBase};
  kernels::run_host_program(
      used, kernels::host_stride_reads(64, 128, 3).words, args);
  EXPECT_NE(used.state_digest(), fresh_digest);

  used.reset();
  EXPECT_EQ(used.state_digest(), fresh_digest);
}

TEST(SocReset, ResetCoversOffloadState) {
  core::SocConfig cfg;
  core::HulkVSoc fresh(cfg);
  core::HulkVSoc used(cfg);
  runtime::OffloadRuntime fresh_rt(&fresh);
  runtime::OffloadRuntime used_rt(&used);
  const u64 fresh_digest = fresh_rt.state_digest();
  ASSERT_EQ(used_rt.state_digest(), fresh_digest);

  const auto handle = used_rt.register_kernel("stamp", stamp_kernel());
  (void)used_rt.hulk_malloc(4096);
  used_rt.offload(handle, std::array<u32, 1>{17});
  EXPECT_NE(used_rt.state_digest(), fresh_digest);

  used.reset();
  used_rt.reset();
  EXPECT_EQ(used_rt.state_digest(), fresh_digest);
}

// -------------------------------------------------- mid-run round trips

/// Start (but do not finish) a host program, exactly as
/// kernels::run_host_program sets it up.
void start_host_program(core::HulkVSoc& soc, const std::vector<u32>& words,
                        std::span<const u64> args) {
  soc.load_program(core::layout::kHostCodeBase, words);
  auto& host = soc.host();
  for (size_t i = 0; i < args.size(); ++i) {
    host.set_reg(static_cast<u8>(isa::reg::a0 + i), args[i]);
  }
  host.set_reg(isa::reg::sp, core::layout::kHostStackTop - 64);
  host.set_pc(core::layout::kHostCodeBase);
}

TEST(SnapshotRoundTrip, MidHostProgramContinuesCycleIdentically) {
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  const auto program = kernels::host_stride_reads(64, 256, 4).words;

  start_host_program(a, program, args);
  const auto partial = a.host().run(/*max_instructions=*/300);
  ASSERT_FALSE(partial.exited) << "program too short for a mid-run save";

  core::HulkVSoc b(cfg);
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }
  ASSERT_EQ(a.state_digest(), b.state_digest());

  const auto rest_a = a.host().run();
  const auto rest_b = b.host().run();
  EXPECT_TRUE(rest_a.exited);
  EXPECT_TRUE(rest_b.exited);
  EXPECT_EQ(rest_a.cycles, rest_b.cycles);
  EXPECT_EQ(rest_a.instret, rest_b.instret);
  EXPECT_EQ(rest_a.exit_code, rest_b.exit_code);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(SnapshotRoundTrip, MidHostProgramTraceIsIdentical) {
  // Tracing is observational (no timing model consults the sink), so
  // the continuation of a restored SoC must emit the exact same event
  // stream as the uninterrupted run.
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  const auto program = kernels::host_stride_reads(64, 256, 4).words;
  start_host_program(a, program, args);
  ASSERT_FALSE(a.host().run(300).exited);

  core::HulkVSoc b(cfg);
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }

  struct Recorded {
    std::string track;
    trace::Ev type;
    Cycles ts, dur;
    u64 value, arg;
    bool operator==(const Recorded&) const = default;
  };
  const auto traced_run = [&](core::HulkVSoc& soc) {
    auto& sink = trace::sink();
    sink.clear();
    sink.enable();
    soc.host().run();
    std::vector<Recorded> out;
    out.reserve(sink.events().size());
    for (const trace::Event& e : sink.events()) {
      out.push_back({sink.track_names()[e.track], e.type, e.ts, e.dur,
                     e.value, e.arg});
    }
    sink.disable();
    sink.clear();
    return out;
  };
  const std::vector<Recorded> trace_a = traced_run(a);
  const std::vector<Recorded> trace_b = traced_run(b);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
}

TEST(SnapshotRoundTrip, MidHardwareLoopContinuesIdentically) {
  // Step a PMCA core into the body of an Xpulp hardware loop, snapshot
  // with the loop live, and check the restored core walks the remaining
  // iterations in lockstep with the original.
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);

  isa::Assembler as(mem::map::kL2Base, /*rv64=*/false);
  as.li(isa::reg::t0, 50);
  as.lp_setup(0, isa::reg::t0, "done");
  as.addi(isa::reg::a0, isa::reg::a0, 1);
  as.addi(isa::reg::a1, isa::reg::a1, 3);
  as.label("done");
  as.addi(isa::reg::a2, isa::reg::a2, 7);
  const std::vector<u32> words = as.assemble();
  a.load_program(mem::map::kL2Base, words);

  auto& core_a = a.cluster().core(0);
  core_a.reset_for_run(mem::map::kL2Base);
  for (int i = 0; i < 21; ++i) core_a.step();  // inside the loop body
  ASSERT_EQ(core_a.state(), cluster::PmcaCore::State::kRunning);

  core::HulkVSoc b(cfg);
  b.load_program(mem::map::kL2Base, words);  // same code in both L2s
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }
  ASSERT_EQ(a.state_digest(), b.state_digest());

  auto& core_b = b.cluster().core(0);
  ASSERT_EQ(core_a.pc(), core_b.pc());
  for (int i = 0; i < 60; ++i) {
    core_a.step();
    core_b.step();
    ASSERT_EQ(core_a.pc(), core_b.pc()) << "diverged at step " << i;
    ASSERT_EQ(core_a.now(), core_b.now()) << "diverged at step " << i;
  }
  EXPECT_EQ(core_a.reg(isa::reg::a0), core_b.reg(isa::reg::a0));
  EXPECT_EQ(core_a.reg(isa::reg::a1), core_b.reg(isa::reg::a1));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(SnapshotRoundTrip, MidDmaTransferContinuesIdentically) {
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  std::vector<u8> payload(2048);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<u8>(i * 7 + 3);
  }
  a.write_mem(core::layout::kSharedBase, payload.data(), payload.size());

  // Issue the transfer and snapshot while its completion time is still
  // in the future — the outstanding-job list is live state.
  const u32 job = a.cluster().dma().start_1d(
      /*now=*/100, mem::map::kTcdmBase + 0x400, core::layout::kSharedBase,
      static_cast<u32>(payload.size()));
  const Cycles finish_a = a.cluster().dma().finish_time(job);
  ASSERT_GT(finish_a, 100u);

  core::HulkVSoc b(cfg);
  {
    std::ostringstream os(std::ios::binary);
    a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    b.restore(is);
  }
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(b.cluster().dma().finish_time(job), finish_a);
  EXPECT_EQ(b.cluster().dma().finish_all(), a.cluster().dma().finish_all());

  std::vector<u8> got(payload.size());
  b.read_mem(mem::map::kTcdmBase + 0x400, got.data(), got.size());
  EXPECT_EQ(got, payload);
}

TEST(SnapshotRoundTrip, OffloadSequenceSplitsExactly) {
  // Save between two offloads (runtime state live: resident image,
  // consumed arenas) and check the second offload costs exactly the
  // same on the restored pair as on the uninterrupted one.
  core::SocConfig cfg;

  core::HulkVSoc a(cfg);
  runtime::OffloadRuntime rt_a(&a);
  const auto handle = rt_a.register_kernel("stamp", stamp_kernel());
  const auto first = rt_a.offload(handle, std::array<u32, 1>{5});

  core::HulkVSoc b(cfg);
  runtime::OffloadRuntime rt_b(&b);
  {
    std::ostringstream os(std::ios::binary);
    rt_a.save(os);
    std::istringstream is(os.str(), std::ios::binary);
    rt_b.restore(is);
  }
  ASSERT_EQ(rt_a.state_digest(), rt_b.state_digest());

  // The restored runtime's kernel table came from the snapshot; the
  // handle is just an index and is valid on both sides.
  const auto second_a = rt_a.offload(handle, std::array<u32, 1>{6});
  const auto second_b = rt_b.offload(handle, std::array<u32, 1>{6});
  EXPECT_EQ(second_a.total, second_b.total);
  EXPECT_EQ(second_a.kernel, second_b.kernel);
  EXPECT_EQ(second_a.code_load, second_b.code_load);
  EXPECT_EQ(second_a.cluster_instret, second_b.cluster_instret);
  // Image already resident on both sides: no lazy code load.
  EXPECT_EQ(second_a.code_load, 0u);
  EXPECT_NE(first.code_load, 0u);
  EXPECT_EQ(rt_a.state_digest(), rt_b.state_digest());
}

TEST(SnapshotRoundTrip, BatchSocSnapshotMatchesStreamPath) {
  core::SocConfig cfg;
  core::HulkVSoc a(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  kernels::run_host_program(
      a, kernels::host_stride_reads(64, 128, 2).words, args);

  const batch::SocSnapshot snap = batch::SocSnapshot::capture(a);
  EXPECT_GT(snap.size_bytes(), 0u);
  core::HulkVSoc b(cfg);
  snap.restore_into(b);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

}  // namespace
