// Threaded handlers as the one instruction semantics (DESIGN.md §15):
//  * handler-table coverage — every encodable op resolves to a handler
//    on at least one ISS or is a deliberate exec_slow() op,
//  * invalidation round-trip — translate, guest SMC, ranged
//    invalidate, re-lower — never executes a stale lowering,
//  * a mid-block ecall retires through exec_slow() at the same
//    pc/instret/cycle on both tiers and execution resumes after it,
//  * an op outside a core's ISA faults with the same SimError (mnemonic
//    and pc) on both tiers,
//  * tier selection never changes architectural results or timing
//    (the broad byte-equal gates live in determinism_test; these are
//    the targeted unit-level checks).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/pmca_core.hpp"
#include "core/soc.hpp"
#include "host/cva6.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding_table.hpp"
#include "isa/threaded.hpp"
#include "kernels/kernel.hpp"

namespace hulkv {
namespace {

using isa::Assembler;
using isa::Op;
using namespace isa::reg;

core::SocConfig fast_config() {
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  return cfg;
}

/// Ops that neither ISS lowers on purpose: they transfer control to an
/// environment (syscall/debug/sleep) whose handlers live behind each
/// core's exec_slow().
bool deliberate_deopt_everywhere(Op op) {
  return op == Op::kEcall || op == Op::kEbreak || op == Op::kWfi;
}

TEST(ThreadedTable, EveryEncodableOpResolvesSomewhere) {
  const host::Cva6Config host_cfg;
  const cluster::PmcaCoreConfig pmca_cfg;
  for (const isa::detail::EncInfo& enc : isa::detail::encoding_table()) {
    const bool host_has =
        host::threaded_resolve(enc.op, host_cfg).fn != nullptr;
    const bool pmca_has =
        cluster::threaded_resolve(enc.op, pmca_cfg).fn != nullptr;
    EXPECT_TRUE(host_has || pmca_has || deliberate_deopt_everywhere(enc.op))
        << "op " << static_cast<int>(enc.op)
        << " has no threaded handler on either ISS and is not a "
           "deliberate exec_slow() op";
  }
}

TEST(ThreadedTable, StaticCyclesMatchConfiguredLatencies) {
  // Spot-check the latency folding the timing-neutrality argument rests
  // on: static_cycles == 1 (issue) + the configured fixed latency.
  host::Cva6Config host_cfg;
  host_cfg.mul_latency = 3;
  host_cfg.div_latency = 17;
  host_cfg.fpu_latency = 5;
  host_cfg.jump_penalty = 2;
  EXPECT_EQ(host::threaded_resolve(Op::kAdd, host_cfg).static_cycles, 1u);
  EXPECT_EQ(host::threaded_resolve(Op::kMul, host_cfg).static_cycles, 4u);
  EXPECT_EQ(host::threaded_resolve(Op::kDiv, host_cfg).static_cycles, 18u);
  EXPECT_EQ(host::threaded_resolve(Op::kFaddS, host_cfg).static_cycles, 6u);
  EXPECT_EQ(host::threaded_resolve(Op::kJal, host_cfg).static_cycles, 3u);
  // Memory ops must never carry a folded latency: their handlers read
  // cycle_ (through the D-cache model), so all their cost is dynamic.
  EXPECT_EQ(host::threaded_resolve(Op::kLd, host_cfg).static_cycles, 1u);
  EXPECT_EQ(host::threaded_resolve(Op::kSd, host_cfg).static_cycles, 1u);

  cluster::PmcaCoreConfig pmca_cfg;
  pmca_cfg.mul_latency = 2;
  pmca_cfg.div_latency = 9;
  EXPECT_EQ(cluster::threaded_resolve(Op::kPMac, pmca_cfg).static_cycles,
            3u);
  EXPECT_EQ(cluster::threaded_resolve(Op::kDivu, pmca_cfg).static_cycles,
            10u);
  EXPECT_EQ(cluster::threaded_resolve(Op::kLw, pmca_cfg).static_cycles, 1u);
  // The fused load-MAC is LSU-timed like the interpreter: no mul fold.
  EXPECT_EQ(
      cluster::threaded_resolve(Op::kPvSdotspBMem, pmca_cfg).static_cycles,
      1u);
  // RV64-only ops are host-side handlers and cluster exec_slow() faults.
  EXPECT_EQ(cluster::threaded_resolve(Op::kLd, pmca_cfg).fn, nullptr);
  EXPECT_NE(host::threaded_resolve(Op::kLd, host_cfg).fn, nullptr);
}

TEST(ThreadedDeopt, InvalidationRoundTripRelowersBlock) {
  core::HulkVSoc soc(fast_config());
  soc.host().set_tier(isa::ExecTier::kThreaded);
  auto make = [](i64 value) {
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(a0, value);
    a.li(a7, 93);
    a.ecall();
    return a.assemble();
  };
  auto rerun = [&] {
    soc.host().set_reg(sp, core::layout::kHostStackTop - 64);
    soc.host().set_pc(core::layout::kHostCodeBase);
    return soc.host().run();
  };

  const std::vector<u32> v1 = make(1);
  soc.load_program(core::layout::kHostCodeBase, v1);
  EXPECT_EQ(rerun().exit_code, 1u);

  // The executed block is lowered and its lowering is current.
  const isa::DecodedBlock& block =
      soc.host().decode_blocks().block_at(core::layout::kHostCodeBase);
  EXPECT_EQ(block.threaded.generation, block.generation);
  EXPECT_EQ(block.threaded.code.size(), block.instrs.size());

  // Guest SMC without invalidation: the stale lowering still executes
  // (same contract as the decoded-block cache itself).
  const std::vector<u32> v2 = make(2);
  soc.write_mem(core::layout::kHostCodeBase, v2.data(), v2.size() * 4);
  EXPECT_EQ(rerun().exit_code, 1u);

  // Ranged invalidation over the image: re-translate AND re-lower.
  soc.host().invalidate_decode_cache(core::layout::kHostCodeBase,
                                     v2.size() * 4);
  EXPECT_EQ(rerun().exit_code, 2u);
  const isa::DecodedBlock& fresh =
      soc.host().decode_blocks().block_at(core::layout::kHostCodeBase);
  EXPECT_EQ(fresh.threaded.generation, fresh.generation);
}

TEST(ThreadedDeopt, MidBlockEcallResumesAtExactPcInstretCycle) {
  // An ecall in a loop body: both tiers retire it through exec_slow()
  // at the ecall's pc with the same instret/cycle, then resume after
  // it.
  struct Obs {
    std::vector<std::pair<Addr, std::pair<u64, Cycles>>> at_ecall;
    u64 exit_code = 0;
    u64 instret = 0;
    Cycles cycles = 0;
    u64 a0 = 0;
  };
  auto run_tier = [&](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    soc.host().set_tier(tier);
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(t0, 3);
    a.li(a0, 0);
    a.label("loop");
    a.addi(a0, a0, 1);
    a.li(a7, 0);  // "observe" syscall, continues
    a.ecall();
    a.addi(t0, t0, -1);
    a.bnez(t0, "loop");
    a.li(a7, 93);
    a.ecall();
    soc.load_program(core::layout::kHostCodeBase, a.assemble());

    Obs obs;
    soc.host().set_syscall_handler(
        [&obs](host::Cva6Core& c) -> host::Cva6Core::SyscallAction {
          if (c.reg(17) == 93) return host::Cva6Core::SyscallAction::kExit;
          obs.at_ecall.push_back({c.pc(), {c.instret(), c.now()}});
          return host::Cva6Core::SyscallAction::kContinue;
        });
    soc.host().set_pc(core::layout::kHostCodeBase);
    const auto run = soc.host().run();
    obs.exit_code = run.exit_code;
    obs.instret = run.instret;
    obs.cycles = run.cycles;
    obs.a0 = soc.host().reg(10);
    return obs;
  };

  const Obs interp = run_tier(isa::ExecTier::kInterp);
  const Obs threaded = run_tier(isa::ExecTier::kThreaded);
  EXPECT_EQ(interp.at_ecall.size(), 3u);
  ASSERT_EQ(threaded.at_ecall.size(), interp.at_ecall.size());
  for (size_t i = 0; i < interp.at_ecall.size(); ++i) {
    EXPECT_EQ(threaded.at_ecall[i].first, interp.at_ecall[i].first)
        << "ecall #" << i << " pc";
    EXPECT_EQ(threaded.at_ecall[i].second.first,
              interp.at_ecall[i].second.first)
        << "ecall #" << i << " instret";
    EXPECT_EQ(threaded.at_ecall[i].second.second,
              interp.at_ecall[i].second.second)
        << "ecall #" << i << " cycle";
  }
  EXPECT_EQ(threaded.exit_code, interp.exit_code);
  EXPECT_EQ(threaded.instret, interp.instret);
  EXPECT_EQ(threaded.cycles, interp.cycles);
  EXPECT_EQ(threaded.a0, interp.a0);
}

TEST(ThreadedTier, CrossIsaOpsFaultIdenticallyOnBothTiers) {
  // An op outside a core's ISA has no handler there: both tiers fault
  // through exec_slow() with the op's mnemonic and its exact pc, even
  // mid-block (such ops do not end a decoded block).
  const auto host_fault = [](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    soc.host().set_tier(tier);
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.addi(t0, zero, 5);
    a.rr(Op::kPMac, t1, t0, t0);  // Xpulp: PMCA-only
    a.addi(t1, t1, 1);
    a.li(a7, 93);
    a.ecall();
    soc.load_program(core::layout::kHostCodeBase, a.assemble());
    soc.host().set_pc(core::layout::kHostCodeBase);
    std::string what;
    try {
      soc.host().run();
    } catch (const SimError& e) {
      what = e.what();
    }
    return what;
  };
  // The pc prints in hex: kHostCodeBase + 4.
  static_assert(core::layout::kHostCodeBase + 4 == 0x80100004ull);
  const std::string host_expected =
      "CVA6 cannot execute '" + std::string(isa::mnemonic(Op::kPMac)) +
      "' at pc=0x80100004 (Xpulp extensions are PMCA-only)";
  EXPECT_EQ(host_fault(isa::ExecTier::kInterp), host_expected);
  EXPECT_EQ(host_fault(isa::ExecTier::kThreaded), host_expected);

  const auto pmca_fault = [](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
      soc.cluster().core(c).set_tier(tier);
    }
    Assembler a(0, /*rv64=*/false);
    a.addi(t0, zero, 1);
    a.addi(t1, zero, 2);
    a.ld(t2, 0, sp);  // RV64: host-only
    a.addi(t2, t2, 1);
    a.li(a7, cluster::envcall::kExit);
    a.ecall();
    soc.load_program(mem::map::kL2Base, a.assemble());
    std::string what;
    try {
      soc.cluster().run_kernel(0, mem::map::kL2Base, 0);
    } catch (const SimError& e) {
      what = e.what();
    }
    return what;
  };
  static_assert(mem::map::kL2Base + 8 == 0x1c000008ull);
  const std::string pmca_expected =
      "PMCA cannot execute '" + std::string(isa::mnemonic(Op::kLd)) +
      "' at pc=0x1c000008 (RV64/D instructions are host-only)";
  EXPECT_EQ(pmca_fault(isa::ExecTier::kInterp), pmca_expected);
  EXPECT_EQ(pmca_fault(isa::ExecTier::kThreaded), pmca_expected);
}

TEST(ThreadedTier, EbreakFaultNamesTheHexPc) {
  core::HulkVSoc soc(fast_config());
  Assembler h(core::layout::kHostCodeBase, /*rv64=*/true);
  h.addi(t0, zero, 1);
  h.emit({.op = Op::kEbreak});
  soc.load_program(core::layout::kHostCodeBase, h.assemble());
  soc.host().set_pc(core::layout::kHostCodeBase);
  try {
    soc.host().run();
    ADD_FAILURE() << "host ebreak did not fault";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()), "ebreak executed at pc=0x80100004");
  }

  Assembler p(0, /*rv64=*/false);
  p.addi(t0, zero, 1);
  p.addi(t1, zero, 2);
  p.emit({.op = Op::kEbreak});
  soc.load_program(mem::map::kL2Base, p.assemble());
  try {
    soc.cluster().run_kernel(0, mem::map::kL2Base, 0);
    ADD_FAILURE() << "PMCA ebreak did not fault";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()), "PMCA ebreak at pc=0x1c000008");
  }
}

TEST(ThreadedTier, BoundedRunsRetireTheExactBudget) {
  // run(max_instructions) must cut a block mid-way at the same point on
  // both tiers (the budget-cut path re-establishes pc_/next_pc_).
  auto run_chunked = [&](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    soc.host().set_tier(tier);
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(t0, 50);
    a.li(a0, 0);
    a.label("loop");
    a.addi(a0, a0, 2);
    a.addi(t0, t0, -1);
    a.bnez(t0, "loop");
    a.li(a7, 93);
    a.ecall();
    soc.load_program(core::layout::kHostCodeBase, a.assemble());
    soc.host().set_pc(core::layout::kHostCodeBase);
    std::vector<std::pair<Addr, Cycles>> checkpoints;
    for (;;) {
      const auto run = soc.host().run(/*max_instructions=*/7);
      checkpoints.push_back({soc.host().pc(), soc.host().now()});
      if (run.exited) break;
    }
    return checkpoints;
  };
  const auto interp = run_chunked(isa::ExecTier::kInterp);
  const auto threaded = run_chunked(isa::ExecTier::kThreaded);
  EXPECT_EQ(interp, threaded);
  EXPECT_GT(interp.size(), 10u);  // genuinely chunked, not one run
}

TEST(ThreadedTier, ClusterKernelMatchesInterpExactly) {
  // The cluster tier across hardware loops, MACs and an envcall exit:
  // per-core cycle/instret equality against the interpreter.
  auto run_tier = [&](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
      soc.cluster().core(c).set_tier(tier);
    }
    Assembler a(0, /*rv64=*/false);
    a.li(t0, 0);
    a.li(t1, 3);
    a.li(t4, 500);
    a.lp_count(0, t4);
    a.lp_starti(0, "body");
    a.lp_endi(0, "end");
    a.label("body");
    a.rr(Op::kPMac, t0, t1, t1);
    a.addi(t2, t2, 1);
    a.label("end");
    a.addi(t3, t3, 1);
    a.li(a7, cluster::envcall::kExit);
    a.ecall();
    soc.load_program(mem::map::kL2Base, a.assemble());
    const auto run = soc.cluster().run_kernel(0, mem::map::kL2Base, 0);
    std::vector<std::pair<Cycles, u64>> per_core;
    for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
      per_core.push_back({soc.cluster().core(c).now(),
                          soc.cluster().core(c).instret()});
    }
    return std::make_pair(run.finish, per_core);
  };
  const auto interp = run_tier(isa::ExecTier::kInterp);
  const auto threaded = run_tier(isa::ExecTier::kThreaded);
  EXPECT_EQ(interp.first, threaded.first);
  EXPECT_EQ(interp.second, threaded.second);
}

}  // namespace
}  // namespace hulkv
