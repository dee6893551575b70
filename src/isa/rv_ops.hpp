// The RV32 base semantics both ISSs share (DESIGN.md §15.6).
//
// CVA6 (RV64GC) and the PMCA cores (RV32IMFC + XpulpV2) implement the
// same RV32I ALU, M and F-single register ops; only the register width
// differs. `Base<Core, P>` writes each of those handlers once, as a
// template over the core, and every width follows from the core's
// public register accessors:
//   * XLEN is the width of `reg()` (u64 on the host, u32 on the PMCA):
//     shift amounts mask to XLEN-1, 32-bit results sign-extend to XLEN,
//     mulh* uses the double-width product (`__int128` or i64);
//   * NaN-boxing is the width of `freg()`: a u64 f-register boxes a
//     single in all-ones upper bits, a u32 one holds it raw.
// There is no runtime branch on which core a handler serves.
//
// Control transfer and memory access reach core state the templates
// cannot see (the clock, the LSU, which pc register takes a target), so
// the branch/jump/load/store handlers go through a small per-core policy
// `P` — the core's own handler struct — that provides:
//   static void branch(Core&, const ThreadedInstr&, bool taken);
//   static void jump(Core&, Addr target);
//   static X load(Core&, Addr, u32 bytes, bool sign);
//   static void store(Core&, Addr, X value, u32 bytes);
//
// What stays per core: CSRs, fmadd/fmsub (the PMCA counts MACs), the
// fdiv/fsqrt and fmin/fmax latencies (resolved per core to these
// handlers), the RV64 W-ops and D on the host, Xpulp on the PMCA, and
// each core's exec_slow() and dispatch loop.
#pragma once

#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "isa/threaded.hpp"

namespace hulkv::isa::rv {

using threaded::HandlerInfo;
using threaded::ThreadedInstr;

template <class Core>
using Handler = void (*)(Core&, const ThreadedInstr&);

/// A handler whose whole cost is the 1-cycle issue.
template <class Core>
HandlerInfo plain(Handler<Core> fn) {
  return HandlerInfo{reinterpret_cast<threaded::AnyFn>(fn), 1};
}

/// A handler with a fixed functional-unit latency folded into its static
/// cycles (DESIGN.md §15.1).
template <class Core>
HandlerInfo lat(Handler<Core> fn, Cycles latency) {
  return HandlerInfo{reinterpret_cast<threaded::AnyFn>(fn),
                     static_cast<u32>(1 + latency)};
}

template <class Core, class P>
struct Base {
  using TI = ThreadedInstr;
  using X = decltype(std::declval<const Core&>().reg(0));
  using SX = std::make_signed_t<X>;
  using F = decltype(std::declval<const Core&>().freg(0));
  static constexpr unsigned kXlen = 8 * sizeof(X);
  static constexpr X kShamtMask = kXlen - 1;
  /// mulh*'s double-width product types.
  using SW = std::conditional_t<kXlen == 64, __int128, i64>;
  using UW = std::conditional_t<kXlen == 64, unsigned __int128, u64>;
  /// F-register bits above a single: all ones when boxed, none when raw.
  static constexpr F kBox = static_cast<F>(~F{0} ^ F{0xFFFFFFFFu});

  static X imm(const TI& t) { return static_cast<X>(t.imm); }
  static X rs1(const Core& c, const TI& t) { return c.reg(t.rs1); }
  static X rs2(const Core& c, const TI& t) { return c.reg(t.rs2); }
  static SX srs1(const Core& c, const TI& t) {
    return static_cast<SX>(c.reg(t.rs1));
  }
  static SX srs2(const Core& c, const TI& t) {
    return static_cast<SX>(c.reg(t.rs2));
  }
  /// A 32-bit result sign-extended to XLEN.
  static X sext32(i32 v) { return static_cast<X>(static_cast<SX>(v)); }
  static float fs(const Core& c, u8 r) {
    return std::bit_cast<float>(static_cast<u32>(c.freg(r)));
  }
  static void set_fs_bits(Core& c, u8 rd, u32 bits) {
    c.set_freg(rd, kBox | static_cast<F>(bits));
  }
  static void set_fs(Core& c, u8 rd, float v) {
    set_fs_bits(c, rd, std::bit_cast<u32>(v));
  }
  static Addr ea(const Core& c, const TI& t) {
    return static_cast<X>(rs1(c, t) + imm(t));
  }

  // ---- RV32I ----
  static void lui(Core& c, const TI& t) { c.set_reg(t.rd, imm(t)); }
  static void auipc(Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<X>(t.pc) + imm(t));
  }
  static void jal(Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<X>(t.pc + 4));
    P::jump(c, t.pc + t.imm);
  }
  static void jalr(Core& c, const TI& t) {
    const X target = (rs1(c, t) + imm(t)) & ~X{1};
    c.set_reg(t.rd, static_cast<X>(t.pc + 4));
    P::jump(c, target);
  }
  static void beq(Core& c, const TI& t) {
    P::branch(c, t, rs1(c, t) == rs2(c, t));
  }
  static void bne(Core& c, const TI& t) {
    P::branch(c, t, rs1(c, t) != rs2(c, t));
  }
  static void blt(Core& c, const TI& t) {
    P::branch(c, t, srs1(c, t) < srs2(c, t));
  }
  static void bge(Core& c, const TI& t) {
    P::branch(c, t, srs1(c, t) >= srs2(c, t));
  }
  static void bltu(Core& c, const TI& t) {
    P::branch(c, t, rs1(c, t) < rs2(c, t));
  }
  static void bgeu(Core& c, const TI& t) {
    P::branch(c, t, rs1(c, t) >= rs2(c, t));
  }
  static void lb(Core& c, const TI& t) {
    c.set_reg(t.rd, P::load(c, ea(c, t), 1, true));
  }
  static void lh(Core& c, const TI& t) {
    c.set_reg(t.rd, P::load(c, ea(c, t), 2, true));
  }
  /// A word sign-extends to XLEN; at XLEN 32 there is nothing to extend.
  static void lw(Core& c, const TI& t) {
    c.set_reg(t.rd, P::load(c, ea(c, t), 4, kXlen > 32));
  }
  static void lbu(Core& c, const TI& t) {
    c.set_reg(t.rd, P::load(c, ea(c, t), 1, false));
  }
  static void lhu(Core& c, const TI& t) {
    c.set_reg(t.rd, P::load(c, ea(c, t), 2, false));
  }
  static void sb(Core& c, const TI& t) { P::store(c, ea(c, t), rs2(c, t), 1); }
  static void sh(Core& c, const TI& t) { P::store(c, ea(c, t), rs2(c, t), 2); }
  static void sw(Core& c, const TI& t) { P::store(c, ea(c, t), rs2(c, t), 4); }

  static void addi(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) + imm(t));
  }
  static void slti(Core& c, const TI& t) {
    c.set_reg(t.rd, srs1(c, t) < t.imm ? 1 : 0);
  }
  static void sltiu(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) < imm(t) ? 1 : 0);
  }
  static void xori(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) ^ imm(t));
  }
  static void ori(Core& c, const TI& t) { c.set_reg(t.rd, rs1(c, t) | imm(t)); }
  static void andi(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) & imm(t));
  }
  static void slli(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) << (imm(t) & kShamtMask));
  }
  static void srli(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) >> (imm(t) & kShamtMask));
  }
  static void srai(Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<X>(srs1(c, t) >> (imm(t) & kShamtMask)));
  }
  static void add(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) + rs2(c, t));
  }
  static void sub(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) - rs2(c, t));
  }
  static void sll(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) << (rs2(c, t) & kShamtMask));
  }
  static void slt(Core& c, const TI& t) {
    c.set_reg(t.rd, srs1(c, t) < srs2(c, t) ? 1 : 0);
  }
  static void sltu(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) < rs2(c, t) ? 1 : 0);
  }
  static void xor_(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) ^ rs2(c, t));
  }
  static void srl(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) >> (rs2(c, t) & kShamtMask));
  }
  static void sra(Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<X>(srs1(c, t) >> (rs2(c, t) & kShamtMask)));
  }
  static void or_(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) | rs2(c, t));
  }
  static void and_(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) & rs2(c, t));
  }
  static void fence(Core&, const TI&) {}

  // ---- M ----
  static void mul(Core& c, const TI& t) {
    c.set_reg(t.rd, rs1(c, t) * rs2(c, t));
  }
  static void mulh(Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<X>((static_cast<SW>(srs1(c, t)) *
                                    static_cast<SW>(srs2(c, t))) >>
                                   kXlen));
  }
  static void mulhsu(Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<X>((static_cast<SW>(srs1(c, t)) *
                                    static_cast<SW>(rs2(c, t))) >>
                                   kXlen));
  }
  static void mulhu(Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<X>((static_cast<UW>(rs1(c, t)) *
                                    static_cast<UW>(rs2(c, t))) >>
                                   kXlen));
  }
  static void div(Core& c, const TI& t) {
    const SX a = srs1(c, t), b = srs2(c, t);
    if (b == 0) {
      c.set_reg(t.rd, ~X{0});
    } else if (a == std::numeric_limits<SX>::min() && b == -1) {
      c.set_reg(t.rd, static_cast<X>(a));
    } else {
      c.set_reg(t.rd, static_cast<X>(a / b));
    }
  }
  static void divu(Core& c, const TI& t) {
    const X b = rs2(c, t);
    c.set_reg(t.rd, b == 0 ? ~X{0} : rs1(c, t) / b);
  }
  static void rem(Core& c, const TI& t) {
    const SX a = srs1(c, t), b = srs2(c, t);
    if (b == 0) {
      c.set_reg(t.rd, static_cast<X>(a));
    } else if (a == std::numeric_limits<SX>::min() && b == -1) {
      c.set_reg(t.rd, 0);
    } else {
      c.set_reg(t.rd, static_cast<X>(a % b));
    }
  }
  static void remu(Core& c, const TI& t) {
    const X b = rs2(c, t);
    c.set_reg(t.rd, b == 0 ? rs1(c, t) : rs1(c, t) % b);
  }

  // ---- F (single) ----
  static void flw(Core& c, const TI& t) {
    set_fs_bits(c, t.rd, static_cast<u32>(P::load(c, ea(c, t), 4, false)));
  }
  static void fsw(Core& c, const TI& t) {
    P::store(c, ea(c, t), static_cast<u32>(c.freg(t.rs2)), 4);
  }
  static void fadd_s(Core& c, const TI& t) {
    set_fs(c, t.rd, fs(c, t.rs1) + fs(c, t.rs2));
  }
  static void fsub_s(Core& c, const TI& t) {
    set_fs(c, t.rd, fs(c, t.rs1) - fs(c, t.rs2));
  }
  static void fmul_s(Core& c, const TI& t) {
    set_fs(c, t.rd, fs(c, t.rs1) * fs(c, t.rs2));
  }
  static void fdiv_s(Core& c, const TI& t) {
    set_fs(c, t.rd, fs(c, t.rs1) / fs(c, t.rs2));
  }
  static void fsqrt_s(Core& c, const TI& t) {
    set_fs(c, t.rd, std::sqrt(fs(c, t.rs1)));
  }
  static void fsgnj_s(Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.freg(t.rs1));
    const u32 b = static_cast<u32>(c.freg(t.rs2));
    set_fs_bits(c, t.rd, (a & 0x7FFFFFFFu) | (b & 0x80000000u));
  }
  static void fsgnjn_s(Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.freg(t.rs1));
    const u32 b = static_cast<u32>(c.freg(t.rs2));
    set_fs_bits(c, t.rd, (a & 0x7FFFFFFFu) | (~b & 0x80000000u));
  }
  static void fsgnjx_s(Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.freg(t.rs1));
    const u32 b = static_cast<u32>(c.freg(t.rs2));
    set_fs_bits(c, t.rd, a ^ (b & 0x80000000u));
  }
  static void fmin_s(Core& c, const TI& t) {
    set_fs(c, t.rd, std::fmin(fs(c, t.rs1), fs(c, t.rs2)));
  }
  static void fmax_s(Core& c, const TI& t) {
    set_fs(c, t.rd, std::fmax(fs(c, t.rs1), fs(c, t.rs2)));
  }
  static void feq_s(Core& c, const TI& t) {
    c.set_reg(t.rd, fs(c, t.rs1) == fs(c, t.rs2) ? 1 : 0);
  }
  static void flt_s(Core& c, const TI& t) {
    c.set_reg(t.rd, fs(c, t.rs1) < fs(c, t.rs2) ? 1 : 0);
  }
  static void fle_s(Core& c, const TI& t) {
    c.set_reg(t.rd, fs(c, t.rs1) <= fs(c, t.rs2) ? 1 : 0);
  }
  /// Round to nearest even; NaN and values >= 2^31 saturate to INT32_MAX,
  /// values <= -2^31 to INT32_MIN. No float lies in [2^31 - 1, 2^31), so
  /// the bound needs no wider type.
  static void fcvt_w_s(Core& c, const TI& t) {
    const float v = fs(c, t.rs1);
    i32 r;
    if (std::isnan(v) || v >= 0x1p31f) {
      r = std::numeric_limits<i32>::max();
    } else if (v <= -0x1p31f) {
      r = std::numeric_limits<i32>::min();
    } else {
      r = static_cast<i32>(std::nearbyintf(v));
    }
    c.set_reg(t.rd, sext32(r));
  }
  static void fcvt_s_w(Core& c, const TI& t) {
    set_fs(c, t.rd, static_cast<float>(static_cast<i32>(rs1(c, t))));
  }
  static void fmv_x_w(Core& c, const TI& t) {
    c.set_reg(t.rd, sext32(static_cast<i32>(static_cast<u32>(c.freg(t.rs1)))));
  }
  static void fmv_w_x(Core& c, const TI& t) {
    set_fs_bits(c, t.rd, static_cast<u32>(rs1(c, t)));
  }
};

/// The shared part of both cores' resolvers: every op `Base` implements
/// whose latency both cores configure the same way (issue, jump_penalty,
/// mul/div/fpu_latency). fdiv.s/fsqrt.s/fmin.s/fmax.s are timed per core
/// and resolved there; everything else returns a null handler for the
/// core's own table.
template <class Core, class P, class Config>
HandlerInfo resolve_base(Op op, const Config& cfg) {
  using B = Base<Core, P>;
  switch (op) {
    case Op::kLui: return plain<Core>(&B::lui);
    case Op::kAuipc: return plain<Core>(&B::auipc);
    case Op::kJal: return lat<Core>(&B::jal, cfg.jump_penalty);
    case Op::kJalr: return lat<Core>(&B::jalr, cfg.jump_penalty);
    case Op::kBeq: return plain<Core>(&B::beq);
    case Op::kBne: return plain<Core>(&B::bne);
    case Op::kBlt: return plain<Core>(&B::blt);
    case Op::kBge: return plain<Core>(&B::bge);
    case Op::kBltu: return plain<Core>(&B::bltu);
    case Op::kBgeu: return plain<Core>(&B::bgeu);
    case Op::kLb: return plain<Core>(&B::lb);
    case Op::kLh: return plain<Core>(&B::lh);
    case Op::kLw: return plain<Core>(&B::lw);
    case Op::kLbu: return plain<Core>(&B::lbu);
    case Op::kLhu: return plain<Core>(&B::lhu);
    case Op::kSb: return plain<Core>(&B::sb);
    case Op::kSh: return plain<Core>(&B::sh);
    case Op::kSw: return plain<Core>(&B::sw);
    case Op::kAddi: return plain<Core>(&B::addi);
    case Op::kSlti: return plain<Core>(&B::slti);
    case Op::kSltiu: return plain<Core>(&B::sltiu);
    case Op::kXori: return plain<Core>(&B::xori);
    case Op::kOri: return plain<Core>(&B::ori);
    case Op::kAndi: return plain<Core>(&B::andi);
    case Op::kSlli: return plain<Core>(&B::slli);
    case Op::kSrli: return plain<Core>(&B::srli);
    case Op::kSrai: return plain<Core>(&B::srai);
    case Op::kAdd: return plain<Core>(&B::add);
    case Op::kSub: return plain<Core>(&B::sub);
    case Op::kSll: return plain<Core>(&B::sll);
    case Op::kSlt: return plain<Core>(&B::slt);
    case Op::kSltu: return plain<Core>(&B::sltu);
    case Op::kXor: return plain<Core>(&B::xor_);
    case Op::kSrl: return plain<Core>(&B::srl);
    case Op::kSra: return plain<Core>(&B::sra);
    case Op::kOr: return plain<Core>(&B::or_);
    case Op::kAnd: return plain<Core>(&B::and_);
    case Op::kFence: return plain<Core>(&B::fence);
    case Op::kMul: return lat<Core>(&B::mul, cfg.mul_latency);
    case Op::kMulh: return lat<Core>(&B::mulh, cfg.mul_latency);
    case Op::kMulhsu: return lat<Core>(&B::mulhsu, cfg.mul_latency);
    case Op::kMulhu: return lat<Core>(&B::mulhu, cfg.mul_latency);
    case Op::kDiv: return lat<Core>(&B::div, cfg.div_latency);
    case Op::kDivu: return lat<Core>(&B::divu, cfg.div_latency);
    case Op::kRem: return lat<Core>(&B::rem, cfg.div_latency);
    case Op::kRemu: return lat<Core>(&B::remu, cfg.div_latency);
    case Op::kFlw: return plain<Core>(&B::flw);
    case Op::kFsw: return plain<Core>(&B::fsw);
    case Op::kFaddS: return lat<Core>(&B::fadd_s, cfg.fpu_latency);
    case Op::kFsubS: return lat<Core>(&B::fsub_s, cfg.fpu_latency);
    case Op::kFmulS: return lat<Core>(&B::fmul_s, cfg.fpu_latency);
    case Op::kFsgnjS: return plain<Core>(&B::fsgnj_s);
    case Op::kFsgnjnS: return plain<Core>(&B::fsgnjn_s);
    case Op::kFsgnjxS: return plain<Core>(&B::fsgnjx_s);
    case Op::kFeqS: return plain<Core>(&B::feq_s);
    case Op::kFltS: return plain<Core>(&B::flt_s);
    case Op::kFleS: return plain<Core>(&B::fle_s);
    case Op::kFcvtWS: return lat<Core>(&B::fcvt_w_s, cfg.fpu_latency);
    case Op::kFcvtSW: return lat<Core>(&B::fcvt_s_w, cfg.fpu_latency);
    case Op::kFmvXW: return plain<Core>(&B::fmv_x_w);
    case Op::kFmvWX: return plain<Core>(&B::fmv_w_x);
    default: return HandlerInfo{nullptr, 1};
  }
}

}  // namespace hulkv::isa::rv
