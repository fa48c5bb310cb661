/**
 * @file
 * Execution handlers for GCN3: the ISA's only execution semantics.
 *
 * Gcn3Inst::predecode resolves each static instruction to one of the
 * flat handlers below: kHandlers holds one per opcode, picked by the
 * handler family in the opcode's descriptor row (gcn3/opcodes.hh).
 * The 32-bit VALU and VOPC ops get lane kernels,
 * one instantiation per opcode, fed by *resolved operand rows*: each
 * source is turned into a stride-1 pointer over 64 lanes up front (a
 * VGPR row directly; SGPRs and constants broadcast into a thread-local
 * scratch row; the VOP3 negate modifier folded in), so the inner loop
 * is a branchless elementwise map the compiler can vectorize. Active
 * lanes iterate ctz-style (the probes.hh idiom) with a plain 0..63
 * loop when the exec mask is full. FLAT/DS/SMEM build their MemAccess
 * in place inside wf.pendingAccess (no 600-byte copies); SALU, SOPP
 * and the F64 VALU/VOPC tail call the executors in src/gcn3/inst.cc.
 *
 * Lanes run in ascending order everywhere, so overlapping stores and
 * atomics land in a defined order; broadcasting an SGPR once per
 * instruction is exact because no VALU op writes scalar state
 * mid-loop. tests/golden/exec_vectors.txt pins every opcode's
 * post-state under every source kind (tests/test_exec_golden.cc).
 */

#include <bit>
#include <cmath>

#include "arch/exec_meta.hh"
#include "arch/fp_pin.hh"
#include "common/logging.hh"
#include "gcn3/inst.hh"

namespace last::gcn3
{

namespace
{

using arch::fp::inOrder;
using arch::fp::inOrder3;
using arch::fp::minMax;

float asF32(uint32_t b) { return std::bit_cast<float>(b); }
uint32_t fromF32(float f) { return std::bit_cast<uint32_t>(f); }

/** Scratch rows for broadcast/negated operands; thread-local because
 *  the parallel sweep driver executes wavefronts on many threads. */
thread_local arch::LaneVec t_row[3];

/**
 * One lane of a 32-bit VALU op: the executable specification, do not
 * "simplify" it. `d_old` is the pre-write destination value (V_MAC_F32
 * accumulates into it); `vcc_bit` is this lane's VCC bit
 * (V_CNDMASK_B32 selects on it).
 */
template <Gcn3Op OP>
inline uint32_t
laneV(uint32_t a, [[maybe_unused]] uint32_t b, [[maybe_unused]] uint32_t c,
      [[maybe_unused]] uint32_t d_old, [[maybe_unused]] bool vcc_bit)
{
    if constexpr (OP == Gcn3Op::V_MOV_B32) {
        return a;
    } else if constexpr (OP == Gcn3Op::V_NOT_B32) {
        return ~a;
    } else if constexpr (OP == Gcn3Op::V_RCP_F32) {
        return fromF32(1.0f / asF32(a));
    } else if constexpr (OP == Gcn3Op::V_SQRT_F32) {
        return fromF32(std::sqrt(asF32(a)));
    } else if constexpr (OP == Gcn3Op::V_CVT_F32_U32) {
        return fromF32(float(a));
    } else if constexpr (OP == Gcn3Op::V_CVT_F32_I32) {
        return fromF32(float(int32_t(a)));
    } else if constexpr (OP == Gcn3Op::V_CVT_U32_F32) {
        return arch::fp::toInt<uint32_t>(asF32(a));
    } else if constexpr (OP == Gcn3Op::V_CVT_I32_F32) {
        return uint32_t(arch::fp::toInt<int32_t>(asF32(a)));
    } else if constexpr (OP == Gcn3Op::V_MUL_LO_U32) {
        return a * b;
    } else if constexpr (OP == Gcn3Op::V_MUL_HI_U32) {
        return uint32_t((uint64_t(a) * b) >> 32);
    } else if constexpr (OP == Gcn3Op::V_ADD_F32) {
        return inOrder<float>(a, b, fromF32(asF32(a) + asF32(b)));
    } else if constexpr (OP == Gcn3Op::V_SUB_F32) {
        return fromF32(asF32(a) - asF32(b));
    } else if constexpr (OP == Gcn3Op::V_MUL_F32) {
        return inOrder<float>(a, b, fromF32(asF32(a) * asF32(b)));
    } else if constexpr (OP == Gcn3Op::V_MAC_F32) {
        return laneV<Gcn3Op::V_MAD_F32>(a, b, d_old, 0, false);
    } else if constexpr (OP == Gcn3Op::V_MIN_F32) {
        return minMax<float>(a, b, fromF32(std::fmin(asF32(a), asF32(b))));
    } else if constexpr (OP == Gcn3Op::V_MAX_F32) {
        return minMax<float>(a, b, fromF32(std::fmax(asF32(a), asF32(b))));
    } else if constexpr (OP == Gcn3Op::V_MIN_U32) {
        return std::min(a, b);
    } else if constexpr (OP == Gcn3Op::V_MAX_U32) {
        return std::max(a, b);
    } else if constexpr (OP == Gcn3Op::V_MIN_I32) {
        return uint32_t(std::min(int32_t(a), int32_t(b)));
    } else if constexpr (OP == Gcn3Op::V_MAX_I32) {
        return uint32_t(std::max(int32_t(a), int32_t(b)));
    } else if constexpr (OP == Gcn3Op::V_AND_B32) {
        return a & b;
    } else if constexpr (OP == Gcn3Op::V_OR_B32) {
        return a | b;
    } else if constexpr (OP == Gcn3Op::V_XOR_B32) {
        return a ^ b;
    } else if constexpr (OP == Gcn3Op::V_LSHLREV_B32) {
        return b << (a & 31);
    } else if constexpr (OP == Gcn3Op::V_LSHRREV_B32) {
        return b >> (a & 31);
    } else if constexpr (OP == Gcn3Op::V_ASHRREV_I32) {
        return uint32_t(int32_t(b) >> (a & 31));
    } else if constexpr (OP == Gcn3Op::V_CNDMASK_B32) {
        return vcc_bit ? b : a;
    } else if constexpr (OP == Gcn3Op::V_MAD_F32) {
        uint32_t p = laneV<Gcn3Op::V_MUL_F32>(a, b, 0, 0, false);
        return laneV<Gcn3Op::V_ADD_F32>(p, c, 0, 0, false);
    } else if constexpr (OP == Gcn3Op::V_FMA_F32 ||
                         OP == Gcn3Op::V_DIV_FMAS_F32) {
        return inOrder3<float>(
            a, b, c, fromF32(std::fma(asF32(a), asF32(b), asF32(c))));
    } else if constexpr (OP == Gcn3Op::V_MAD_U32_U24) {
        return (a & 0xffffff) * (b & 0xffffff) + c;
    } else if constexpr (OP == Gcn3Op::V_BFE_U32) {
        unsigned off = b & 31;
        unsigned width = c & 31;
        uint32_t mask = width == 0 ? 0xffffffffu : ((1u << width) - 1);
        return (a >> off) & mask;
    } else if constexpr (OP == Gcn3Op::V_DIV_FIXUP_F32) {
        return fromF32(asF32(c) / asF32(b));
    } else {
        static_assert(OP == Gcn3Op::V_MOV_B32, "no lane kernel for op");
        return 0;
    }
}

/** One lane of a 32-bit V_CMP. */
template <Gcn3Op OP>
inline bool
laneCmp(uint32_t a, uint32_t b)
{
    if constexpr (OP == Gcn3Op::V_CMP_EQ_U32) return a == b;
    else if constexpr (OP == Gcn3Op::V_CMP_NE_U32) return a != b;
    else if constexpr (OP == Gcn3Op::V_CMP_LT_U32) return a < b;
    else if constexpr (OP == Gcn3Op::V_CMP_LE_U32) return a <= b;
    else if constexpr (OP == Gcn3Op::V_CMP_GT_U32) return a > b;
    else if constexpr (OP == Gcn3Op::V_CMP_GE_U32) return a >= b;
    else if constexpr (OP == Gcn3Op::V_CMP_EQ_I32)
        return int32_t(a) == int32_t(b);
    else if constexpr (OP == Gcn3Op::V_CMP_NE_I32)
        return int32_t(a) != int32_t(b);
    else if constexpr (OP == Gcn3Op::V_CMP_LT_I32)
        return int32_t(a) < int32_t(b);
    else if constexpr (OP == Gcn3Op::V_CMP_LE_I32)
        return int32_t(a) <= int32_t(b);
    else if constexpr (OP == Gcn3Op::V_CMP_GT_I32)
        return int32_t(a) > int32_t(b);
    else if constexpr (OP == Gcn3Op::V_CMP_GE_I32)
        return int32_t(a) >= int32_t(b);
    else if constexpr (OP == Gcn3Op::V_CMP_EQ_F32)
        return asF32(a) == asF32(b);
    else if constexpr (OP == Gcn3Op::V_CMP_NE_F32)
        return asF32(a) != asF32(b);
    else if constexpr (OP == Gcn3Op::V_CMP_LT_F32)
        return asF32(a) < asF32(b);
    else if constexpr (OP == Gcn3Op::V_CMP_LE_F32)
        return asF32(a) <= asF32(b);
    else if constexpr (OP == Gcn3Op::V_CMP_GT_F32)
        return asF32(a) > asF32(b);
    else if constexpr (OP == Gcn3Op::V_CMP_GE_F32)
        return asF32(a) >= asF32(b);
    else {
        static_assert(OP == Gcn3Op::V_CMP_EQ_U32, "no cmp kernel for op");
        return false;
    }
}

} // namespace

struct Gcn3Exec
{
    using Meta = arch::ExecMeta;
    using Wf = arch::WfState;

    static const Gcn3Inst &
    inst(const Meta &m)
    {
        return static_cast<const Gcn3Inst &>(*m.inst);
    }

    /**
     * Resolve source operand `i` to a stride-1 row of 64 lane values,
     * the value readSrc32(wf, i, lane) gives for every lane. VGPRs
     * without a negate modifier return the register row itself; every
     * other case broadcasts or copies into `scratch`. Hoisting the
     * SGPR read out of the lane loop is exact: no templated VALU/VOPC
     * op writes SGPRs, VCC, or EXEC mid-loop.
     */
    static const uint32_t *
    row32(const Gcn3Inst &I, const Wf &wf, unsigned i,
          arch::LaneVec &scratch)
    {
        const Src &s = I.srcs[i];
        const uint32_t neg =
            (I.negMask & (1u << i)) ? 0x80000000u : 0;
        switch (s.kind) {
          case Src::Kind::Vgpr: {
            const uint32_t *p = wf.vregs[s.reg].data();
            if (!neg)
                return p;
            for (unsigned l = 0; l < WavefrontSize; ++l)
                scratch[l] = p[l] ^ neg;
            return scratch.data();
          }
          case Src::Kind::Sgpr:
            scratch.fill(wf.readSgpr(s.reg) ^ neg);
            return scratch.data();
          case Src::Kind::InlineConst:
          case Src::Kind::Literal:
            scratch.fill(s.value ^ neg);
            return scratch.data();
          case Src::Kind::InlineConstF64: // low dword is zero
          case Src::Kind::None:
            scratch.fill(neg);
            return scratch.data();
        }
        scratch.fill(0);
        return scratch.data();
    }

    /** @{ Cold op classes: the executors in inst.cc. */
    static void
    saluH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + m.size;
        inst(m).executeSalu(wf);
    }

    static void
    soppH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + m.size;
        inst(m).executeSopp(wf);
    }

    static void
    valuGenericH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + m.size;
        inst(m).executeValu(wf);
    }

    static void
    vcmpGenericH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + m.size;
        inst(m).executeVcmp(wf);
    }
    /** @} */

    /** s_load: sbase pair + offset into consecutive SGPRs. */
    static void
    smemH(const Meta &m, Wf &wf)
    {
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;
        Addr addr = wf.readSgpr64(I.srcs[0].reg) + I.simm;
        unsigned dwords = desc(I.opc).dstWidth;
        for (unsigned d = 0; d < dwords; ++d) {
            uint32_t v = wf.memory->read<uint32_t>(addr + 4 * d);
            wf.writeSgpr(I.dst.reg + d, v);
        }
        arch::MemAccess &acc = wf.pendingAccess.emplace();
        acc.kind = arch::MemAccess::Kind::ScalarLoad;
        acc.scalarAddr = addr;
        acc.scalarBytes = 4 * dwords;
    }

    /** flat_*: per-lane 64-bit addresses; an atomic returns the old
     *  value, and lanes hitting one address apply in lane order. */
    static void
    flatH(const Meta &m, Wf &wf)
    {
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;
        arch::MemAccess &acc = wf.pendingAccess.emplace();
        const bool is_store = m.is(arch::IsStore) && !m.is(arch::IsAtomic);
        const unsigned dwords = is_store ? desc(I.opc).srcWidth(1)
                                         : desc(I.opc).dstWidth;
        acc.kind = is_store ? arch::MemAccess::Kind::VectorStore
                            : arch::MemAccess::Kind::VectorLoad;
        acc.bytesPerLane = 4 * dwords;
        acc.mask = wf.exec;

        for (uint64_t rest = wf.exec; rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            Addr addr = wf.readVreg64(I.srcs[0].reg, lane);
            acc.laneAddrs[lane] = addr;
            if (m.is(arch::IsAtomic)) {
                uint32_t old = wf.memory->read<uint32_t>(addr);
                uint32_t add = wf.readVreg(I.srcs[1].reg, lane);
                wf.memory->write<uint32_t>(addr, old + add);
                if (I.dst.valid())
                    wf.writeVreg(I.dst.reg, lane, old);
            } else if (is_store) {
                for (unsigned d = 0; d < dwords; ++d)
                    wf.memory->write<uint32_t>(
                        addr + 4 * d,
                        wf.readVreg(I.srcs[1].reg + d, lane));
            } else {
                for (unsigned d = 0; d < dwords; ++d)
                    wf.writeVreg(I.dst.reg + d, lane,
                                 wf.memory->read<uint32_t>(addr + 4 * d));
            }
        }
    }

    /** ds_*: per-lane offsets (plus the instruction offset) into the
     *  workgroup's LDS block. */
    static void
    dsH(const Meta &m, Wf &wf)
    {
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;
        arch::MemAccess &acc = wf.pendingAccess.emplace();
        const bool is_store = m.is(arch::IsStore);
        const unsigned dwords = is_store ? desc(I.opc).srcWidth(1)
                                         : desc(I.opc).dstWidth;
        acc.kind = is_store ? arch::MemAccess::Kind::LdsStore
                            : arch::MemAccess::Kind::LdsLoad;
        acc.bytesPerLane = 4 * dwords;
        acc.mask = wf.exec;

        for (uint64_t rest = wf.exec; rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            Addr off = Addr(wf.readVreg(I.srcs[0].reg, lane)) + I.simm;
            acc.laneAddrs[lane] = off;
            if (is_store) {
                for (unsigned d = 0; d < dwords; ++d)
                    wf.lds->write32(off + 4 * d,
                                    wf.readVreg(I.srcs[1].reg + d, lane));
            } else {
                for (unsigned d = 0; d < dwords; ++d)
                    wf.writeVreg(I.dst.reg + d, lane,
                                 wf.lds->read32(off + 4 * d));
            }
        }
    }

    /** 32-bit VALU op over resolved rows, one instantiation per op. */
    template <Gcn3Op OP>
    static void
    valuH(const Meta &m, Wf &wf)
    {
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;
        const uint64_t exec = wf.exec;
        const uint64_t vcc = wf.vcc;

        constexpr unsigned N = desc(OP).arity;
        uint32_t *d = wf.vregs[I.dst.reg].data();
        const uint32_t *a = row32(I, wf, 0, t_row[0]);
        const uint32_t *b = a;
        const uint32_t *c = a;
        if constexpr (N >= 2)
            b = row32(I, wf, 1, t_row[1]);
        if constexpr (N >= 3)
            c = row32(I, wf, 2, t_row[2]);

        if (exec == ~0ull) {
            for (unsigned l = 0; l < WavefrontSize; ++l)
                d[l] = laneV<OP>(a[l], b[l], c[l], d[l],
                                 (vcc >> l) & 1);
        } else {
            for (uint64_t rest = exec; rest; rest &= rest - 1) {
                unsigned l = unsigned(std::countr_zero(rest));
                d[l] = laneV<OP>(a[l], b[l], c[l], d[l],
                                 (vcc >> l) & 1);
            }
        }
    }

    /** Carry/borrow ALU family: writes the VGPR dst per lane and the
     *  per-lane carry-out bit into VCC (active lanes overwrite their
     *  bit, inactive lanes keep theirs; ADDC/SUBB read their carry-in
     *  from the pre-instruction VCC). */
    template <Gcn3Op OP>
    static void
    carryH(const Meta &m, Wf &wf)
    {
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;
        const uint64_t exec = wf.exec;
        const uint64_t vcc = wf.vcc;

        uint32_t *d = wf.vregs[I.dst.reg].data();
        const uint32_t *a = row32(I, wf, 0, t_row[0]);
        const uint32_t *b = row32(I, wf, 1, t_row[1]);

        uint64_t new_vcc = vcc;
        for (uint64_t rest = exec; rest; rest &= rest - 1) {
            unsigned l = unsigned(std::countr_zero(rest));
            uint64_t bit = 1ull << l;
            uint32_t r;
            bool cout;
            if constexpr (OP == Gcn3Op::V_ADD_U32) {
                uint64_t s = uint64_t(a[l]) + b[l];
                r = uint32_t(s);
                cout = (s >> 32) != 0;
            } else if constexpr (OP == Gcn3Op::V_ADDC_U32) {
                uint64_t s =
                    uint64_t(a[l]) + b[l] + ((vcc & bit) ? 1 : 0);
                r = uint32_t(s);
                cout = (s >> 32) != 0;
            } else if constexpr (OP == Gcn3Op::V_SUB_U32) {
                cout = b[l] > a[l];
                r = a[l] - b[l];
            } else {
                static_assert(OP == Gcn3Op::V_SUBB_U32, "not a carry op");
                uint32_t borrow_in = (vcc & bit) ? 1 : 0;
                uint64_t rhs = uint64_t(b[l]) + borrow_in;
                cout = rhs > a[l];
                r = uint32_t(a[l] - rhs);
            }
            d[l] = r;
            new_vcc = cout ? (new_vcc | bit) : (new_vcc & ~bit);
        }
        wf.vcc = new_vcc;
    }

    /** 32-bit V_CMP over resolved rows; wf.vcc gets the result mask
     *  (inactive lanes zero). */
    template <Gcn3Op OP>
    static void
    vcmpH(const Meta &m, Wf &wf)
    {
        const Gcn3Inst &I = inst(m);
        wf.nextPc = wf.pc + m.size;
        const uint64_t exec = wf.exec;
        const uint32_t *a = row32(I, wf, 0, t_row[0]);
        const uint32_t *b = row32(I, wf, 1, t_row[1]);

        uint64_t result = 0;
        if (exec == ~0ull) {
            for (unsigned l = 0; l < WavefrontSize; ++l)
                result |= uint64_t(laneCmp<OP>(a[l], b[l])) << l;
        } else {
            for (uint64_t rest = exec; rest; rest &= rest - 1) {
                unsigned l = unsigned(std::countr_zero(rest));
                result |= uint64_t(laneCmp<OP>(a[l], b[l])) << l;
            }
        }
        wf.vcc = result;
    }
};

namespace
{

/** The handler of an opcode's family, instantiated for the opcode where
 *  the family has one kernel per opcode. */
template <Gcn3Op OP>
constexpr arch::ExecHandler
handlerOf()
{
    using E = Gcn3Exec;
    constexpr Family f = desc(OP).family;
    if constexpr (f == Family::Salu) return &E::saluH;
    else if constexpr (f == Family::Sopp) return &E::soppH;
    else if constexpr (f == Family::Smem) return &E::smemH;
    else if constexpr (f == Family::ValuLane) return &E::valuH<OP>;
    else if constexpr (f == Family::Carry) return &E::carryH<OP>;
    else if constexpr (f == Family::VcmpLane) return &E::vcmpH<OP>;
    else if constexpr (f == Family::ValuCold) return &E::valuGenericH;
    else if constexpr (f == Family::VcmpCold) return &E::vcmpGenericH;
    else if constexpr (f == Family::Flat) return &E::flatH;
    else {
        static_assert(f == Family::Ds);
        return &E::dsH;
    }
}

/** One handler per opcode, in descriptor-table order. */
constexpr arch::ExecHandler kHandlers[] = {
#define LAST_X(name, ...) handlerOf<Gcn3Op::name>(),
    LAST_GCN3_OPCODES(LAST_X)
#undef LAST_X
};

} // namespace

void
Gcn3Inst::predecode(arch::ExecMeta &m) const
{
    m.handler = kHandlers[size_t(opc)];
    // Predigest what the CU's issue logic would otherwise downcast
    // for: waitcnt thresholds and the SOPP immediate (s_nop).
    if (opc == Gcn3Op::S_WAITCNT) {
        m.c0 = vmThreshold();
        m.c1 = lgkmThreshold();
    }
    m.imm = simm;
}

} // namespace last::gcn3
