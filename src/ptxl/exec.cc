/**
 * @file
 * Execution handlers for PTXL: the ISA's only execution semantics.
 *
 * PtxlInst::predecode resolves each static instruction to one of the
 * flat handlers below, following the src/hsail/exec.cc idiom: 32-bit
 * ALU ops get kernels instantiated per (semantic, type) from the
 * shared IL lane semantics (hsail/lane_ops.hh), so PTXL computes
 * exactly what HSAIL does; everything else calls the executors in
 * src/ptxl/inst.cc. tests/golden/exec_vectors.txt pins every opcode's
 * post-state (tests/test_exec_golden.cc).
 */

#include <bit>

#include "arch/exec_meta.hh"
#include "common/logging.hh"
#include "hsail/lane_ops.hh"
#include "ptxl/inst.hh"

namespace last::ptxl
{

using hsail::Opcode;

struct PtxlExec
{
    using Meta = arch::ExecMeta;
    using Wf = arch::WfState;

    static const PtxlInst &
    inst(const Meta &m)
    {
        return static_cast<const PtxlInst &>(*m.inst);
    }

    /** @{ Control handlers. */
    static void
    nopH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
    }

    static void
    exitH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        wf.done = true;
    }

    static void
    barH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        wf.atBarrier = true;
    }

    static void
    bssyH(const Meta &m, Wf &wf)
    {
        const PtxlInst &I = inst(m);
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        wf.cbarExpected[I.bar] = wf.exec;
        wf.cbarArrived[I.bar] = 0;
    }

    static void
    bsyncH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        inst(m).executeBsync(wf);
    }

    static void
    braH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        inst(m).executeBranch(wf);
    }
    /** @} */

    /** @{ Cold op classes: the executors in inst.cc. */
    static void
    isetpH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        inst(m).executeIsetp(wf);
    }

    static void
    memH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        inst(m).executeMem(wf);
    }

    static void
    aluGenericH(const Meta &m, Wf &wf)
    {
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        inst(m).executeAlu(wf);
    }
    /** @} */

    /** S2R: broadcast a special register into the active lanes. */
    static void
    s2rH(const Meta &m, Wf &wf)
    {
        const PtxlInst &I = inst(m);
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        uint64_t mask = wf.exec;
        uint32_t *d = wf.vregs[I.dstReg.idx].data();
        for (uint64_t rest = mask; rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            d[lane] = uint32_t(hsail::laneAlu(I.sem, I.dtype, I.srcDtype,
                                              I.cmpop, I.srcRegs, I.imm,
                                              wf, lane));
        }
    }

    /** MOV32I: broadcast the immediate into the active lanes. */
    static void
    movImmH(const Meta &m, Wf &wf)
    {
        const PtxlInst &I = inst(m);
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        uint64_t mask = wf.exec;
        uint32_t *d = wf.vregs[I.dstReg.idx].data();
        const uint32_t v = uint32_t(I.imm);
        if (mask == ~0ull) {
            for (unsigned l = 0; l < WavefrontSize; ++l)
                d[l] = v;
        } else {
            for (uint64_t rest = mask; rest; rest &= rest - 1)
                d[unsigned(std::countr_zero(rest))] = v;
        }
    }

    /** 32-bit ALU op, one instantiation per (semantic, type). */
    template <Opcode OP, DataType DT>
    static void
    aluH(const Meta &m, Wf &wf)
    {
        const PtxlInst &I = inst(m);
        wf.nextPc = wf.pc + PtxlInst::EncodedBytes;
        hsail::aluRows<OP, DT>(wf.exec, wf, I.dstReg, I.srcRegs);
    }

    /** aluH<OP, DT>, for lane32Table. */
    template <DataType DT>
    struct AluKernel
    {
        template <Opcode OP>
        static constexpr arch::ExecHandler of() { return &aluH<OP, DT>; }
    };

    /** nullptr for Cvt/MovImm/specials: generic. */
    template <DataType DT>
    static arch::ExecHandler
    pickAluDt(Opcode op)
    {
        static constexpr auto kAluH = hsail::lane32Table<AluKernel<DT>>();
        return kAluH[size_t(op)];
    }

    static arch::ExecHandler
    pick(const PtxlInst &I)
    {
        auto srcs_valid = [&](unsigned n) {
            for (unsigned s = 0; s < n; ++s)
                if (!I.srcRegs[s].valid())
                    return false;
            return true;
        };

        switch (I.opc) {
          case PtxlOp::Ldg:
          case PtxlOp::Stg:
          case PtxlOp::Atom:
          case PtxlOp::Lds:
          case PtxlOp::Sts:
          case PtxlOp::Ldl:
          case PtxlOp::Stl:
          case PtxlOp::Ldc:
            return &memH;
          case PtxlOp::Bra: return &braH;
          case PtxlOp::Bssy: return &bssyH;
          case PtxlOp::Bsync: return &bsyncH;
          case PtxlOp::Bar: return &barH;
          case PtxlOp::Exit: return &exitH;
          case PtxlOp::Nop: return &nopH;
          case PtxlOp::Isetp: return &isetpH;
          case PtxlOp::Sel:
          case PtxlOp::P2r:
            return &aluGenericH;
          case PtxlOp::S2r:
            return I.dstReg.valid() ? &s2rH : &aluGenericH;
          case PtxlOp::Alu: {
            if (I.sem == Opcode::MovImm) {
                return (typeRegs(I.dtype) == 1 && I.dstReg.valid())
                           ? &movImmH : &aluGenericH;
            }
            if (typeRegs(I.dtype) == 1 && I.dstReg.valid() &&
                srcs_valid(hsail::desc(I.sem).arity)) {
                arch::ExecHandler h = nullptr;
                switch (I.dtype) {
                  case DataType::B32: // lane32 treats B32 as U32
                  case DataType::U32:
                    h = pickAluDt<DataType::U32>(I.sem); break;
                  case DataType::S32:
                    h = pickAluDt<DataType::S32>(I.sem); break;
                  case DataType::F32:
                    h = pickAluDt<DataType::F32>(I.sem); break;
                  default: break;
                }
                if (h)
                    return h;
            }
            return &aluGenericH;
          }
        }
        return &aluGenericH;
    }
};

void
PtxlInst::predecode(arch::ExecMeta &m) const
{
    m.handler = PtxlExec::pick(*this);
}

} // namespace last::ptxl
