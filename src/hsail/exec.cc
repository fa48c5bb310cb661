/**
 * @file
 * Execution handlers for HSAIL: the ISA's only execution semantics.
 *
 * HsailInst::predecode resolves each static instruction to one of the
 * flat handlers below. 32-bit ALU and compare ops get kernels
 * instantiated per (opcode, data type) from the shared IL lane
 * semantics (hsail/lane_ops.hh), iterating only the active lanes (ctz
 * over the mask, the probes.hh idiom) with a full-row loop when all 64
 * lanes are live so the compiler can vectorize. 64-bit types,
 * conversions, dispatch intrinsics and irregular operand lists take
 * the generic path through laneAlu, defined here too.
 *
 * Lanes run in ascending order everywhere, so overlapping stores and
 * atomics land in a defined order. tests/golden/exec_vectors.txt pins
 * every opcode's post-state (tests/test_exec_golden.cc).
 */

#include <bit>
#include <cmath>

#include "arch/exec_meta.hh"
#include "common/logging.hh"
#include "hsail/inst.hh"
#include "hsail/lane_ops.hh"

namespace last::hsail
{

namespace
{

/** lane32<OP, DT> as a function pointer, for lane32Table. */
template <DataType DT>
struct Lane32Kernel
{
    using Fn = uint32_t (*)(uint32_t, uint32_t, uint32_t);

    template <Opcode OP>
    static constexpr Fn of() { return &lane32<OP, DT>; }
};

/** lane32<OP, DT> with the opcode picked at run time. */
template <DataType DT>
uint32_t
lane32Of(Opcode op, uint32_t a, uint32_t b, uint32_t c)
{
    static constexpr auto kLane32 = lane32Table<Lane32Kernel<DT>>();
    const auto f = kLane32[size_t(op)];
    panic_if(!f, "laneAlu on non-ALU opcode %s", opcodeName(op));
    return f(a, b, c);
}

uint32_t
lane32Of(Opcode op, DataType t, uint32_t a, uint32_t b, uint32_t c)
{
    switch (t) {
      case DataType::F32: return lane32Of<DataType::F32>(op, a, b, c);
      case DataType::S32: return lane32Of<DataType::S32>(op, a, b, c);
      default: return lane32Of<DataType::U32>(op, a, b, c);
    }
}

/** One lane of a U64/F64 op. F64 arithmetic and U64 add, sub, mul,
 *  not and shifts are 64 bits wide, the bitwise ops, moves and selects
 *  move the whole pair; every other opcode keeps its unsigned 32-bit
 *  meaning on the low words. */
uint64_t
lane64(Opcode op, DataType t, uint64_t a, uint64_t b, uint64_t c)
{
    if (t == DataType::F64) {
        using arch::fp::inOrder;
        using arch::fp::inOrder3;
        using arch::fp::minMax;
        switch (op) {
          case Opcode::Add:
            return inOrder<double>(a, b, fromF64(asF64(a) + asF64(b)));
          case Opcode::Sub: return fromF64(asF64(a) - asF64(b));
          case Opcode::Mul:
            return inOrder<double>(a, b, fromF64(asF64(a) * asF64(b)));
          case Opcode::Mad: {
            uint64_t p = lane64(Opcode::Mul, t, a, b, 0);
            return lane64(Opcode::Add, t, p, c, 0);
          }
          case Opcode::Fma:
            return inOrder3<double>(
                a, b, c, fromF64(std::fma(asF64(a), asF64(b), asF64(c))));
          case Opcode::Div: return fromF64(asF64(a) / asF64(b));
          case Opcode::Min:
            return minMax<double>(a, b,
                                  fromF64(std::fmin(asF64(a), asF64(b))));
          case Opcode::Max:
            return minMax<double>(a, b,
                                  fromF64(std::fmax(asF64(a), asF64(b))));
          case Opcode::Abs: return fromF64(std::fabs(asF64(a)));
          case Opcode::Neg: return fromF64(-asF64(a));
          case Opcode::Sqrt: return fromF64(std::sqrt(asF64(a)));
          default: break;
        }
    } else {
        switch (op) {
          case Opcode::Add: return a + b;
          case Opcode::Sub: return a - b;
          case Opcode::Mul: return a * b;
          case Opcode::Not: return ~a;
          case Opcode::Shl: return a << (b & 63);
          case Opcode::Shr: return a >> (b & 63);
          default: break;
        }
    }
    switch (op) {
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Mov: return a;
      case Opcode::CMov: return uint32_t(a) ? b : c;
      default:
        return lane32Of(op, DataType::U32, uint32_t(a), uint32_t(b),
                        uint32_t(c));
    }
}

} // namespace

uint64_t
laneAlu(Opcode op, DataType t, DataType src_t, CmpOp cmp,
        const Reg (&src)[3], uint64_t imm, const arch::WfState &wf,
        unsigned lane)
{
    auto rd = [&](Reg r, DataType rt) -> uint64_t {
        if (!r.valid())
            return 0;
        return typeRegs(rt) == 2 ? wf.readVreg64(r.idx, lane)
                                 : uint64_t(wf.readVreg(r.idx, lane));
    };

    switch (op) {
      case Opcode::MovImm:
        return imm;
      case Opcode::Cvt: {
        uint64_t s = rd(src[0], src_t);
        auto isFloat = [](DataType d) {
            return d == DataType::F32 || d == DataType::F64;
        };
        if (!isFloat(src_t) && !isFloat(t)) {
            // Integer to integer, as the HSAIL PRM defines it: an s32
            // source sign-extends, the destination keeps the low bits.
            if (src_t == DataType::S32)
                s = uint64_t(int64_t(int32_t(s)));
            return typeRegs(t) == 2 ? s : uint64_t(uint32_t(s));
        }
        double v;
        switch (src_t) {
          case DataType::F32: v = asF32(uint32_t(s)); break;
          case DataType::F64: v = asF64(s); break;
          case DataType::S32: v = double(int32_t(s)); break;
          default: v = double(s); break;
        }
        // Float to integer is arch::fp::toInt: truncation, NaN to 0,
        // out-of-range values saturated. The HSAIL PRM defines NaN and
        // out-of-range sources only for cvt's saturating (_sat)
        // integer rounding modes and leaves them undefined otherwise;
        // this IL's cvt carries no modifiers and always behaves as
        // _zeroi_sat.
        using arch::fp::toInt;
        switch (t) {
          case DataType::F32: return fromF32(float(v));
          case DataType::F64: return fromF64(v);
          case DataType::S32: return uint32_t(toInt<int32_t>(v));
          case DataType::U64: return toInt<uint64_t>(v);
          default: return toInt<uint32_t>(v);
        }
      }
      case Opcode::WorkItemAbsId:
        return wf.globalId(lane);
      case Opcode::WorkItemId:
        return wf.wfIdInWg * WavefrontSize + lane;
      case Opcode::WorkGroupId:
        return wf.wgId;
      case Opcode::WorkGroupSize:
        return wf.wgSize;
      case Opcode::GridSize:
        return wf.gridSize;
      default:
        break;
    }

    const uint64_t a = rd(src[0], t), b = rd(src[1], t), c = rd(src[2], t);
    if (op == Opcode::Cmp)
        return laneCmp(cmp, t, a, b) ? 1 : 0;
    if (typeRegs(t) == 1)
        return lane32Of(op, t, uint32_t(a), uint32_t(b), uint32_t(c));
    return lane64(op, t, a, b, c);
}

struct HsailExec
{
    using Meta = arch::ExecMeta;
    using Wf = arch::WfState;

    static const HsailInst &
    inst(const Meta &m)
    {
        return static_cast<const HsailInst &>(*m.inst);
    }

    /** @{ Control handlers. */
    static void
    nopH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
    }

    static void
    retH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        wf.done = true;
    }

    static void
    barrierH(const Meta &, Wf &wf)
    {
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        wf.atBarrier = true;
    }

    static void
    brH(const Meta &m, Wf &wf)
    {
        wf.nextPc = inst(m).targetOffset();
    }
    /** @} */

    /** Conditional branch. A divergent one is managed with the
     *  reconvergence stack: the current top becomes the reconvergence
     *  entry and waits at the immediate post-dominator; both paths are
     *  pushed and execute serially, taken path first. */
    static void
    cbrH(const Meta &m, Wf &wf)
    {
        const HsailInst &I = inst(m);
        Addr fallthrough = wf.pc + HsailInst::EncodedBytes;
        Addr target = I.targetOffset();

        uint64_t active = wf.activeMask();
        bool if_zero = I.branchIfZero();
        const uint32_t *cond = wf.vregs[I.srcRegs[0].idx].data();
        uint64_t taken = 0;
        for (uint64_t rest = active; rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            if ((cond[lane] != 0) != if_zero)
                taken |= 1ull << lane;
        }
        uint64_t not_taken = active & ~taken;

        if (taken == 0) {
            wf.nextPc = fallthrough;
        } else if (not_taken == 0) {
            wf.nextPc = target;
        } else {
            panic_if(I.rpcOff == InvalidAddr,
                     "divergent branch without ipdom analysis");
            wf.rs.back().pc = I.rpcOff;
            wf.rs.push_back({fallthrough, I.rpcOff, not_taken});
            wf.rs.push_back({target, I.rpcOff, taken});
            wf.nextPc = target;
        }
    }

    /**
     * Memory. The MemAccess is built in place inside wf.pendingAccess
     * (the CU consumes it by reference: no 600-byte copies).
     *  - Kernarg/arg: the IL has no ABI, so the simulator supplies the
     *    kernarg base itself and serves the access from functional
     *    state.
     *  - Group: zero-based offsets within the workgroup's LDS block.
     *  - Global/readonly/private/spill reach main memory; private and
     *    spill use simulator-held base addresses and per-work-item
     *    strides (no visible address arithmetic, the abstraction the
     *    paper calls out).
     */
    static void
    memH(const Meta &m, Wf &wf)
    {
        using arch::MemAccess;
        const HsailInst &I = inst(m);
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;

        uint64_t mask = wf.activeMask();
        unsigned bytes = typeBytes(I.dtype);
        MemAccess &acc = wf.pendingAccess.emplace();
        acc.bytesPerLane = bytes;
        acc.mask = mask;

        if (I.seg == Segment::Kernarg || I.seg == Segment::Arg) {
            Addr addr = wf.kernargBase + I.imm;
            uint64_t val = 0;
            wf.memory->read(addr, &val, bytes);
            for (uint64_t rest = mask; rest; rest &= rest - 1) {
                unsigned lane = unsigned(std::countr_zero(rest));
                if (bytes == 8)
                    wf.writeVreg64(I.dstReg.idx, lane, val);
                else
                    wf.writeVreg(I.dstReg.idx, lane, uint32_t(val));
            }
            acc.kind = MemAccess::Kind::KernargDirect;
            acc.scalarAddr = addr;
            acc.scalarBytes = bytes;
            return;
        }

        if (I.seg == Segment::Group) {
            acc.kind = (I.opc == Opcode::St) ? MemAccess::Kind::LdsStore
                                             : MemAccess::Kind::LdsLoad;
            const bool has_off = I.srcRegs[0].valid();
            for (uint64_t rest = mask; rest; rest &= rest - 1) {
                unsigned lane = unsigned(std::countr_zero(rest));
                Addr off = I.imm;
                if (has_off)
                    off += wf.readVreg(I.srcRegs[0].idx, lane);
                acc.laneAddrs[lane] = off;
                if (I.opc == Opcode::St) {
                    wf.lds->write32(off,
                                    wf.readVreg(I.srcRegs[1].idx, lane));
                    if (bytes == 8)
                        wf.lds->write32(
                            off + 4,
                            wf.readVreg(I.srcRegs[1].idx + 1, lane));
                } else {
                    wf.writeVreg(I.dstReg.idx, lane, wf.lds->read32(off));
                    if (bytes == 8)
                        wf.writeVreg(I.dstReg.idx + 1, lane,
                                     wf.lds->read32(off + 4));
                }
            }
            return;
        }

        acc.kind = (I.opc == Opcode::St) ? MemAccess::Kind::VectorStore
                                         : MemAccess::Kind::VectorLoad;
        for (uint64_t rest = mask; rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            Addr addr;
            switch (I.seg) {
              case Segment::Global:
              case Segment::Readonly:
                addr = wf.readVreg64(I.srcRegs[0].idx, lane) + I.imm;
                break;
              case Segment::Private:
                addr = wf.privateBase +
                       uint64_t(wf.globalId(lane)) * wf.privateStridePerWi +
                       (I.srcRegs[0].valid()
                            ? wf.readVreg(I.srcRegs[0].idx, lane) : 0) +
                       I.imm;
                break;
              case Segment::Spill:
                addr = wf.spillBase +
                       uint64_t(wf.globalId(lane)) * wf.spillStridePerWi +
                       (I.srcRegs[0].valid()
                            ? wf.readVreg(I.srcRegs[0].idx, lane) : 0) +
                       I.imm;
                break;
              default:
                panic("unhandled segment");
            }
            acc.laneAddrs[lane] = addr;

            if (I.opc == Opcode::St) {
                if (bytes == 8) {
                    uint64_t v = wf.readVreg64(I.srcRegs[1].idx, lane);
                    wf.memory->write(addr, &v, 8);
                } else {
                    uint32_t v = wf.readVreg(I.srcRegs[1].idx, lane);
                    wf.memory->write(addr, &v, 4);
                }
            } else if (I.opc == Opcode::AtomicAdd) {
                uint32_t old = wf.memory->read<uint32_t>(addr);
                uint32_t add = wf.readVreg(I.srcRegs[1].idx, lane);
                wf.memory->write<uint32_t>(addr, old + add);
                if (I.dstReg.valid())
                    wf.writeVreg(I.dstReg.idx, lane, old);
            } else {
                if (bytes == 8) {
                    uint64_t v = 0;
                    wf.memory->read(addr, &v, 8);
                    wf.writeVreg64(I.dstReg.idx, lane, v);
                } else {
                    uint32_t v = 0;
                    wf.memory->read(addr, &v, 4);
                    wf.writeVreg(I.dstReg.idx, lane, v);
                }
            }
        }
    }

    /** Generic ALU path: laneAlu per active lane. */
    static void
    aluGenericH(const Meta &m, Wf &wf)
    {
        const HsailInst &I = inst(m);
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        if (!I.dstReg.valid())
            return;
        const bool wide = I.opc != Opcode::Cmp && typeRegs(I.dtype) == 2;
        for (uint64_t rest = wf.activeMask(); rest; rest &= rest - 1) {
            unsigned lane = unsigned(std::countr_zero(rest));
            uint64_t r = laneAlu(I.opc, I.dtype, I.srcDtype, I.cmpop,
                                 I.srcRegs, I.imm, wf, lane);
            if (wide)
                wf.writeVreg64(I.dstReg.idx, lane, r);
            else
                wf.writeVreg(I.dstReg.idx, lane, uint32_t(r));
        }
    }

    /** movimm: broadcast the immediate into the active lanes. */
    static void
    movImmH(const Meta &m, Wf &wf)
    {
        const HsailInst &I = inst(m);
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        uint64_t mask = wf.activeMask();
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

    /** 32-bit ALU op, one instantiation per (opcode, type). */
    template <Opcode OP, DataType DT>
    static void
    aluH(const Meta &m, Wf &wf)
    {
        const HsailInst &I = inst(m);
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        aluRows<OP, DT>(wf.activeMask(), wf, I.dstReg, I.srcRegs);
    }

    /** 32-bit compare, one instantiation per (cmp op, type). */
    template <CmpOp C, DataType DT>
    static void
    cmpH(const Meta &m, Wf &wf)
    {
        const HsailInst &I = inst(m);
        wf.nextPc = wf.pc + HsailInst::EncodedBytes;
        uint64_t mask = wf.activeMask();

        uint32_t *d = wf.vregs[I.dstReg.idx].data();
        const uint32_t *a = wf.vregs[I.srcRegs[0].idx].data();
        const uint32_t *b = wf.vregs[I.srcRegs[1].idx].data();
        if (mask == ~0ull) {
            for (unsigned l = 0; l < WavefrontSize; ++l)
                d[l] = laneCmp32<C, DT>(a[l], b[l]);
        } else {
            for (uint64_t rest = mask; rest; rest &= rest - 1) {
                unsigned l = unsigned(std::countr_zero(rest));
                d[l] = laneCmp32<C, DT>(a[l], b[l]);
            }
        }
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
        static constexpr auto kAluH = lane32Table<AluKernel<DT>>();
        return kAluH[size_t(op)];
    }

    template <DataType DT>
    static arch::ExecHandler
    pickCmpDt(CmpOp c)
    {
        switch (c) {
          case CmpOp::Eq: return &cmpH<CmpOp::Eq, DT>;
          case CmpOp::Ne: return &cmpH<CmpOp::Ne, DT>;
          case CmpOp::Lt: return &cmpH<CmpOp::Lt, DT>;
          case CmpOp::Le: return &cmpH<CmpOp::Le, DT>;
          case CmpOp::Gt: return &cmpH<CmpOp::Gt, DT>;
          case CmpOp::Ge: return &cmpH<CmpOp::Ge, DT>;
        }
        return nullptr;
    }

    static arch::ExecHandler
    pick(const HsailInst &I)
    {
        auto srcs_valid = [&](unsigned n) {
            for (unsigned s = 0; s < n; ++s)
                if (!I.srcRegs[s].valid())
                    return false;
            return true;
        };

        switch (I.opc) {
          case Opcode::Ld:
          case Opcode::St:
          case Opcode::AtomicAdd:
            return &memH;
          case Opcode::Br: return &brH;
          case Opcode::CBr: return &cbrH;
          case Opcode::Barrier: return &barrierH;
          case Opcode::Ret: return &retH;
          case Opcode::Nop: return &nopH;
          case Opcode::MovImm:
            return (typeRegs(I.dtype) == 1 && I.dstReg.valid())
                       ? &movImmH : &aluGenericH;
          case Opcode::Cmp: {
            if (typeRegs(I.dtype) == 1 && I.dstReg.valid() &&
                srcs_valid(2)) {
                arch::ExecHandler h = nullptr;
                switch (I.dtype) {
                  case DataType::B32: // compares like U32
                  case DataType::U32:
                    h = pickCmpDt<DataType::U32>(I.cmpop); break;
                  case DataType::S32:
                    h = pickCmpDt<DataType::S32>(I.cmpop); break;
                  case DataType::F32:
                    h = pickCmpDt<DataType::F32>(I.cmpop); break;
                  default: break;
                }
                if (h)
                    return h;
            }
            return &aluGenericH;
          }
          default: {
            // The templated kernels assume every register they touch
            // is present; anything irregular takes the generic path,
            // where a missing operand reads 0.
            if (typeRegs(I.dtype) == 1 && I.dstReg.valid() &&
                srcs_valid(desc(I.opc).arity)) {
                arch::ExecHandler h = nullptr;
                switch (I.dtype) {
                  case DataType::B32: // lane32 treats B32 as U32
                  case DataType::U32:
                    h = pickAluDt<DataType::U32>(I.opc); break;
                  case DataType::S32:
                    h = pickAluDt<DataType::S32>(I.opc); break;
                  case DataType::F32:
                    h = pickAluDt<DataType::F32>(I.opc); break;
                  default: break;
                }
                if (h)
                    return h;
            }
            return &aluGenericH;
          }
        }
    }
};

void
HsailInst::predecode(arch::ExecMeta &m) const
{
    m.handler = HsailExec::pick(*this);
}

} // namespace last::hsail
