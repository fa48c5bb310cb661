#include "gcn3/inst.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <sstream>

#include "arch/fp_pin.hh"
#include "arch/kernel_code.hh"
#include "common/logging.hh"

namespace last::gcn3
{

namespace
{

using arch::fp::inOrder;
using arch::fp::inOrder3;
using arch::fp::minMax;

float asF32(uint32_t b) { return std::bit_cast<float>(b); }
uint32_t fromF32(float f) { return std::bit_cast<uint32_t>(f); }
double asF64(uint64_t b) { return std::bit_cast<double>(b); }
uint64_t fromF64(double d) { return std::bit_cast<uint64_t>(d); }

} // namespace

Gcn3Inst::Gcn3Inst(Gcn3Op op, Format encoding)
    : opc(op)
{
    if (encoding == desc(op).format)
        setFlags(desc(op).flags);
}

void
Gcn3Inst::finalizeOperands()
{
    using arch::RegClass;
    const OpDesc &d = desc(opc);

    if (dst.valid()) {
        RegClass cls = dst.kind == Dst::Kind::Vgpr ? RegClass::Vector
                                                   : RegClass::Scalar;
        addOp(cls, dst.reg, d.dstWidth, true);
    }
    for (unsigned i = 0; i < 3; ++i) {
        const Src &s = srcs[i];
        if (s.kind == Src::Kind::Vgpr)
            addOp(RegClass::Vector, s.reg, uint8_t(d.srcWidth(i)), false);
        else if (s.kind == Src::Kind::Sgpr)
            addOp(RegClass::Scalar, s.reg, uint8_t(d.srcWidth(i)), false);
    }

    if (d.implicit & VccR)
        addOp(RegClass::Scalar, arch::RegVccLo, 2, false);
    if (d.implicit & ExecR)
        addOp(RegClass::Scalar, arch::RegExecLo, 2, false);
    if (d.implicit & DstR)
        addOp(RegClass::Vector, dst.reg, 1, false);
    if (d.implicit & VccW)
        addOp(RegClass::Scalar, arch::RegVccLo, 2, true);
    if (d.implicit & ExecW)
        addOp(RegClass::Scalar, arch::RegExecLo, 2, true);
}

unsigned
Gcn3Inst::sizeBytes() const
{
    unsigned size = formatBytes(format());
    // VOP2 only admits a scalar/constant operand in src0; mixed forms
    // (an SGPR in src1, or SGPR + constant combinations) need the
    // 64-bit VOP3 encoding.
    if (format() == Format::VOP2) {
        bool nonvec1 = srcs[1].valid() &&
                       srcs[1].kind != Src::Kind::Vgpr;
        bool sgpr_any = srcs[0].kind == Src::Kind::Sgpr ||
                        srcs[1].kind == Src::Kind::Sgpr;
        if (nonvec1 && sgpr_any)
            size = 8;
    }
    for (const auto &s : srcs)
        if (s.isLiteral())
            size += 4;
    return size;
}

// ---------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------

Gcn3Inst *
Gcn3Inst::sop1(Gcn3Op op, Dst dst, Src src)
{
    auto *i = new Gcn3Inst(op, Format::SOP1);
    i->dst = dst;
    i->srcs[0] = src;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sop2(Gcn3Op op, Dst dst, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op, Format::SOP2);
    i->dst = dst;
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sopc(Gcn3Op op, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op, Format::SOPC);
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sopk(Gcn3Op op, Dst dst, int16_t k)
{
    auto *i = new Gcn3Inst(op, Format::SOPK);
    i->dst = dst;
    i->simm = uint32_t(int32_t(k));
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::sopp(Gcn3Op op, uint32_t imm)
{
    auto *i = new Gcn3Inst(op, Format::SOPP);
    i->simm = imm;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::branch(Gcn3Op op, size_t target_index)
{
    auto *i = new Gcn3Inst(op, Format::SOPP);
    i->targetIdx = target_index;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::waitcnt(int vm, int lgkm)
{
    unsigned v = vm < 0 ? 64 : unsigned(vm);
    unsigned l = lgkm < 0 ? 64 : unsigned(lgkm);
    return sopp(Gcn3Op::S_WAITCNT, (l << 8) | v);
}

Gcn3Inst *
Gcn3Inst::smem(Gcn3Op op, Dst dst, unsigned sbase, uint32_t offset)
{
    auto *i = new Gcn3Inst(op, Format::SMEM);
    i->dst = dst;
    i->srcs[0] = Src::sgpr(sbase);
    i->simm = offset;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vop1(Gcn3Op op, Dst dst, Src src)
{
    auto *i = new Gcn3Inst(op, Format::VOP1);
    i->dst = dst;
    i->srcs[0] = src;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vop2(Gcn3Op op, Dst dst, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op, Format::VOP2);
    i->dst = dst;
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vop3(Gcn3Op op, Dst dst, Src s0, Src s1, Src s2,
               uint8_t neg_mask)
{
    auto *i = new Gcn3Inst(op, Format::VOP3);
    i->dst = dst;
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->srcs[2] = s2;
    i->negMask = neg_mask;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::vcmp(Gcn3Op op, Src s0, Src s1)
{
    auto *i = new Gcn3Inst(op, Format::VOPC);
    i->srcs[0] = s0;
    i->srcs[1] = s1;
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::flat(Gcn3Op op, Dst dst, unsigned addr_vgpr, unsigned data_vgpr)
{
    auto *i = new Gcn3Inst(op, Format::FLAT);
    i->dst = dst;
    i->srcs[0] = Src::vgpr(addr_vgpr); // 64-bit address pair
    if (i->is(arch::IsStore))
        i->srcs[1] = Src::vgpr(data_vgpr);
    i->finalizeOperands();
    return i;
}

Gcn3Inst *
Gcn3Inst::ds(Gcn3Op op, Dst dst, unsigned addr_vgpr, unsigned data_vgpr,
             uint32_t offset)
{
    auto *i = new Gcn3Inst(op, Format::DS);
    i->dst = dst;
    i->srcs[0] = Src::vgpr(addr_vgpr);
    if (i->is(arch::IsStore))
        i->srcs[1] = Src::vgpr(data_vgpr);
    i->simm = offset;
    i->finalizeOperands();
    return i;
}

// ---------------------------------------------------------------------
// Source reads
// ---------------------------------------------------------------------

uint32_t
Gcn3Inst::readSrc32(const arch::WfState &wf, unsigned i,
                    unsigned lane) const
{
    const Src &s = srcs[i];
    uint32_t v = 0;
    switch (s.kind) {
      case Src::Kind::Vgpr: v = wf.readVreg(s.reg, lane); break;
      case Src::Kind::Sgpr: v = wf.readSgpr(s.reg); break;
      case Src::Kind::InlineConst:
      case Src::Kind::Literal: v = s.value; break;
      case Src::Kind::InlineConstF64: v = 0; break; // low dword is zero
      case Src::Kind::None: break;
    }
    if (negMask & (1u << i))
        v ^= 0x80000000u; // float negate modifier
    return v;
}

uint64_t
Gcn3Inst::readSrc64(const arch::WfState &wf, unsigned i,
                    unsigned lane) const
{
    const Src &s = srcs[i];
    uint64_t v = 0;
    switch (s.kind) {
      case Src::Kind::Vgpr: v = wf.readVreg64(s.reg, lane); break;
      case Src::Kind::Sgpr: v = wf.readSgpr64(s.reg); break;
      case Src::Kind::InlineConst:
      case Src::Kind::Literal:
        v = uint64_t(int64_t(int32_t(s.value)));
        break;
      case Src::Kind::InlineConstF64:
        v = uint64_t(s.value) << 32;
        break;
      case Src::Kind::None: break;
    }
    if (negMask & (1u << i))
        v ^= 0x8000000000000000ull; // float negate modifier
    return v;
}

// ---------------------------------------------------------------------
// Cold executors (called by the handlers in exec.cc)
// ---------------------------------------------------------------------

void
Gcn3Inst::executeSalu(arch::WfState &wf) const
{
    auto wr32 = [&](uint32_t v) { wf.writeSgpr(dst.reg, v); };
    auto wr64 = [&](uint64_t v) { wf.writeSgpr64(dst.reg, v); };
    uint32_t a = readSrc32(wf, 0, 0);
    uint32_t b = readSrc32(wf, 1, 0);
    // 64-bit views must be lazy: reading reg+1 for a 32-bit operand at
    // the top of the register file would run off the end.
    auto a64 = [&] { return readSrc64(wf, 0, 0); };
    auto b64 = [&] { return readSrc64(wf, 1, 0); };

    switch (opc) {
      case Gcn3Op::S_MOV_B32: wr32(a); break;
      case Gcn3Op::S_MOV_B64: wr64(a64()); break;
      case Gcn3Op::S_NOT_B32: wr32(~a); wf.scc = ~a != 0; break;
      case Gcn3Op::S_AND_SAVEEXEC_B64: {
        uint64_t old = wf.exec;
        wf.exec = a64() & old;
        wr64(old);
        wf.scc = wf.exec != 0;
        break;
      }
      case Gcn3Op::S_OR_SAVEEXEC_B64: {
        uint64_t old = wf.exec;
        wf.exec = a64() | old;
        wr64(old);
        wf.scc = wf.exec != 0;
        break;
      }
      case Gcn3Op::S_ADD_U32: {
        uint64_t r = uint64_t(a) + b;
        wr32(uint32_t(r));
        wf.scc = r >> 32;
        break;
      }
      case Gcn3Op::S_ADDC_U32: {
        uint64_t r = uint64_t(a) + b + (wf.scc ? 1 : 0);
        wr32(uint32_t(r));
        wf.scc = r >> 32;
        break;
      }
      case Gcn3Op::S_SUB_U32:
        wf.scc = b > a;
        wr32(a - b);
        break;
      case Gcn3Op::S_MUL_I32: // low 32 bits: the same for signed
        wr32(a * b);
        break;
      case Gcn3Op::S_LSHL_B32: {
        uint32_t r = a << (b & 31);
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_LSHR_B32: {
        uint32_t r = a >> (b & 31);
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_ASHR_I32: {
        uint32_t r = uint32_t(int32_t(a) >> (b & 31));
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_MIN_U32:
        wf.scc = a < b;
        wr32(std::min(a, b));
        break;
      case Gcn3Op::S_MAX_U32:
        wf.scc = a > b;
        wr32(std::max(a, b));
        break;
      case Gcn3Op::S_AND_B32: { uint32_t r = a & b; wr32(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_OR_B32: { uint32_t r = a | b; wr32(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_XOR_B32: { uint32_t r = a ^ b; wr32(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_AND_B64: { uint64_t r = a64() & b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_OR_B64: { uint64_t r = a64() | b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_XOR_B64: { uint64_t r = a64() ^ b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_ANDN2_B64: { uint64_t r = a64() & ~b64(); wr64(r);
        wf.scc = r != 0; break; }
      case Gcn3Op::S_BFE_U32: {
        // src1 packs offset in [4:0] and width in [22:16].
        unsigned off = b & 31;
        unsigned width = (b >> 16) & 0x7f;
        uint32_t mask = width >= 32 ? 0xffffffffu
                                    : ((width == 0) ? 0 : (1u << width) - 1);
        uint32_t r = (a >> off) & mask;
        wr32(r);
        wf.scc = r != 0;
        break;
      }
      case Gcn3Op::S_CSELECT_B32:
        wr32(wf.scc ? a : b);
        break;
      case Gcn3Op::S_CMP_EQ_U32: wf.scc = a == b; break;
      case Gcn3Op::S_CMP_LG_U32: wf.scc = a != b; break;
      case Gcn3Op::S_CMP_LT_U32: wf.scc = a < b; break;
      case Gcn3Op::S_CMP_LE_U32: wf.scc = a <= b; break;
      case Gcn3Op::S_CMP_GT_U32: wf.scc = a > b; break;
      case Gcn3Op::S_CMP_GE_U32: wf.scc = a >= b; break;
      case Gcn3Op::S_CMP_EQ_I32: wf.scc = int32_t(a) == int32_t(b); break;
      case Gcn3Op::S_CMP_LG_I32: wf.scc = int32_t(a) != int32_t(b); break;
      case Gcn3Op::S_CMP_LT_I32: wf.scc = int32_t(a) < int32_t(b); break;
      case Gcn3Op::S_CMP_LE_I32: wf.scc = int32_t(a) <= int32_t(b); break;
      case Gcn3Op::S_CMP_GT_I32: wf.scc = int32_t(a) > int32_t(b); break;
      case Gcn3Op::S_CMP_GE_I32: wf.scc = int32_t(a) >= int32_t(b); break;
      case Gcn3Op::S_MOVK_I32:
        wr32(uint32_t(int32_t(int16_t(simm))));
        break;
      case Gcn3Op::S_ADDK_I32: // wraps like the hardware
        wr32(wf.readSgpr(dst.reg) + uint32_t(int32_t(int16_t(simm))));
        break;
      case Gcn3Op::S_MULK_I32:
        wr32(wf.readSgpr(dst.reg) * uint32_t(int32_t(int16_t(simm))));
        break;
      case Gcn3Op::S_CMPK_EQ_U32:
        wf.scc = wf.readSgpr(dst.reg) == uint32_t(uint16_t(simm));
        break;
      case Gcn3Op::S_CMPK_LT_U32:
        wf.scc = wf.readSgpr(dst.reg) < uint32_t(uint16_t(simm));
        break;
      default:
        panic("unhandled SALU op %s", opName(opc));
    }
}

void
Gcn3Inst::executeVcmp(arch::WfState &wf) const
{
    // The F64 compares; Gcn3Exec::vcmpH runs the 32-bit ones.
    uint64_t result = 0;
    for (uint64_t rest = wf.exec; rest; rest &= rest - 1) {
        unsigned lane = unsigned(std::countr_zero(rest));
        double x = asF64(readSrc64(wf, 0, lane));
        double y = asF64(readSrc64(wf, 1, lane));
        bool r;
        switch (opc) {
          case Gcn3Op::V_CMP_EQ_F64: r = x == y; break;
          case Gcn3Op::V_CMP_NE_F64: r = x != y; break;
          case Gcn3Op::V_CMP_LT_F64: r = x < y; break;
          case Gcn3Op::V_CMP_LE_F64: r = x <= y; break;
          case Gcn3Op::V_CMP_GT_F64: r = x > y; break;
          case Gcn3Op::V_CMP_GE_F64: r = x >= y; break;
          default: panic("unhandled VOPC op %s", opName(opc));
        }
        if (r)
            result |= 1ull << lane;
    }
    wf.vcc = result;
}

void
Gcn3Inst::executeValu(arch::WfState &wf) const
{
    // The F64 and conversion-to/from-F64 ops and V_DIV_SCALE; the
    // 32-bit ops run in Gcn3Exec::valuH / carryH.
    uint64_t new_vcc = wf.vcc;
    for (uint64_t rest = wf.exec; rest; rest &= rest - 1) {
        unsigned lane = unsigned(std::countr_zero(rest));
        uint64_t bit = 1ull << lane;
        uint32_t a = readSrc32(wf, 0, lane);
        auto a64 = [&] { return readSrc64(wf, 0, lane); };
        auto b64 = [&] { return readSrc64(wf, 1, lane); };
        auto c64 = [&] { return readSrc64(wf, 2, lane); };
        auto wr = [&](uint32_t v) { wf.writeVreg(dst.reg, lane, v); };
        auto wr64v = [&](uint64_t v) { wf.writeVreg64(dst.reg, lane, v); };

        switch (opc) {
          case Gcn3Op::V_RCP_F64: wr64v(fromF64(1.0 / asF64(a64()))); break;
          case Gcn3Op::V_SQRT_F64:
            wr64v(fromF64(std::sqrt(asF64(a64()))));
            break;
          case Gcn3Op::V_CVT_F64_F32:
            wr64v(fromF64(double(asF32(a))));
            break;
          case Gcn3Op::V_CVT_F32_F64:
            wr(fromF32(float(asF64(a64()))));
            break;
          case Gcn3Op::V_CVT_F64_U32: wr64v(fromF64(double(a))); break;
          case Gcn3Op::V_CVT_U32_F64:
            wr(arch::fp::toInt<uint32_t>(asF64(a64())));
            break;
          case Gcn3Op::V_ADD_F64:
            wr64v(inOrder<double>(a64(), b64(),
                                  fromF64(asF64(a64()) + asF64(b64()))));
            break;
          case Gcn3Op::V_MUL_F64:
            wr64v(inOrder<double>(a64(), b64(),
                                  fromF64(asF64(a64()) * asF64(b64()))));
            break;
          case Gcn3Op::V_FMA_F64:
          case Gcn3Op::V_DIV_FMAS_F64:
            wr64v(inOrder3<double>(a64(), b64(), c64(),
                                   fromF64(std::fma(asF64(a64()),
                                                    asF64(b64()),
                                                    asF64(c64())))));
            break;
          case Gcn3Op::V_MIN_F64:
            wr64v(minMax<double>(a64(), b64(),
                                 fromF64(std::fmin(asF64(a64()),
                                                   asF64(b64())))));
            break;
          case Gcn3Op::V_MAX_F64:
            wr64v(minMax<double>(a64(), b64(),
                                 fromF64(std::fmax(asF64(a64()),
                                                   asF64(b64())))));
            break;
          case Gcn3Op::V_DIV_SCALE_F32:
            // Scaling pass-through: the fixup step produces the exact
            // quotient, so no scaling is required in this model.
            wr(a);
            new_vcc &= ~bit;
            break;
          case Gcn3Op::V_DIV_SCALE_F64:
            wr64v(a64());
            new_vcc &= ~bit;
            break;
          case Gcn3Op::V_DIV_FIXUP_F64:
            // dst = numerator(src2) / denominator(src1), correctly
            // rounded; the hardware sequence guarantees this, so the
            // model computes it exactly here.
            wr64v(fromF64(asF64(c64()) / asF64(b64())));
            break;
          default:
            panic("unhandled VALU op %s", opName(opc));
        }
    }
    wf.vcc = new_vcc;
}

void
Gcn3Inst::executeSopp(arch::WfState &wf) const
{
    Addr fallthrough = wf.pc + sizeBytes();
    switch (opc) {
      case Gcn3Op::S_NOP:
      case Gcn3Op::S_WAITCNT:
        break;
      case Gcn3Op::S_ENDPGM:
        wf.done = true;
        break;
      case Gcn3Op::S_BARRIER:
        wf.atBarrier = true;
        break;
      case Gcn3Op::S_BRANCH:
        wf.nextPc = targetOff;
        return;
      case Gcn3Op::S_CBRANCH_SCC0:
        wf.nextPc = !wf.scc ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_SCC1:
        wf.nextPc = wf.scc ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_VCCZ:
        wf.nextPc = wf.vcc == 0 ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_VCCNZ:
        wf.nextPc = wf.vcc != 0 ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_EXECZ:
        wf.nextPc = wf.exec == 0 ? targetOff : fallthrough;
        return;
      case Gcn3Op::S_CBRANCH_EXECNZ:
        wf.nextPc = wf.exec != 0 ? targetOff : fallthrough;
        return;
      default:
        panic("unhandled SOPP op %s", opName(opc));
    }
    wf.nextPc = fallthrough;
}

std::string
Gcn3Inst::disassemble() const
{
    std::ostringstream os;
    std::string name = opName(opc);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    os << name;

    auto sregName = [](unsigned r, unsigned w) {
        std::ostringstream s;
        if (r == arch::RegVccLo)
            s << "vcc";
        else if (r == arch::RegExecLo)
            s << "exec";
        else if (w == 2)
            s << "s[" << r << ":" << r + 1 << "]";
        else if (w == 4)
            s << "s[" << r << ":" << r + 3 << "]";
        else
            s << "s" << r;
        return s.str();
    };
    auto vregName = [](unsigned r, unsigned w) {
        std::ostringstream s;
        if (w >= 2)
            s << "v[" << r << ":" << r + w - 1 << "]";
        else
            s << "v" << r;
        return s.str();
    };
    auto srcName = [&](unsigned i) {
        const Src &s = srcs[i];
        std::ostringstream t;
        switch (s.kind) {
          case Src::Kind::Vgpr:
            t << vregName(s.reg, desc(opc).srcWidth(i));
            break;
          case Src::Kind::Sgpr:
            t << sregName(s.reg, desc(opc).srcWidth(i));
            break;
          case Src::Kind::InlineConst:
          case Src::Kind::Literal:
            t << "0x" << std::hex << s.value;
            break;
          case Src::Kind::InlineConstF64:
            t << __builtin_bit_cast(double, uint64_t(s.value) << 32);
            break;
          case Src::Kind::None:
            break;
        }
        return t.str();
    };

    bool first = true;
    auto sep = [&]() -> std::ostream & {
        os << (first ? " " : ", ");
        first = false;
        return os;
    };

    if (opc == Gcn3Op::S_WAITCNT) {
        os << " vmcnt(" << vmThreshold() << ") lgkmcnt("
           << lgkmThreshold() << ")";
        return os.str();
    }
    if (is(arch::IsBranch)) {
        os << " @" << targetIdx;
        return os.str();
    }
    if (format() == Format::SMEM) {
        sep() << sregName(dst.reg, desc(opc).dstWidth);
        sep() << sregName(srcs[0].reg, 2);
        sep() << "0x" << std::hex << simm;
        return os.str();
    }

    if (dst.valid()) {
        if (dst.kind == Dst::Kind::Vgpr)
            sep() << vregName(dst.reg, desc(opc).dstWidth);
        else
            sep() << sregName(dst.reg, desc(opc).dstWidth);
    } else if (format() == Format::VOPC) {
        sep() << "vcc";
    }
    for (unsigned i = 0; i < 3; ++i)
        if (srcs[i].valid())
            sep() << srcName(i);
    if (format() == Format::DS)
        sep() << "offset:" << simm;
    return os.str();
}

void
resolveBranchTargets(arch::KernelCode &code)
{
    panic_if(code.isa() != IsaKind::GCN3, "expected a GCN3 kernel");
    for (size_t i = 0; i < code.numInsts(); ++i) {
        auto &inst = const_cast<Gcn3Inst &>(
            static_cast<const Gcn3Inst &>(code.inst(i)));
        if (inst.is(arch::IsBranch))
            inst.setTargetOffset(code.offsetOf(inst.targetIndex()));
    }
}

} // namespace last::gcn3
