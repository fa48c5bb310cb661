/**
 * @file
 * The per-lane semantics of the IL ALU opcodes, defined once.
 *
 * HSAIL instructions carry an (opcode, data type) pair; PTXL ALU
 * instructions carry the same pair as their semantics (ptxl/opcodes.hh),
 * so both ISAs compute every lane through the functions below and agree
 * functionally by construction. The handlers in src/hsail/exec.cc and
 * src/ptxl/exec.cc instantiate lane32 / laneCmp32 per (opcode, type)
 * for their active-lane kernels; laneAlu is the generic path (64-bit
 * types, conversions, dispatch intrinsics, missing operands) and
 * reaches the same lane32 for every 32-bit type.
 *
 * The expressions are the executable specification: integer results
 * wrap in two's complement (INT32_MIN / -1 is INT32_MIN, INT32_MIN % -1
 * is 0, division by zero yields 0), shift counts are masked to the
 * operand width, and floating-point results are the host's IEEE-754
 * results, with the cases IEEE-754 leaves open (which NaN, which zero)
 * pinned by arch/fp_pin.hh, which also defines float-to-integer
 * conversion for every input. Do not "simplify" them;
 * tests/golden/exec_vectors.txt pins every opcode's post-state.
 */

#ifndef LAST_HSAIL_LANE_OPS_HH
#define LAST_HSAIL_LANE_OPS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "arch/fp_pin.hh"
#include "arch/wf_state.hh"
#include "hsail/inst.hh"

namespace last::hsail
{

inline float asF32(uint32_t b) { return std::bit_cast<float>(b); }
inline uint32_t fromF32(float f) { return std::bit_cast<uint32_t>(f); }
inline double asF64(uint64_t b) { return std::bit_cast<double>(b); }
inline uint64_t fromF64(double d) { return std::bit_cast<uint64_t>(d); }

/** One lane of a 32-bit ALU op (B32/U32 unsigned, S32 signed, F32
 *  float). Sqrt is always single precision. */
template <Opcode OP, DataType DT>
inline uint32_t
lane32(uint32_t a, [[maybe_unused]] uint32_t b, [[maybe_unused]] uint32_t c)
{
    constexpr bool F = DT == DataType::F32;
    constexpr bool S = DT == DataType::S32;
    if constexpr (OP == Opcode::Add) {
        if constexpr (F)
            return arch::fp::inOrder<float>(a, b,
                                            fromF32(asF32(a) + asF32(b)));
        else
            return a + b;
    } else if constexpr (OP == Opcode::Sub) {
        if constexpr (F)
            return fromF32(asF32(a) - asF32(b));
        else
            return a - b;
    } else if constexpr (OP == Opcode::Mul) {
        if constexpr (F)
            return arch::fp::inOrder<float>(a, b,
                                            fromF32(asF32(a) * asF32(b)));
        else
            return a * b;
    } else if constexpr (OP == Opcode::MulHi) {
        return uint32_t((uint64_t(a) * uint64_t(b)) >> 32);
    } else if constexpr (OP == Opcode::Mad) {
        if constexpr (F) {
            uint32_t p = lane32<Opcode::Mul, DT>(a, b, 0);
            return lane32<Opcode::Add, DT>(p, c, 0);
        } else
            return a * b + c;
    } else if constexpr (OP == Opcode::Fma) {
        if constexpr (F)
            return arch::fp::inOrder3<float>(
                a, b, c, fromF32(std::fma(asF32(a), asF32(b), asF32(c))));
        else
            return a * b + c;
    } else if constexpr (OP == Opcode::Div) {
        if constexpr (F)
            return fromF32(asF32(a) / asF32(b));
        else if constexpr (S)
            return int32_t(b) == 0 ? 0
                 : int32_t(b) == -1 ? 0u - a
                 : uint32_t(int32_t(a) / int32_t(b));
        else
            return b == 0 ? 0 : a / b;
    } else if constexpr (OP == Opcode::Rem) {
        if constexpr (S)
            return int32_t(b) == 0 || int32_t(b) == -1
                ? 0 : uint32_t(int32_t(a) % int32_t(b));
        else
            return b == 0 ? 0 : a % b;
    } else if constexpr (OP == Opcode::Min) {
        if constexpr (F)
            return arch::fp::minMax<float>(
                a, b, fromF32(std::fmin(asF32(a), asF32(b))));
        else if constexpr (S)
            return uint32_t(std::min(int32_t(a), int32_t(b)));
        else
            return std::min(a, b);
    } else if constexpr (OP == Opcode::Max) {
        if constexpr (F)
            return arch::fp::minMax<float>(
                a, b, fromF32(std::fmax(asF32(a), asF32(b))));
        else if constexpr (S)
            return uint32_t(std::max(int32_t(a), int32_t(b)));
        else
            return std::max(a, b);
    } else if constexpr (OP == Opcode::Abs) {
        if constexpr (F)
            return fromF32(std::fabs(asF32(a)));
        else
            return int32_t(a) < 0 ? 0u - a : a;
    } else if constexpr (OP == Opcode::Neg) {
        if constexpr (F)
            return fromF32(-asF32(a));
        else
            return 0u - a;
    } else if constexpr (OP == Opcode::Sqrt) {
        return fromF32(std::sqrt(asF32(a)));
    } else if constexpr (OP == Opcode::And) {
        return a & b;
    } else if constexpr (OP == Opcode::Or) {
        return a | b;
    } else if constexpr (OP == Opcode::Xor) {
        return a ^ b;
    } else if constexpr (OP == Opcode::Not) {
        return ~a;
    } else if constexpr (OP == Opcode::Shl) {
        return a << (b & 31);
    } else if constexpr (OP == Opcode::Shr) {
        return a >> (b & 31);
    } else if constexpr (OP == Opcode::AShr) {
        return uint32_t(int32_t(a) >> (b & 31));
    } else if constexpr (OP == Opcode::Bfe) {
        unsigned off = b & 31;
        unsigned width = c & 31;
        uint32_t mask = width == 0 ? 0xffffffffu : ((1u << width) - 1);
        return (a >> off) & mask;
    } else if constexpr (OP == Opcode::CMov) {
        return a ? b : c;
    } else {
        static_assert(OP == Opcode::Mov, "no lane kernel for opcode");
        return a;
    }
}

template <typename T>
inline bool
docmp(CmpOp c, T x, T y)
{
    switch (c) {
      case CmpOp::Eq: return x == y;
      case CmpOp::Ne: return x != y;
      case CmpOp::Lt: return x < y;
      case CmpOp::Le: return x <= y;
      case CmpOp::Gt: return x > y;
      case CmpOp::Ge: return x >= y;
    }
    return false;
}

/** One lane of a compare of type `t` on register values (32-bit types
 *  zero-extended). B32/U32/U64 compare unsigned. */
inline bool
laneCmp(CmpOp c, DataType t, uint64_t a, uint64_t b)
{
    switch (t) {
      case DataType::F32:
        return docmp(c, asF32(uint32_t(a)), asF32(uint32_t(b)));
      case DataType::F64: return docmp(c, asF64(a), asF64(b));
      case DataType::S32: return docmp(c, int32_t(a), int32_t(b));
      default: return docmp(c, a, b);
    }
}

template <CmpOp C, DataType DT>
inline uint32_t
laneCmp32(uint32_t a, uint32_t b)
{
    return laneCmp(C, DT, a, b) ? 1u : 0u;
}

/**
 * A table indexed by opcode, for the handlers' per-opcode dispatch:
 * entry i is Pick::of<Opcode(i)>() where the IL descriptor table says
 * lane32 defines opcode i, and nullptr elsewhere (no kernel is
 * instantiated for those).
 */
template <typename Pick, Opcode OP>
constexpr auto
lane32Entry() -> decltype(Pick::template of<Opcode::Mov>())
{
    if constexpr (desc(OP).lane32)
        return Pick::template of<OP>();
    else
        return nullptr;
}

template <typename Pick, size_t... I>
constexpr auto
lane32Table(std::index_sequence<I...>)
{
    return std::array{lane32Entry<Pick, Opcode(I)>()...};
}

template <typename Pick>
constexpr auto
lane32Table()
{
    return lane32Table<Pick>(std::make_index_sequence<kNumOpcodes>{});
}

/**
 * Write lane32<OP, DT> of the source registers `src` into `dst` for the
 * lanes of `mask`: a plain 0..63 loop the compiler can vectorize when
 * every lane is live, ctz over the mask otherwise (ascending lane order
 * either way). Every register the opcode reads must be present.
 */
template <Opcode OP, DataType DT>
inline void
aluRows(uint64_t mask, arch::WfState &wf, Reg dst, const Reg (&src)[3])
{
    constexpr unsigned N = desc(OP).arity;
    uint32_t *d = wf.vregs[dst.idx].data();
    const uint32_t *a = wf.vregs[src[0].idx].data();
    const uint32_t *b = N >= 2 ? wf.vregs[src[1].idx].data() : a;
    const uint32_t *c = N >= 3 ? wf.vregs[src[2].idx].data() : a;
    if (mask == ~0ull) {
        for (unsigned l = 0; l < WavefrontSize; ++l)
            d[l] = lane32<OP, DT>(a[l], b[l], c[l]);
    } else {
        for (uint64_t rest = mask; rest; rest &= rest - 1) {
            unsigned l = unsigned(std::countr_zero(rest));
            d[l] = lane32<OP, DT>(a[l], b[l], c[l]);
        }
    }
}

/**
 * One lane of any IL ALU opcode: the operand fields of an HSAIL
 * instruction (or a PTXL ALU instruction's semantics). A missing source
 * reads 0 (PTXL's RZ). Returns the value to write, 64 bits wide for
 * U64/F64 destinations and zero-extended otherwise; Cmp returns 0/1.
 */
uint64_t laneAlu(Opcode op, DataType t, DataType src_t, CmpOp cmp,
                 const Reg (&src)[3], uint64_t imm, const arch::WfState &wf,
                 unsigned lane);

} // namespace last::hsail

#endif // LAST_HSAIL_LANE_OPS_HH
