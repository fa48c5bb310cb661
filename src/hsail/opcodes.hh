/**
 * @file
 * The HSAIL-like intermediate language: opcodes, data types, segments.
 *
 * Deliberate abstraction properties (matching the paper's HSAIL):
 *  - SIMT: every instruction defines the behaviour of ONE work-item.
 *  - No scalar instructions, no exec mask, no waitcnt.
 *  - Register-allocated flat vector register space (up to 2,048/WF).
 *  - Segment-qualified memory ops with implicit base addresses.
 *  - One-instruction `div`, `workitemabsid`, etc.
 */

#ifndef LAST_HSAIL_OPCODES_HH
#define LAST_HSAIL_OPCODES_HH

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "arch/instruction.hh"

namespace last::hsail
{

/** What an IL opcode is, as its descriptor row classifies it. */
enum class IlClass : uint8_t
{
    Alu,      ///< vector ALU: arithmetic, bitwise, compare, move, cvt
    Memory,   ///< segment-qualified load/store/atomic
    Branch,   ///< br / cbr
    Special,  ///< barrier / ret / nop: no functional unit
    Dispatch, ///< dispatch intrinsic (workitemabsid, gridsize, ...)
};

/**
 * The IL opcode descriptor table (shared by PTXL, whose ALU
 * instructions carry an IL opcode as their semantics), one row per
 * opcode: every static property of an IL opcode is a read of its row.
 *   X(opcode, name, arity, trans, lane32, class)
 *  - arity: register sources the opcode reads;
 *  - trans: transcendental (IsTrans: a longer result latency);
 *  - lane32: hsail/lane_ops.hh's lane32 defines its 32-bit lane, so
 *    the handlers have an active-lane kernel for it.
 */
#define LAST_IL_OPCODES(X)                                                   \
    /* Arithmetic (vector ALU). */                                           \
    X(Add, "add", 2, 0, 1, Alu)                                              \
    X(Sub, "sub", 2, 0, 1, Alu)                                              \
    X(Mul, "mul", 2, 0, 1, Alu)                                              \
    X(MulHi, "mulhi", 2, 0, 1, Alu)                                          \
    X(Mad, "mad", 3, 0, 1, Alu)                                              \
    X(Div, "div", 2, 1, 1, Alu)                                              \
    X(Rem, "rem", 2, 1, 1, Alu)                                              \
    X(Min, "min", 2, 0, 1, Alu)                                              \
    X(Max, "max", 2, 0, 1, Alu)                                              \
    X(Abs, "abs", 1, 0, 1, Alu)                                              \
    X(Neg, "neg", 1, 0, 1, Alu)                                              \
    X(Fma, "fma", 3, 0, 1, Alu)                                              \
    X(Sqrt, "sqrt", 1, 1, 1, Alu)                                            \
    /* Bitwise / shifts. */                                                  \
    X(And, "and", 2, 0, 1, Alu)                                              \
    X(Or, "or", 2, 0, 1, Alu)                                                \
    X(Xor, "xor", 2, 0, 1, Alu)                                              \
    X(Not, "not", 1, 0, 1, Alu)                                              \
    X(Shl, "shl", 2, 0, 1, Alu)                                              \
    X(Shr, "shr", 2, 0, 1, Alu)                                              \
    X(AShr, "ashr", 2, 0, 1, Alu)                                            \
    X(Bfe, "bitextract", 3, 0, 1, Alu)                                       \
    /* Compare / select. */                                                  \
    X(Cmp, "cmp", 2, 0, 0, Alu) /* dst = (src0 OP src1) ? 1 : 0 */           \
    X(CMov, "cmov", 3, 0, 1, Alu) /* dst = src0 ? src1 : src2 */             \
    /* Moves and conversion. */                                              \
    X(Mov, "mov", 1, 0, 1, Alu)                                              \
    X(MovImm, "movimm", 0, 0, 0, Alu)                                        \
    X(Cvt, "cvt", 1, 0, 0, Alu)                                              \
    /* Memory. */                                                            \
    X(Ld, "ld", 1, 0, 0, Memory)                                             \
    X(St, "st", 2, 0, 0, Memory)                                             \
    X(AtomicAdd, "atomic_add", 2, 0, 0, Memory)                              \
    /* Control flow. */                                                      \
    X(Br, "br", 0, 0, 0, Branch)                                             \
    X(CBr, "cbr", 1, 0, 0, Branch)                                           \
    X(Barrier, "barrier", 0, 0, 0, Special)                                  \
    X(Ret, "ret", 0, 0, 0, Special)                                          \
    /* Dispatch intrinsics (single-instruction ABI of the IL). */            \
    X(WorkItemAbsId, "workitemabsid", 0, 0, 0, Dispatch)                     \
    X(WorkItemId, "workitemid", 0, 0, 0, Dispatch)                           \
    X(WorkGroupId, "workgroupid", 0, 0, 0, Dispatch)                         \
    X(WorkGroupSize, "workgroupsize", 0, 0, 0, Dispatch)                     \
    X(GridSize, "gridsize", 0, 0, 0, Dispatch)                               \
    /* Misc. */                                                              \
    X(Nop, "nop", 0, 0, 0, Special)

enum class Opcode : uint8_t
{
#define LAST_X(op, ...) op,
    LAST_IL_OPCODES(LAST_X)
#undef LAST_X
};

enum class DataType : uint8_t
{
    B32, ///< untyped 32-bit
    U32,
    S32,
    F32,
    U64, ///< pair of 32-bit registers
    F64, ///< pair of 32-bit registers
};

enum class Segment : uint8_t
{
    Global,
    Readonly,
    Kernarg,
    Group,   ///< LDS
    Private,
    Spill,
    Arg,
};

enum class CmpOp : uint8_t
{
    Eq, Ne, Lt, Le, Gt, Ge,
};

const char *typeName(DataType t);
const char *segmentName(Segment s);
const char *cmpOpName(CmpOp c);

/** Registers a value of this type occupies (1 or 2). */
constexpr unsigned
typeRegs(DataType t)
{
    return (t == DataType::U64 || t == DataType::F64) ? 2 : 1;
}

/** Bytes a memory access of this type moves per work-item. */
constexpr unsigned
typeBytes(DataType t)
{
    return typeRegs(t) * 4;
}

/** One row of the IL descriptor table (columns as in LAST_IL_OPCODES). */
struct OpDesc
{
    Opcode op;
    const char *name;
    uint8_t arity;
    bool trans;
    bool lane32;
    IlClass cls;
};

inline constexpr OpDesc kOpDescs[] = {
#define LAST_X(op, name, ar, tr, l32, cls)                                   \
    {Opcode::op, name, ar, tr != 0, l32 != 0, IlClass::cls},
    LAST_IL_OPCODES(LAST_X)
#undef LAST_X
};

inline constexpr size_t kNumOpcodes = 0
#define LAST_X(...) +1
    LAST_IL_OPCODES(LAST_X)
#undef LAST_X
    ;

/** Row i names opcode i, and every opcode has a row. */
static_assert(std::size(kOpDescs) == kNumOpcodes);
static_assert(arch::rowsInOpcodeOrder(kOpDescs));

constexpr const OpDesc &
desc(Opcode op)
{
    return kOpDescs[size_t(op)];
}

constexpr const char *opcodeName(Opcode op) { return desc(op).name; }

/** The flags an ALU instruction of opcode `op` and type `t` carries,
 *  in HSAIL and in PTXL alike: IsF64 for a 64-bit type, IsTrans for a
 *  transcendental opcode. */
constexpr uint32_t
aluFlags(Opcode op, DataType t)
{
    return (typeRegs(t) == 2 ? arch::IsF64 : 0u) |
           (desc(op).trans ? arch::IsTrans : 0u);
}

} // namespace last::hsail

#endif // LAST_HSAIL_OPCODES_HH
