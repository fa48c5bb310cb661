/**
 * @file
 * The GCN3-like machine ISA: opcode and encoding-format definitions.
 *
 * Deliberate abstraction properties (matching the paper's GCN3):
 *  - Vector ISA: the 64-lane execution mask (EXEC) is architectural and
 *    manipulated by scalar instructions.
 *  - A scalar pipeline with its own register file, ALU, and memory path.
 *  - Software dependency management: s_waitcnt / s_nop, no scoreboard.
 *  - Variable-length hardware encodings: 32 b, 64 b, or +32 b literal.
 *  - FP division is a multi-instruction Newton-Raphson sequence.
 */

#ifndef LAST_GCN3_OPCODES_HH
#define LAST_GCN3_OPCODES_HH

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "arch/instruction.hh"

namespace last::gcn3
{

/** Encoding formats; determine base encoded size. */
enum class Format : uint8_t
{
    SOP1,  ///< 32 b scalar 1-src
    SOP2,  ///< 32 b scalar 2-src
    SOPC,  ///< 32 b scalar compare
    SOPK,  ///< 32 b scalar + 16-bit constant
    SOPP,  ///< 32 b program control (branch, waitcnt, barrier, ...)
    SMEM,  ///< 64 b scalar memory
    VOP1,  ///< 32 b vector 1-src
    VOP2,  ///< 32 b vector 2-src
    VOPC,  ///< 32 b vector compare (writes VCC)
    VOP3,  ///< 64 b vector 3-src / extended
    FLAT,  ///< 64 b flat memory
    DS,    ///< 64 b LDS
};

/** Base encoded bytes for a format (a used literal adds 4). */
constexpr unsigned
formatBytes(Format f)
{
    switch (f) {
      case Format::SMEM:
      case Format::VOP3:
      case Format::FLAT:
      case Format::DS:
        return 8;
      default:
        return 4;
    }
}

/** The execution handler family of an opcode (src/gcn3/exec.cc). */
enum class Family : uint8_t
{
    Salu,     ///< Gcn3Inst::executeSalu
    Sopp,     ///< Gcn3Inst::executeSopp
    Smem,     ///< s_load into consecutive SGPRs
    ValuLane, ///< 32-bit VALU: the lane kernel laneV<op>
    Carry,    ///< 32-bit add/sub writing a per-lane carry into VCC
    VcmpLane, ///< 32-bit V_CMP: the lane kernel laneCmp<op>
    ValuCold, ///< Gcn3Inst::executeValu (F64 ops, F64 conversions,
              ///< V_DIV_SCALE)
    VcmpCold, ///< Gcn3Inst::executeVcmp (F64 compares)
    Flat,     ///< flat_* per-lane 64-bit addresses
    Ds,       ///< ds_* LDS offsets
};

/** @{ Implicit register operands (the table's `implicit` column). */
constexpr uint8_t VccR = 1;   ///< reads VCC
constexpr uint8_t VccW = 2;   ///< writes VCC
constexpr uint8_t ExecR = 4;  ///< reads EXEC
constexpr uint8_t ExecW = 8;  ///< writes EXEC
constexpr uint8_t DstR = 16;  ///< reads its VGPR destination (V_MAC_F32)
constexpr uint8_t VccRW = VccR | VccW;
constexpr uint8_t ExecRW = ExecR | ExecW;
/** @} */

/**
 * The opcode descriptor table, one row per opcode: every static
 * property of an opcode is a read of its row.
 *   X(opcode, format, FuType, flags, dst width, wide-source mask,
 *     implicit operands, lane arity, handler family)
 *  - flags: the InstFlags (arch::opflags shorthands) an instruction
 *    of this opcode carries;
 *  - dst width: 32-bit registers the destination occupies;
 *  - wide-source mask: bit i set when source i is 64-bit (a register
 *    pair);
 *  - implicit operands: VCC/EXEC (and V_MAC_F32's destination) reads
 *    and writes, listed after the explicit operands, reads first;
 *  - lane arity: sources a vector ALU or compare op reads (0 for the
 *    others).
 * Adding an opcode is one row here plus, for a lane family, its lane
 * expression in exec.cc.
 */
#define LAST_GCN3_OPCODES(X)                                                 \
    /* --- scalar ALU ------------------------------------------------ */    \
    X(S_MOV_B32, SOP1, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_MOV_B64, SOP1, SAlu, Sc, 2, 0b111, 0, 0, Salu)                       \
    X(S_NOT_B32, SOP1, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_AND_SAVEEXEC_B64, SOP1, SAlu, Sc, 2, 0b111, ExecRW, 0, Salu)         \
    X(S_OR_SAVEEXEC_B64, SOP1, SAlu, Sc, 2, 0b111, ExecRW, 0, Salu)          \
    X(S_ADD_U32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_ADDC_U32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                          \
    X(S_SUB_U32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_MUL_I32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_LSHL_B32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                          \
    X(S_LSHR_B32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                          \
    X(S_ASHR_I32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                          \
    X(S_MIN_U32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_MAX_U32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_AND_B32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_OR_B32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                            \
    X(S_XOR_B32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_BFE_U32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                           \
    X(S_AND_B64, SOP2, SAlu, Sc, 2, 0b111, 0, 0, Salu)                       \
    X(S_OR_B64, SOP2, SAlu, Sc, 2, 0b111, 0, 0, Salu)                        \
    X(S_XOR_B64, SOP2, SAlu, Sc, 2, 0b111, 0, 0, Salu)                       \
    X(S_ANDN2_B64, SOP2, SAlu, Sc, 2, 0b111, 0, 0, Salu)                     \
    X(S_CSELECT_B32, SOP2, SAlu, Sc, 1, 0, 0, 0, Salu)                       \
    /* --- scalar compare (writes SCC) ------------------------------- */    \
    X(S_CMP_EQ_U32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_LG_U32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_LT_U32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_LE_U32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_GT_U32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_GE_U32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_EQ_I32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_LG_I32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_LT_I32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_LE_I32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_GT_I32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    X(S_CMP_GE_I32, SOPC, SAlu, Sc, 1, 0, 0, 0, Salu)                        \
    /* --- SOPK ------------------------------------------------------ */    \
    X(S_MOVK_I32, SOPK, SAlu, Sc, 1, 0, 0, 0, Salu)                          \
    X(S_ADDK_I32, SOPK, SAlu, Sc, 1, 0, 0, 0, Salu)                          \
    X(S_MULK_I32, SOPK, SAlu, Sc, 1, 0, 0, 0, Salu)                          \
    X(S_CMPK_EQ_U32, SOPK, SAlu, Sc, 1, 0, 0, 0, Salu)                       \
    X(S_CMPK_LT_U32, SOPK, SAlu, Sc, 1, 0, 0, 0, Salu)                       \
    /* --- program control ------------------------------------------- */    \
    X(S_NOP, SOPP, Special, Sc|Nop, 1, 0, 0, 0, Sopp)                        \
    X(S_ENDPGM, SOPP, Special, Sc|End, 1, 0, 0, 0, Sopp)                     \
    X(S_BRANCH, SOPP, Branch, Sc|Br, 1, 0, 0, 0, Sopp)                       \
    X(S_CBRANCH_SCC0, SOPP, Branch, Sc|Br, 1, 0, 0, 0, Sopp)                 \
    X(S_CBRANCH_SCC1, SOPP, Branch, Sc|Br, 1, 0, 0, 0, Sopp)                 \
    X(S_CBRANCH_VCCZ, SOPP, Branch, Sc|Br, 1, 0, VccR, 0, Sopp)              \
    X(S_CBRANCH_VCCNZ, SOPP, Branch, Sc|Br, 1, 0, VccR, 0, Sopp)             \
    X(S_CBRANCH_EXECZ, SOPP, Branch, Sc|Br, 1, 0, ExecR, 0, Sopp)            \
    X(S_CBRANCH_EXECNZ, SOPP, Branch, Sc|Br, 1, 0, ExecR, 0, Sopp)           \
    X(S_BARRIER, SOPP, Special, Sc|Bar, 1, 0, 0, 0, Sopp)                    \
    X(S_WAITCNT, SOPP, Special, Sc|Wait, 1, 0, 0, 0, Sopp)                   \
    /* --- scalar memory (src0: the sbase pair) ---------------------- */    \
    X(S_LOAD_DWORD, SMEM, SMem, Sc|Ld, 1, 0b001, 0, 0, Smem)                 \
    X(S_LOAD_DWORDX2, SMEM, SMem, Sc|Ld, 2, 0b001, 0, 0, Smem)               \
    X(S_LOAD_DWORDX4, SMEM, SMem, Sc|Ld, 4, 0b001, 0, 0, Smem)               \
    /* --- vector ALU ------------------------------------------------ */    \
    X(V_MOV_B32, VOP1, VAlu, 0, 1, 0, 0, 1, ValuLane)                        \
    X(V_NOT_B32, VOP1, VAlu, 0, 1, 0, 0, 1, ValuLane)                        \
    X(V_RCP_F32, VOP1, VAlu, Tr, 1, 0, 0, 1, ValuLane)                       \
    X(V_RCP_F64, VOP1, VAlu, Tr|F64, 2, 0b111, 0, 1, ValuCold)               \
    X(V_SQRT_F32, VOP1, VAlu, Tr, 1, 0, 0, 1, ValuLane)                      \
    X(V_SQRT_F64, VOP1, VAlu, Tr|F64, 2, 0b111, 0, 1, ValuCold)              \
    X(V_CVT_F32_U32, VOP1, VAlu, 0, 1, 0, 0, 1, ValuLane)                    \
    X(V_CVT_F32_I32, VOP1, VAlu, 0, 1, 0, 0, 1, ValuLane)                    \
    X(V_CVT_U32_F32, VOP1, VAlu, 0, 1, 0, 0, 1, ValuLane)                    \
    X(V_CVT_I32_F32, VOP1, VAlu, 0, 1, 0, 0, 1, ValuLane)                    \
    X(V_CVT_F64_F32, VOP1, VAlu, F64, 2, 0, 0, 1, ValuCold)                  \
    X(V_CVT_F32_F64, VOP1, VAlu, F64, 1, 0b111, 0, 1, ValuCold)              \
    X(V_CVT_F64_U32, VOP1, VAlu, F64, 2, 0, 0, 1, ValuCold)                  \
    X(V_CVT_U32_F64, VOP1, VAlu, F64, 1, 0b111, 0, 1, ValuCold)              \
    X(V_ADD_U32, VOP2, VAlu, 0, 1, 0, VccW, 2, Carry)                        \
    X(V_ADDC_U32, VOP2, VAlu, 0, 1, 0, VccRW, 2, Carry)                      \
    X(V_SUB_U32, VOP2, VAlu, 0, 1, 0, VccW, 2, Carry)                        \
    X(V_SUBB_U32, VOP2, VAlu, 0, 1, 0, VccRW, 2, Carry)                      \
    X(V_MUL_LO_U32, VOP3, VAlu, 0, 1, 0, 0, 2, ValuLane)                     \
    X(V_MUL_HI_U32, VOP3, VAlu, 0, 1, 0, 0, 2, ValuLane)                     \
    X(V_ADD_F32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_SUB_F32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_MUL_F32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_MAC_F32, VOP2, VAlu, 0, 1, 0, DstR, 2, ValuLane)                     \
    X(V_MIN_F32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_MAX_F32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_MIN_U32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_MAX_U32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_MIN_I32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_MAX_I32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_AND_B32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_OR_B32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                         \
    X(V_XOR_B32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                        \
    X(V_LSHLREV_B32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                    \
    X(V_LSHRREV_B32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                    \
    X(V_ASHRREV_I32, VOP2, VAlu, 0, 1, 0, 0, 2, ValuLane)                    \
    X(V_CNDMASK_B32, VOP2, VAlu, CMov, 1, 0, VccR, 2, ValuLane)              \
    X(V_MAD_F32, VOP3, VAlu, 0, 1, 0, 0, 3, ValuLane)                        \
    X(V_FMA_F32, VOP3, VAlu, 0, 1, 0, 0, 3, ValuLane)                        \
    X(V_MAD_U32_U24, VOP3, VAlu, 0, 1, 0, 0, 3, ValuLane)                    \
    X(V_BFE_U32, VOP3, VAlu, 0, 1, 0, 0, 3, ValuLane)                        \
    X(V_ADD_F64, VOP3, VAlu, F64, 2, 0b111, 0, 2, ValuCold)                  \
    X(V_MUL_F64, VOP3, VAlu, F64, 2, 0b111, 0, 2, ValuCold)                  \
    X(V_FMA_F64, VOP3, VAlu, F64, 2, 0b111, 0, 3, ValuCold)                  \
    X(V_MIN_F64, VOP3, VAlu, F64, 2, 0b111, 0, 2, ValuCold)                  \
    X(V_MAX_F64, VOP3, VAlu, F64, 2, 0b111, 0, 2, ValuCold)                  \
    X(V_DIV_SCALE_F32, VOP3, VAlu, 0, 1, 0, VccW, 3, ValuCold)               \
    X(V_DIV_SCALE_F64, VOP3, VAlu, F64, 2, 0b111, VccW, 3, ValuCold)         \
    X(V_DIV_FMAS_F32, VOP3, VAlu, 0, 1, 0, VccR, 3, ValuLane)                \
    X(V_DIV_FMAS_F64, VOP3, VAlu, F64, 2, 0b111, VccR, 3, ValuCold)          \
    X(V_DIV_FIXUP_F32, VOP3, VAlu, 0, 1, 0, 0, 3, ValuLane)                  \
    X(V_DIV_FIXUP_F64, VOP3, VAlu, F64, 2, 0b111, 0, 3, ValuCold)            \
    /* --- vector compare (writes VCC) ------------------------------- */    \
    X(V_CMP_EQ_U32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_NE_U32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_LT_U32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_LE_U32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_GT_U32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_GE_U32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_EQ_I32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_NE_I32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_LT_I32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_LE_I32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_GT_I32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_GE_I32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_EQ_F32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_NE_F32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_LT_F32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_LE_F32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_GT_F32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_GE_F32, VOPC, VAlu, 0, 1, 0, VccW, 2, VcmpLane)                  \
    X(V_CMP_EQ_F64, VOPC, VAlu, F64, 1, 0b111, VccW, 2, VcmpCold)            \
    X(V_CMP_NE_F64, VOPC, VAlu, F64, 1, 0b111, VccW, 2, VcmpCold)            \
    X(V_CMP_LT_F64, VOPC, VAlu, F64, 1, 0b111, VccW, 2, VcmpCold)            \
    X(V_CMP_LE_F64, VOPC, VAlu, F64, 1, 0b111, VccW, 2, VcmpCold)            \
    X(V_CMP_GT_F64, VOPC, VAlu, F64, 1, 0b111, VccW, 2, VcmpCold)            \
    X(V_CMP_GE_F64, VOPC, VAlu, F64, 1, 0b111, VccW, 2, VcmpCold)            \
    /* --- flat memory (src0: the 64-bit address pair) --------------- */    \
    X(FLAT_LOAD_DWORD, FLAT, VMem, Ld, 1, 0b001, 0, 0, Flat)                 \
    X(FLAT_LOAD_DWORDX2, FLAT, VMem, Ld, 2, 0b001, 0, 0, Flat)               \
    X(FLAT_STORE_DWORD, FLAT, VMem, St, 1, 0b001, 0, 0, Flat)                \
    X(FLAT_STORE_DWORDX2, FLAT, VMem, St, 1, 0b111, 0, 0, Flat)              \
    X(FLAT_ATOMIC_ADD, FLAT, VMem, Atom, 1, 0b001, 0, 0, Flat)               \
    /* --- LDS ------------------------------------------------------- */    \
    X(DS_READ_B32, DS, Lds, Ld, 1, 0, 0, 0, Ds)                              \
    X(DS_WRITE_B32, DS, Lds, St, 1, 0, 0, 0, Ds)                             \
    X(DS_READ_B64, DS, Lds, Ld, 2, 0, 0, 0, Ds)                              \
    X(DS_WRITE_B64, DS, Lds, St, 1, 0b010, 0, 0, Ds)

enum class Gcn3Op : uint16_t
{
#define LAST_X(name, ...) name,
    LAST_GCN3_OPCODES(LAST_X)
#undef LAST_X
    NumOpcodes,
};

/** One row of the descriptor table (columns as in LAST_GCN3_OPCODES). */
struct OpDesc
{
    Gcn3Op op;
    const char *name;
    Format format;
    arch::FuType fu;
    uint32_t flags;
    uint8_t dstWidth;
    uint8_t wide;
    uint8_t implicit;
    uint8_t arity;
    Family family;

    /** 32-bit registers source `i` occupies. */
    constexpr unsigned srcWidth(unsigned i) const
    {
        return (wide >> i) & 1 ? 2 : 1;
    }
};

/** The rows; a row's flags are spelled in arch::opflags shorthands, which
 *  the lambda brings into scope. */
inline constexpr OpDesc kOpDescs[] = {
#define LAST_X(name, fmt, fu, fl, dw, wide, imp, ar, fam)                    \
    {Gcn3Op::name, #name, Format::fmt, arch::FuType::fu,                     \
     [] { using namespace arch::opflags; return uint32_t(fl); }(), dw,       \
     wide, imp, ar, Family::fam},
    LAST_GCN3_OPCODES(LAST_X)
#undef LAST_X
};

/** Row i names opcode i, and every opcode has a row. */
static_assert(std::size(kOpDescs) == size_t(Gcn3Op::NumOpcodes));
static_assert(arch::rowsInOpcodeOrder(kOpDescs));

constexpr const OpDesc &
desc(Gcn3Op op)
{
    return kOpDescs[size_t(op)];
}

constexpr const char *opName(Gcn3Op op) { return desc(op).name; }
constexpr Format opFormat(Gcn3Op op) { return desc(op).format; }

} // namespace last::gcn3

#endif // LAST_GCN3_OPCODES_HH
