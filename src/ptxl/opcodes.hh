/**
 * @file
 * PTXL: the NVIDIA-flavored machine ISA.
 *
 * The opcode set is a SASS-like machine level ("Analyzing Modern
 * NVIDIA GPU cores", PAPERS.md): a single flat general register file
 * (no scalar pipeline), an 8-entry predicate file, compiler-inserted
 * convergence barriers (BSSY/BSYNC) instead of a simulator
 * reconvergence stack, predicated branches that park divergent lanes
 * on a hardware warp-split stack, and a fixed 16-byte (Volta-style
 * 128-bit) encoding. Dependencies are covered by a fixed-latency
 * hardware scoreboard — there is no s_waitcnt/s_nop-style software
 * dependency management anywhere in the instruction stream.
 *
 * ALU value semantics are carried by the vendor-neutral IL opcode
 * (hsail::Opcode) so the three ISAs agree functionally by
 * construction; everything the abstraction study measures — encoding
 * footprint, convergence management, dependency handling, pipeline
 * structure — differs at the machine level.
 */

#ifndef LAST_PTXL_OPCODES_HH
#define LAST_PTXL_OPCODES_HH

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "arch/instruction.hh"
#include "hsail/opcodes.hh"

namespace last::ptxl
{

/**
 * The machine-level operation table, one row per operation: every
 * static property of a PTXL operation is a read of its row.
 *   X(op, name, FuType, flags, address registers)
 *  - flags: the InstFlags (arch::opflags shorthands) an instruction
 *    of this operation carries; an ALU op adds hsail::aluFlags of its
 *    semantics;
 *  - address registers: width of a memory op's address operand, a
 *    64-bit pair for global addressing and a 32-bit offset for
 *    shared/local (0: not a memory op).
 */
#define LAST_PTXL_OPS(X)                                                     \
    X(Alu, "alu", VAlu, 0, 0)            /* FADD/IMAD/...: IL semantic */    \
    X(Isetp, "ISETP", VAlu, 0, 0)        /* compare into a predicate */      \
    X(Sel, "SEL", VAlu, CMov, 0)         /* dst = P ? src0 : src1 */         \
    X(P2r, "P2R", VAlu, 0, 0)            /* dst = P ? 1 : 0 */               \
    X(S2r, "S2R", VAlu, 0, 0)            /* special-register read */         \
    X(Ldg, "LDG", VMem, Ld, 2)           /* global load */                   \
    X(Stg, "STG", VMem, St, 2)           /* global store */                  \
    X(Atom, "ATOM.ADD", VMem, Atom, 2)   /* returns the old value */         \
    X(Lds, "LDS", Lds, Ld, 1)            /* shared-memory load */            \
    X(Sts, "STS", Lds, St, 1)            /* shared-memory store */           \
    X(Ldl, "LDL", VMem, Ld, 1)           /* local: per-thread address */     \
    X(Stl, "STL", VMem, St, 1)           /* local store */                   \
    X(Ldc, "LDC", SMem, Ld, 1)           /* kernel parameter */              \
    X(Bra, "BRA", Branch, Br, 0)         /* optionally predicated */         \
    X(Bssy, "BSSY", Branch, 0, 0)        /* convergence barrier set */       \
    X(Bsync, "BSYNC", Branch, Br, 0)     /* may resume a parked split */     \
    X(Bar, "BAR.SYNC", Special, Bar, 0)  /* workgroup barrier */             \
    X(Exit, "EXIT", Special, End, 0)                                         \
    X(Nop, "NOP", Special, Nop, 0)

/** Machine-level operation classes. */
enum class PtxlOp
{
#define LAST_X(op, ...) op,
    LAST_PTXL_OPS(LAST_X)
#undef LAST_X
};

/** One row of the operation table (columns as in LAST_PTXL_OPS). */
struct OpDesc
{
    PtxlOp op;
    const char *name;
    arch::FuType fu;
    uint32_t flags;
    uint8_t addrRegs;

    /** A store proper (an atomic also reads). */
    constexpr bool
    isStore() const
    {
        return (flags & arch::IsStore) && !(flags & arch::IsAtomic);
    }
};

/** The rows; a row's flags are spelled in arch::opflags shorthands, which
 *  the lambda brings into scope. */
inline constexpr OpDesc kOpDescs[] = {
#define LAST_X(op, name, fu, fl, aw)                                         \
    {PtxlOp::op, name, arch::FuType::fu,                                     \
     [] { using namespace arch::opflags; return uint32_t(fl); }(), aw},
    LAST_PTXL_OPS(LAST_X)
#undef LAST_X
};

inline constexpr size_t kNumOps = 0
#define LAST_X(...) +1
    LAST_PTXL_OPS(LAST_X)
#undef LAST_X
    ;

/** Row i names operation i, and every operation has a row. */
static_assert(std::size(kOpDescs) == kNumOps);
static_assert(arch::rowsInOpcodeOrder(kOpDescs));

constexpr const OpDesc &
desc(PtxlOp op)
{
    return kOpDescs[size_t(op)];
}

constexpr const char *ptxlOpName(PtxlOp op) { return desc(op).name; }

} // namespace last::ptxl

#endif // LAST_PTXL_OPCODES_HH
