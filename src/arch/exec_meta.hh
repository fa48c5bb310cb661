/**
 * @file
 * Predecoded execution metadata: the execution engine's view of one
 * static instruction.
 *
 * Predecode runs once per static instruction (lazily, at first use of
 * a sealed kernel; see KernelCode::execMetas) and flattens everything
 * the issue and execute stages need into this POD record, so the hot
 * path makes no virtual call and walks no std::vector:
 *
 *  - `handler`: a flat function pointer resolved from the opcode, so
 *    dispatch is one indirect call with no switch chain. Each ISA
 *    picks it in its predecode() (src/{hsail,gcn3,ptxl}/exec.cc), and
 *    the handler *is* the instruction's semantics: there is no other
 *    execution path. Handlers for the hot op classes iterate active
 *    lanes ctz-style with branchless, vectorizable lane kernels.
 *    tests/golden/exec_vectors.txt pins every opcode's post-state.
 *  - flags/fu/size/latClass: the virtual metadata, pre-flattened.
 *  - `ops`: the RegOperand list copied into a fixed array (same
 *    order), for the hazard probe / scoreboard / bank-conflict walks.
 *  - vecRd/vecWr: the vector operand registers width-expanded in
 *    operand order — exactly the sequence probeVectorOperands used to
 *    derive from regOps() per dynamic instruction. Order matters: the
 *    reuse-distance probe is order-dependent within an instruction.
 *  - c0/c1/imm: predigested ISA constants (s_waitcnt thresholds,
 *    s_nop wait states) so the CU never downcasts mid-issue.
 *
 * The record keeps a pointer to the Instruction: the handlers read
 * operand fields and cold fields (branch targets, reconvergence
 * offsets, disassembly) from it.
 */

#ifndef LAST_ARCH_EXEC_META_HH
#define LAST_ARCH_EXEC_META_HH

#include <cstdint>

#include "arch/instruction.hh"
#include "common/config.hh"

namespace last::arch
{

struct WfState;
struct ExecMeta;

/** Execution handler: functionally execute `m.inst` for all active
 *  lanes of `wf`; set wf.nextPc and, for memory ops, build the
 *  MemAccess in wf.pendingAccess. */
using ExecHandler = void (*)(const ExecMeta &m, WfState &wf);

/** Latency class, resolved to cycles against a GpuConfig at issue
 *  time (the config's latency knobs are sweep parameters, so cycles
 *  cannot be baked in at predecode). KernelCode::buildMetas maps
 *  FuType and the IsF64/IsTrans flags to it. */
enum class LatClass : uint8_t
{
    VAlu,    ///< cfg.valuLatency
    VAluF64, ///< cfg.valuLatencyF64 (F64 or transcendental)
    SAlu,    ///< cfg.saluLatency
    Branch,  ///< cfg.branchLatency
    Lds,     ///< cfg.ldsLatency
    Mem,     ///< 0: timing comes from the memory system
    Special, ///< 1
};

struct ExecMeta
{
    /** Bounds for the fixed operand arrays. The widest real cases:
     *  V_ADDC_U32 carries 5 RegOperands (dst + 2 srcs + implicit VCC
     *  use and def); an HSAIL f64 ALU op touches 8 expanded vector
     *  registers (2-wide dst + three 2-wide sources). predecode
     *  panics if a new instruction ever exceeds these. */
    static constexpr unsigned MaxOps = 8;
    static constexpr unsigned MaxVecRd = 8;
    static constexpr unsigned MaxVecWr = 4;

    ExecHandler handler = nullptr;
    const Instruction *inst = nullptr;

    uint32_t flags = 0;             ///< InstFlags, pre-flattened
    FuType fu = FuType::Special;
    LatClass latClass = LatClass::Special;
    uint8_t size = 0;               ///< encoded bytes (4..12)

    /** regOps(), copied in order. */
    uint8_t numOps = 0;
    RegOperand ops[MaxOps];

    /** Vector operand registers, width-expanded, in operand order
     *  (reads: isDef == false; writes: isDef == true). Duplicates are
     *  preserved — V_MAC_F32 legitimately lists its dst both ways. */
    uint8_t numVecRd = 0;
    uint8_t numVecWr = 0;
    uint16_t vecRd[MaxVecRd];
    uint16_t vecWr[MaxVecWr];

    /** @{ Predigested ISA constants. GCN3: c0/c1 are the s_waitcnt
     *  vmcnt/lgkmcnt thresholds; imm is the SOPP immediate (s_nop
     *  wait states). Unused elsewhere. */
    uint32_t c0 = 0;
    uint32_t c1 = 0;
    uint32_t imm = 0;
    /** @} */

    bool is(InstFlags f) const { return (flags & f) != 0; }

    /** Result latency in cycles (beyond issue); the mapping is pinned
     *  by ExecEngine.LatencyClassReadsItsConfigKnob. */
    unsigned
    latency(const GpuConfig &cfg) const
    {
        switch (latClass) {
          case LatClass::VAlu: return cfg.valuLatency;
          case LatClass::VAluF64: return cfg.valuLatencyF64;
          case LatClass::SAlu: return cfg.saluLatency;
          case LatClass::Branch: return cfg.branchLatency;
          case LatClass::Lds: return cfg.ldsLatency;
          case LatClass::Mem: return 0;
          case LatClass::Special: return 1;
        }
        return 1;
    }
};

} // namespace last::arch

#endif // LAST_ARCH_EXEC_META_HH
