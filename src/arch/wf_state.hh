/**
 * @file
 * Architectural wavefront state shared by both ISA front ends.
 *
 * One structure deliberately holds the union of what the two
 * abstractions need; the fields used differ by ISA exactly as the
 * paper describes:
 *
 *  - HSAIL: a large flat vector register space (up to 2,048/WF), a
 *    simulator reconvergence stack for divergence, a simulator-managed
 *    ABI (kernarg/private base addresses held in simulator state, not
 *    registers).
 *  - GCN3: 256 VGPRs + 102 SGPRs (+ VCC/EXEC/SCC), the exec mask
 *    visible to instructions, waitcnt counters, and ABI-initialized
 *    registers (AQL packet address, kernarg base, workgroup id, ...).
 *  - PTXL: one flat general register file (no scalar pipe), an
 *    8-entry predicate file, and compiler-inserted convergence
 *    barriers (BSSY/BSYNC) with a hardware warp-split stack instead
 *    of the simulator reconvergence stack.
 */

#ifndef LAST_ARCH_WF_STATE_HH
#define LAST_ARCH_WF_STATE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/instruction.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "memory/functional_memory.hh"
#include "memory/lds.hh"

namespace last::arch
{

/** Per-lane view of one 32-bit vector register. */
using LaneVec = std::array<uint32_t, WavefrontSize>;

/** Reconvergence-stack entry (HSAIL divergence handling). */
struct RsEntry
{
    Addr pc;       ///< where this path continues
    Addr rpc;      ///< reconvergence PC (immediate post-dominator)
    uint64_t mask; ///< lanes active on this path
};

/** PTXL warp-split entry: a deferred divergent path, resumed by the
 *  next BSYNC. Hardware state on NVIDIA parts (the "convergence
 *  barrier" scheduler), not simulator bookkeeping. */
struct PtxlSplit
{
    Addr pc;       ///< where the deferred path continues
    uint64_t mask; ///< lanes parked on it
};

/**
 * Timing-only descriptor of a memory access produced by an execution
 * handler. Functional data movement already happened in the handler;
 * the CU uses this descriptor for coalescing, cache timing,
 * waitcnt/scoreboard release, and footprint/uniqueness statistics.
 */
struct MemAccess
{
    enum class Kind
    {
        VectorLoad,
        VectorStore,
        ScalarLoad,   ///< GCN3 s_load through the scalar D$
        LdsLoad,
        LdsStore,
        KernargDirect ///< HSAIL simulator-state access: fixed latency
    };

    Kind kind = Kind::VectorLoad;
    unsigned bytesPerLane = 4;
    uint64_t mask = 0;                 ///< active lanes (vector kinds)
    std::array<Addr, WavefrontSize> laneAddrs{};
    Addr scalarAddr = 0;               ///< scalar kinds
    unsigned scalarBytes = 0;

    bool isLoad() const
    {
        return kind == Kind::VectorLoad || kind == Kind::ScalarLoad ||
               kind == Kind::LdsLoad || kind == Kind::KernargDirect;
    }
    bool
    countsVmcnt() const
    {
        return kind == Kind::VectorLoad || kind == Kind::VectorStore;
    }
    bool
    countsLgkmcnt() const
    {
        return kind == Kind::ScalarLoad || kind == Kind::LdsLoad ||
               kind == Kind::LdsStore;
    }
};

class KernelCode;

/** Everything an instruction can read or write. */
struct WfState
{
    /** @{ Identity and launch geometry (1-D grids). */
    IsaKind isa = IsaKind::HSAIL;
    const KernelCode *code = nullptr;
    unsigned wgId = 0;          ///< workgroup id (x)
    unsigned wgSize = 0;        ///< work-items per workgroup
    unsigned gridSize = 0;      ///< total work-items
    unsigned wfIdInWg = 0;      ///< wavefront index within workgroup
    unsigned firstWorkitem = 0; ///< global id of lane 0
    /** @} */

    /** @{ Control flow. */
    Addr pc = 0;      ///< byte offset of the current instruction
    Addr nextPc = 0;  ///< set by the execution handler
    bool done = false;
    bool atBarrier = false;
    /** @} */

    /** @{ Register state. */
    std::vector<LaneVec> vregs;       ///< allocated vector registers
    std::array<uint32_t, 102> sgprs{};///< GCN3 scalar registers
    uint64_t exec = ~0ull;            ///< GCN3 exec mask
    uint64_t vcc = 0;                 ///< GCN3 vector condition code
    bool scc = false;                 ///< GCN3 scalar condition code
    /** @} */

    /** HSAIL reconvergence stack; the top entry's mask is the active
     *  mask. Never empty while the WF runs. */
    std::vector<RsEntry> rs;

    /** @{ PTXL convergence-barrier state. BSSY Bn snapshots the
     * current active mask into cbarExpected[n]; divergent predicated
     * branches park the taken lanes on the split stack; BSYNC Bn
     * accumulates arrivals and either switches to a parked split or,
     * once every expected lane arrived, restores the full mask. */
    static constexpr unsigned NumPtxlBarriers = 16;
    static constexpr unsigned NumPtxlPregs = 8;
    std::array<uint64_t, NumPtxlBarriers> cbarExpected{};
    std::array<uint64_t, NumPtxlBarriers> cbarArrived{};
    std::vector<PtxlSplit> splits;
    /** Predicate registers: one 64-bit lane mask each. */
    std::array<uint64_t, NumPtxlPregs> pregs{};
    /** @} */

    /** @{ GCN3 waitcnt bookkeeping (maintained by the CU). */
    unsigned vmCnt = 0;   ///< outstanding vector memory ops
    unsigned lgkmCnt = 0; ///< outstanding scalar-mem/LDS ops
    /** @} */

    /** @{ Memory attachment. */
    mem::FunctionalMemory *memory = nullptr;
    mem::LdsBlock *lds = nullptr;
    /** @} */

    /** @{ ABI / segment metadata.
     * GCN3 reads these *through registers* that the command processor
     * initialized; HSAIL instructions read them directly from here
     * (the "simulator-defined ABI" of the paper). */
    Addr aqlPacketAddr = 0;
    Addr kernargBase = 0;
    Addr privateBase = 0;   ///< base of this launch's private arena
    Addr spillBase = 0;     ///< base of this launch's spill arena
    uint64_t privateStridePerWi = 0;
    uint64_t spillStridePerWi = 0;
    /** @} */

    /** Memory access produced by the last handler call, if any. */
    std::optional<MemAccess> pendingAccess;

    /** True while a conditionally-skipped instruction should still
     *  count statistics (always true; placeholder for extensions). */

    /** @{ Mask helpers. */
    uint64_t
    activeMask() const
    {
        if (isa != IsaKind::HSAIL)
            return exec; // GCN3 and PTXL both expose the mask in exec
        panic_if(rs.empty(),
                 "HSAIL wavefront with empty reconvergence stack");
        return rs.back().mask;
    }
    static uint64_t laneBit(unsigned lane) { return 1ull << lane; }
    bool laneActive(unsigned lane) const
    {
        return (activeMask() & laneBit(lane)) != 0;
    }
    /** @} */

    /** @{ Vector register accessors. */
    uint32_t
    readVreg(unsigned idx, unsigned lane) const
    {
        return vregs[idx][lane];
    }
    void
    writeVreg(unsigned idx, unsigned lane, uint32_t val)
    {
        vregs[idx][lane] = val;
    }
    uint64_t readVreg64(unsigned idx, unsigned lane) const;
    void writeVreg64(unsigned idx, unsigned lane, uint64_t val);
    /** @} */

    /** @{ Scalar register accessors with GCN3 special-index handling
     * (106/107 = VCC, 126/127 = EXEC). */
    uint32_t readSgpr(unsigned idx) const;
    void writeSgpr(unsigned idx, uint32_t val);
    uint64_t readSgpr64(unsigned idx) const;
    void writeSgpr64(unsigned idx, uint64_t val);
    /** @} */

    /** Global work-item id of a lane. */
    unsigned
    globalId(unsigned lane) const
    {
        return firstWorkitem + lane;
    }

    /** Initialize control state for launch (builds the RS root entry
     *  for HSAIL, sets exec for partial wavefronts). */
    void initLaunch(uint64_t initial_mask);
};

} // namespace last::arch

#endif // LAST_ARCH_WF_STATE_HH
