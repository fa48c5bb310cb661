/**
 * @file
 * Shared test utilities: a bare functional executor that runs a kernel
 * on a single wavefront without the timing model (for ISA semantics
 * tests), a random IL kernel generator (for differential property
 * tests), the shared AppResult equality check, and byte serializers
 * for artifact-identity checks.
 */

#ifndef LAST_TESTS_HELPERS_HH
#define LAST_TESTS_HELPERS_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/kernel_code.hh"
#include "arch/wf_state.hh"
#include "common/random.hh"
#include "hsail/builder.hh"
#include "memory/functional_memory.hh"
#include "memory/lds.hh"
#include "sim/bench_cache.hh"

namespace last::test
{

/** A one-wavefront functional execution environment. */
struct MiniWf
{
    mem::FunctionalMemory mem;
    mem::LdsBlock lds{4096};
    arch::WfState st;

    explicit MiniWf(const arch::KernelCode &code, unsigned wg_size = 64,
                    unsigned grid = 64, unsigned wg_id = 0)
    {
        st.isa = code.isa();
        st.code = &code;
        st.wgId = wg_id;
        st.wgSize = wg_size;
        st.gridSize = grid;
        st.wfIdInWg = 0;
        st.firstWorkitem = wg_id * wg_size;
        st.memory = &mem;
        st.lds = &lds;
        st.vregs.assign(std::max<unsigned>(code.vregsUsed, 1),
                        arch::LaneVec{});
        st.initLaunch(~0ull);
    }

    /** Execute to completion (functional; no timing). Returns the
     *  number of dynamic instructions. */
    uint64_t
    run(uint64_t max_insts = 1000000)
    {
        uint64_t n = 0;
        const arch::KernelCode &code = *st.code;
        const std::vector<arch::ExecMeta> &metas = code.execMetas();
        while (!st.done && n < max_insts) {
            const arch::ExecMeta &m = metas[code.indexAt(st.pc)];
            st.pendingAccess.reset();
            st.atBarrier = false;
            m.handler(m, st);
            ++n;
            if (st.isa == IsaKind::HSAIL) {
                st.rs.back().pc = st.nextPc;
                while (st.rs.size() > 1 &&
                       st.rs.back().pc == st.rs.back().rpc)
                    st.rs.pop_back();
                st.pc = st.rs.back().pc;
            } else {
                st.pc = st.nextPc;
            }
        }
        return n;
    }
};

/** Execute one instruction through its predecoded handler: `inst`
 *  becomes a one-instruction sealed KernelCode whose
 *  execMetas()[0].handler runs on `st`. */
void execOne(std::unique_ptr<arch::Instruction> inst, arch::WfState &st);

/**
 * Generate a random-but-valid IL kernel: mixed u32/f32 arithmetic,
 * conditional moves, divergent and uniform ifs, a bounded loop, loads
 * from an input buffer, one store per work-item to out[gid].
 * kernargs: [0]=in (u64), [8]=out (u64).
 */
hsail::IlKernel randomKernel(uint64_t seed);

/** gtest checks that two results agree on identity, quarantine state,
 *  verification, digest, every metric-table row (each failure names
 *  the row) and the per-launch records. */
void expectSameResult(const sim::AppResult &a, const sim::AppResult &b);

/** The file's bytes ("" when it cannot be opened). */
std::string readFile(const std::string &path);

/** writeBenchCache output of `c`. */
std::string cacheBytes(const sim::BenchCacheFile &c);

/** A sweep as a bench cache: results[i] keyed by
 *  specCacheKey(specs[i]), at the first spec's scale. */
sim::BenchCacheFile sweepCache(const std::vector<sim::RunSpec> &specs,
                               const std::vector<sim::AppResult> &results);

/** `last-divergence-v2` array bytes of divergenceFromCache(c). */
std::string divergenceBytes(const sim::BenchCacheFile &c);

} // namespace last::test

#endif // LAST_TESTS_HELPERS_HH
