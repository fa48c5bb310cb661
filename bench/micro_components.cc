/**
 * @file
 * Component microbenchmarks (google-benchmark): how fast the simulator
 * itself runs — functional memory, cache timing model, both ISA
 * interpreters, the finalizer, and whole-kernel simulation rate.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <thread>

#include "arch/exec_meta.hh"
#include "arch/kernel_code.hh"
#include "common/event_queue.hh"
#include "cu/probes.hh"
#include "finalizer/finalizer.hh"
#include "gcn3/inst.hh"
#include "finalizer/regalloc.hh"
#include "hsail/builder.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/functional_memory.hh"
#include "runtime/runtime.hh"
#include "sim/parallel.hh"

using namespace last;
using namespace last::hsail;

namespace
{

void
BM_FunctionalMemoryWrite(benchmark::State &state)
{
    mem::FunctionalMemory m;
    uint64_t addr = 0;
    for (auto _ : state) {
        m.write<uint64_t>(addr, addr);
        addr = (addr + 64) & 0xfffff;
    }
}
BENCHMARK(BM_FunctionalMemoryWrite);

void
BM_FunctionalMemoryRead(benchmark::State &state)
{
    mem::FunctionalMemory m;
    for (Addr a = 0; a < 0x100000; a += 64)
        m.write<uint64_t>(a, a);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.read<uint64_t>(addr));
        addr = (addr + 64) & 0xfffff;
    }
}
BENCHMARK(BM_FunctionalMemoryRead);

void
BM_FunctionalMemoryBulkCopy(benchmark::State &state)
{
    // Packet-sized transfers, the pattern runtime::writeGlobal and the
    // per-lane vmem path produce: same page hit nearly every time.
    mem::FunctionalMemory m;
    uint8_t buf[256] = {};
    Addr addr = 0;
    for (auto _ : state) {
        m.write(addr, buf, sizeof(buf));
        m.read(addr, buf, sizeof(buf));
        addr = (addr + 192) & 0xfffff; // misaligned, crosses lines
    }
}
BENCHMARK(BM_FunctionalMemoryBulkCopy);

void
BM_EventQueueScheduleTick(benchmark::State &state)
{
    // One pending event per tick: the steady-state shape the GPU loop
    // produces (fetch fills and waitcnt decrements a few cycles out).
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        eq.scheduleAfter(4, [&] { ++fired; });
        eq.tick();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleTick);

void
BM_CacheAccess(benchmark::State &state)
{
    stats::Group root("root");
    GpuConfig cfg;
    mem::Dram dram("dram", cfg, &root);
    mem::Cache l2("l2", cfg.l2, &dram, &root);
    mem::Cache l1("l1", cfg.l1d, &l2, &root);
    Cycle now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(l1.access(addr, false, now));
        addr = (addr + 64) & 0x3ffff;
        now += 2;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_LaneUniqProbe(benchmark::State &state)
{
    // The per-operand uniqueness probe: every dynamic vector
    // instruction pays this once per operand register.
    cu::LaneUniqCounter counter;
    uint32_t lanes[64];
    for (unsigned i = 0; i < 64; ++i)
        lanes[i] = i / 4; // duplicate-heavy, like real stride patterns
    uint64_t mask = ~0ull;
    unsigned total = 0;
    for (auto _ : state) {
        total += counter.count(lanes, mask);
        lanes[total & 63] ^= total; // defeat value caching
    }
    benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_LaneUniqProbe);

void
BM_CoalesceLines(benchmark::State &state)
{
    // The vmem coalescing dedup: unit-stride 4-byte accesses over a
    // full wavefront (the common case: 4 distinct lines from 64 lanes).
    Addr laneAddrs[64];
    Addr base = 0x1000;
    uint64_t total = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < 64; ++i)
            laneAddrs[i] = base + i * 4;
        Addr lines[2 * 64];
        unsigned n = 0;
        for (uint64_t m = ~0ull; m; m &= m - 1) {
            unsigned lane = unsigned(findLsb(m));
            Addr first = laneAddrs[lane] / 64;
            Addr last = (laneAddrs[lane] + 3) / 64;
            n = cu::insertLineSorted(lines, n, first);
            if (last != first)
                n = cu::insertLineSorted(lines, n, last);
        }
        total += n;
        base += 256;
    }
    benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_CoalesceLines);

/**
 * Pathologically skewed task durations for the sweep scheduler: 64
 * tasks where the first 16 — exactly worker 0's static chunk at 4
 * workers — take 40x longer than the rest (a bfsgraph/pipeline block
 * at the front of the matrix next to vecadd-class specs). The tasks
 * are timed waits rather than spins so the measured wall clock is the
 * *schedule makespan* on any core count: static chunking serializes
 * the whole long block behind one worker (~32 ms) while work stealing
 * spreads it across all four (~8 ms).
 */
std::vector<std::function<void()>>
skewedScheduleTasks()
{
    std::vector<std::function<void()>> tasks;
    tasks.reserve(64);
    for (int i = 0; i < 64; ++i) {
        auto dur = std::chrono::microseconds(i < 16 ? 2000 : 50);
        tasks.push_back([dur] { std::this_thread::sleep_for(dur); });
    }
    return tasks;
}

void
BM_ParallelInvokeSkewedStatic(benchmark::State &state)
{
    auto tasks = skewedScheduleTasks();
    for (auto _ : state)
        sim::parallelInvokeStatic(tasks, 4);
}
BENCHMARK(BM_ParallelInvokeSkewedStatic)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_ParallelInvokeSkewedSteal(benchmark::State &state)
{
    auto tasks = skewedScheduleTasks();
    for (auto _ : state)
        sim::parallelInvoke(tasks, 4);
}
BENCHMARK(BM_ParallelInvokeSkewedSteal)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

IlKernel
computeKernel()
{
    KernelBuilder kb("micro");
    kb.setKernargBytes(16);
    Val in = kb.ldKernarg(DataType::U64, 0);
    Val out = kb.ldKernarg(DataType::U64, 8);
    Val gid = kb.workitemAbsId();
    Val off = kb.cvt(DataType::U64, kb.mul(gid, kb.immU32(4)));
    Val acc = kb.ldGlobal(DataType::F32, kb.add(in, off));
    for (int i = 0; i < 16; ++i)
        acc = kb.fma_(acc, kb.immF32(1.0009f), kb.immF32(0.25f));
    kb.stGlobal(acc, kb.add(out, off));
    return kb.build();
}

void
BM_SimulateKernel(benchmark::State &state)
{
    IsaKind isa = state.range(0) ? IsaKind::GCN3 : IsaKind::HSAIL;
    uint64_t insts = 0;
    for (auto _ : state) {
        runtime::Runtime rt;
        auto il = computeKernel();
        finalizer::compactIlRegisters(il);
        std::unique_ptr<arch::KernelCode> gcn;
        arch::KernelCode *code = il.code.get();
        if (isa == IsaKind::GCN3) {
            gcn = finalizer::finalize(il, rt.config());
            code = gcn.get();
        }
        Addr in = rt.allocGlobal(4096 * 4);
        Addr out = rt.allocGlobal(4096 * 4);
        struct Args
        {
            uint64_t in, out;
        } args{in, out};
        rt.dispatch(*code, 4096, 256, &args, sizeof(args));
        insts += uint64_t(rt.gpu().sumCuStat("dynInsts"));
    }
    state.counters["wf_insts_per_s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateKernel)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** A sealed GCN3 instruction stream for the execution-engine
 *  microbenches; `mixed` adds scalar ALU / compare / select / nop
 *  instructions so the dispatch chain crosses handler kinds the way a
 *  real kernel does instead of hammering one VALU template. */
std::unique_ptr<arch::KernelCode>
gcnChain(bool mixed)
{
    using gcn3::Dst;
    using gcn3::Gcn3Inst;
    using gcn3::Gcn3Op;
    using gcn3::Src;
    auto code = std::make_unique<arch::KernelCode>(
        IsaKind::GCN3, mixed ? "bench_dispatch" : "bench_valu");
    auto add = [&](Gcn3Inst *i) {
        code->append(std::unique_ptr<arch::Instruction>(i));
    };
    for (unsigned i = 0; i < 16; ++i) {
        unsigned a = i % 8, b = (i + 3) % 8, d = 8 + i % 8;
        add(Gcn3Inst::vop2(Gcn3Op::V_ADD_F32, Dst::vgpr(d),
                           Src::vgpr(a), Src::vgpr(b)));
        add(Gcn3Inst::vop2(Gcn3Op::V_MAC_F32, Dst::vgpr(d),
                           Src::vgpr(b), Src::vgpr(a)));
        add(Gcn3Inst::vop2(Gcn3Op::V_ADD_U32, Dst::vgpr(d),
                           Src::vgpr(a), Src::vgpr(b)));
        add(Gcn3Inst::vop2(Gcn3Op::V_XOR_B32, Dst::vgpr(d),
                           Src::vgpr(d), Src::vgpr(a)));
        if (mixed) {
            add(Gcn3Inst::sop2(Gcn3Op::S_ADD_U32, Dst::sgpr(4 + i % 4),
                               Src::sgpr(4 + (i + 1) % 4),
                               Src::imm(i + 1)));
            add(Gcn3Inst::vcmp(Gcn3Op::V_CMP_LT_U32, Src::vgpr(a),
                               Src::vgpr(b)));
            add(Gcn3Inst::vop2(Gcn3Op::V_CNDMASK_B32, Dst::vgpr(d),
                               Src::vgpr(a), Src::vgpr(b)));
            add(Gcn3Inst::sopp(Gcn3Op::S_NOP, 0));
        }
    }
    code->seal();
    return code;
}

arch::WfState
chainWfState(mem::FunctionalMemory &memory)
{
    arch::WfState st;
    st.isa = IsaKind::GCN3;
    st.memory = &memory;
    st.vregs.assign(16, arch::LaneVec{});
    for (unsigned r = 0; r < 16; ++r)
        for (unsigned l = 0; l < 64; ++l)
            st.vregs[r][l] = (r * 64 + l) * 2654435761u;
    st.initLaunch(~0ull);
    return st;
}

/** Raw per-instruction execution rate through the handlers, VALU
 *  templates only — the lane kernels isolated from the timing
 *  model. */
void
BM_ExecuteValuLoop(benchmark::State &state)
{
    auto code = gcnChain(false);
    const auto &metas = code->execMetas();
    mem::FunctionalMemory memory;
    arch::WfState st = chainWfState(memory);
    uint64_t insts = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < metas.size(); ++i) {
            st.pc = code->offsetOf(i);
            metas[i].handler(metas[i], st);
        }
        insts += metas.size();
    }
    state.counters["insts_per_s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecuteValuLoop);

/** The same over a heterogeneous stream (VALU + SALU + VCMP + select
 *  + nop): what indirect handler dispatch costs when the instruction
 *  kind changes every few instructions. */
void
BM_DispatchChain(benchmark::State &state)
{
    auto code = gcnChain(true);
    const auto &metas = code->execMetas();
    mem::FunctionalMemory memory;
    arch::WfState st = chainWfState(memory);
    uint64_t insts = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < metas.size(); ++i) {
            st.pc = code->offsetOf(i);
            metas[i].handler(metas[i], st);
        }
        insts += metas.size();
    }
    state.counters["insts_per_s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DispatchChain);

void
BM_Finalize(benchmark::State &state)
{
    for (auto _ : state) {
        auto il = computeKernel();
        finalizer::compactIlRegisters(il);
        auto gcn = finalizer::finalize(il, GpuConfig{});
        benchmark::DoNotOptimize(gcn->codeBytes());
    }
}
BENCHMARK(BM_Finalize);

} // namespace

BENCHMARK_MAIN();
