/**
 * @file
 * The predecode contract (DESIGN.md §4f): every ExecMeta record agrees
 * with the instruction it flattens, and each latency class reads the
 * GpuConfig knob its functional unit and flags call for. The handlers'
 * semantics are pinned by the golden vectors (test_exec_golden.cc) and
 * whole workloads by the committed bench cache (test_metrics.cc).
 */

#include <gtest/gtest.h>

#include "arch/exec_meta.hh"
#include "arch/kernel_code.hh"
#include "finalizer/finalizer.hh"
#include "finalizer/regalloc.hh"
#include "helpers.hh"
#include "runtime/runtime.hh"

using namespace last;

TEST(ExecEngine, PredecodedMetaAgreesWithInstruction)
{
    // The predecode contract: every ExecMeta field the timing model
    // consumes must agree with the virtual method it flattens, for
    // every instruction of both ISA levels.
    auto checkKernel = [&](const arch::KernelCode &code) {
        const auto &metas = code.execMetas();
        ASSERT_EQ(metas.size(), code.numInsts());
        for (size_t i = 0; i < metas.size(); ++i) {
            const arch::ExecMeta &m = metas[i];
            const arch::Instruction &in = code.inst(i);
            SCOPED_TRACE(code.name() + ": " + in.disassemble());
            EXPECT_EQ(m.inst, &in);
            EXPECT_NE(m.handler, nullptr);
            EXPECT_EQ(m.flags, in.flags());
            EXPECT_EQ(m.fu, in.fuType());
            EXPECT_EQ(unsigned(m.size), in.sizeBytes());
            EXPECT_EQ(unsigned(m.size), code.sizeOf(i));
            EXPECT_EQ(m.numOps, in.regOps().size());
            for (size_t k = 0; k < in.regOps().size(); ++k) {
                EXPECT_EQ(m.ops[k].idx, in.regOps()[k].idx);
                EXPECT_EQ(m.ops[k].width, in.regOps()[k].width);
                EXPECT_EQ(m.ops[k].cls, in.regOps()[k].cls);
                EXPECT_EQ(m.ops[k].isDef, in.regOps()[k].isDef);
            }
        }
    };

    runtime::Runtime rt;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        auto il = last::test::randomKernel(seed);
        finalizer::compactIlRegisters(il);
        checkKernel(*il.code);
        auto gcn = finalizer::finalize(il, rt.config());
        checkKernel(*gcn);
    }
}

namespace
{

/** An instruction that is nothing but a functional unit and flags. */
class FuOnlyInst : public arch::Instruction
{
  public:
    FuOnlyInst(arch::FuType fu, uint32_t flags) : fu(fu) { setFlags(flags); }

    void predecode(arch::ExecMeta &m) const override
    {
        m.handler = [](const arch::ExecMeta &, arch::WfState &) {};
    }
    std::string disassemble() const override { return "fu_only"; }
    arch::FuType fuType() const override { return fu; }
    unsigned sizeBytes() const override { return 4; }

  private:
    arch::FuType fu;
};

} // namespace

TEST(ExecEngine, LatencyClassReadsItsConfigKnob)
{
    // Every (functional unit, plain/IsF64/IsTrans) pair and the
    // GpuConfig knob its result latency comes from; nullptr means the
    // fixed `cycles` (memory ops are timed by the memory system).
    using arch::FuType;
    struct Row
    {
        FuType fu;
        uint32_t flags;
        unsigned GpuConfig::*knob;
        unsigned cycles;
    };
    const Row rows[] = {
        {FuType::VAlu, 0, &GpuConfig::valuLatency, 0},
        {FuType::VAlu, arch::IsF64, &GpuConfig::valuLatencyF64, 0},
        {FuType::VAlu, arch::IsTrans, &GpuConfig::valuLatencyF64, 0},
        {FuType::SAlu, 0, &GpuConfig::saluLatency, 0},
        {FuType::SAlu, arch::IsF64, &GpuConfig::saluLatency, 0},
        {FuType::SAlu, arch::IsTrans, &GpuConfig::saluLatency, 0},
        {FuType::Branch, 0, &GpuConfig::branchLatency, 0},
        {FuType::Branch, arch::IsF64, &GpuConfig::branchLatency, 0},
        {FuType::Branch, arch::IsTrans, &GpuConfig::branchLatency, 0},
        {FuType::Lds, 0, &GpuConfig::ldsLatency, 0},
        {FuType::Lds, arch::IsF64, &GpuConfig::ldsLatency, 0},
        {FuType::Lds, arch::IsTrans, &GpuConfig::ldsLatency, 0},
        {FuType::VMem, 0, nullptr, 0},
        {FuType::VMem, arch::IsF64, nullptr, 0},
        {FuType::VMem, arch::IsTrans, nullptr, 0},
        {FuType::SMem, 0, nullptr, 0},
        {FuType::SMem, arch::IsF64, nullptr, 0},
        {FuType::SMem, arch::IsTrans, nullptr, 0},
        {FuType::Special, 0, nullptr, 1},
        {FuType::Special, arch::IsF64, nullptr, 1},
        {FuType::Special, arch::IsTrans, nullptr, 1},
    };

    // Distinct values, so reading the wrong knob shows.
    GpuConfig cfg;
    cfg.valuLatency = 11;
    cfg.valuLatencyF64 = 12;
    cfg.saluLatency = 13;
    cfg.branchLatency = 14;
    cfg.ldsLatency = 15;

    arch::KernelCode code(IsaKind::GCN3, "fu_only");
    for (const Row &r : rows)
        code.append(std::make_unique<FuOnlyInst>(r.fu, r.flags));
    code.seal();
    const auto &metas = code.execMetas();
    for (size_t i = 0; i < std::size(rows); ++i) {
        const Row &r = rows[i];
        SCOPED_TRACE(std::string(arch::fuTypeName(r.fu)) + " flags " +
                     std::to_string(r.flags));
        EXPECT_EQ(metas[i].latency(cfg), r.knob ? cfg.*r.knob : r.cycles);
    }
}
