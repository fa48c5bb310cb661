/** @file GCN3 ISA semantics, encoding, and disassembly tests. */

#include <gtest/gtest.h>

#include <bit>

#include "arch/kernel_code.hh"
#include "gcn3/inst.hh"
#include "helpers.hh"
#include "memory/functional_memory.hh"
#include "memory/lds.hh"

using namespace last;
using namespace last::gcn3;

namespace
{

struct GcnEnv
{
    mem::FunctionalMemory mem;
    mem::LdsBlock lds{1024};
    arch::WfState st;

    GcnEnv()
    {
        st.isa = IsaKind::GCN3;
        st.memory = &mem;
        st.lds = &lds;
        st.vregs.assign(64, arch::LaneVec{});
        st.initLaunch(~0ull);
    }

    void
    exec(Gcn3Inst *inst)
    {
        st.pendingAccess.reset();
        test::execOne(std::unique_ptr<arch::Instruction>(inst), st);
    }
};

uint32_t f2b(float f) { return std::bit_cast<uint32_t>(f); }
float b2f(uint32_t b) { return std::bit_cast<float>(b); }

} // namespace

TEST(Gcn3Salu, MovAndArithmetic)
{
    GcnEnv e;
    e.exec(Gcn3Inst::sop1(Gcn3Op::S_MOV_B32, Dst::sgpr(4),
                          Src::imm(40)));
    e.exec(Gcn3Inst::sop2(Gcn3Op::S_ADD_U32, Dst::sgpr(5),
                          Src::sgpr(4), Src::imm(2)));
    EXPECT_EQ(e.st.readSgpr(5), 42u);
    e.exec(Gcn3Inst::sop2(Gcn3Op::S_MUL_I32, Dst::sgpr(6),
                          Src::sgpr(5), Src::sgpr(5)));
    EXPECT_EQ(e.st.readSgpr(6), 1764u);
}

TEST(Gcn3Salu, AddCarryChain)
{
    GcnEnv e;
    e.exec(Gcn3Inst::sop1(Gcn3Op::S_MOV_B32, Dst::sgpr(4),
                          Src::bits32(0xffffffffu)));
    e.exec(Gcn3Inst::sop2(Gcn3Op::S_ADD_U32, Dst::sgpr(6),
                          Src::sgpr(4), Src::imm(1)));
    EXPECT_TRUE(e.st.scc); // carry out
    e.exec(Gcn3Inst::sop2(Gcn3Op::S_ADDC_U32, Dst::sgpr(7),
                          Src::imm(0), Src::imm(0)));
    EXPECT_EQ(e.st.readSgpr(6), 0u);
    EXPECT_EQ(e.st.readSgpr(7), 1u);
}

TEST(Gcn3Salu, BfePackedOperand)
{
    GcnEnv e;
    e.exec(Gcn3Inst::sop1(Gcn3Op::S_MOV_B32, Dst::sgpr(4),
                          Src::bits32(0x00300100u)));
    // offset 8, width 16 -> 0x100000 packing (Table 1 usage).
    e.exec(Gcn3Inst::sop2(Gcn3Op::S_BFE_U32, Dst::sgpr(5),
                          Src::sgpr(4), Src::bits32(0x100008u)));
    EXPECT_EQ(e.st.readSgpr(5), 0x3001u);
}

TEST(Gcn3Salu, SaveExecManipulation)
{
    GcnEnv e;
    e.st.vcc = 0x00000000ffffffffull;
    e.exec(Gcn3Inst::sop1(Gcn3Op::S_AND_SAVEEXEC_B64, Dst::sgpr(10),
                          Src::vcc()));
    EXPECT_EQ(e.st.readSgpr64(10), ~0ull);  // saved old exec
    EXPECT_EQ(e.st.exec, 0x00000000ffffffffull);
    EXPECT_TRUE(e.st.scc);
    // Restore via s_mov_b64 exec.
    e.exec(Gcn3Inst::sop1(Gcn3Op::S_MOV_B64, Dst::execMask(),
                          Src::sgpr(10)));
    EXPECT_EQ(e.st.exec, ~0ull);
}

TEST(Gcn3Salu, XorRecoversElseMask)
{
    GcnEnv e;
    uint64_t entry = 0xff00ff00ff00ff00ull;
    uint64_t then_mask = 0x0f000f000f000f00ull;
    e.st.writeSgpr64(20, entry);
    e.st.exec = then_mask;
    e.exec(Gcn3Inst::sop2(Gcn3Op::S_XOR_B64, Dst::execMask(),
                          Src::sgpr(20), Src::execMask()));
    EXPECT_EQ(e.st.exec, entry ^ then_mask);
}

TEST(Gcn3Salu, CompareSetsScc)
{
    GcnEnv e;
    e.exec(Gcn3Inst::sopc(Gcn3Op::S_CMP_LT_U32, Src::imm(3),
                          Src::imm(5)));
    EXPECT_TRUE(e.st.scc);
    e.exec(Gcn3Inst::sopc(Gcn3Op::S_CMP_LT_I32, Src::imm(-1),
                          Src::imm(-5)));
    EXPECT_FALSE(e.st.scc);
    e.exec(Gcn3Inst::sop2(Gcn3Op::S_CSELECT_B32, Dst::sgpr(4),
                          Src::imm(9), Src::imm(11)));
    EXPECT_EQ(e.st.readSgpr(4), 11u);
}

TEST(Gcn3Valu, ExecMaskGatesWrites)
{
    GcnEnv e;
    e.st.exec = 0x1; // only lane 0
    e.exec(Gcn3Inst::vop1(Gcn3Op::V_MOV_B32, Dst::vgpr(3),
                          Src::imm(55)));
    EXPECT_EQ(e.st.readVreg(3, 0), 55u);
    EXPECT_EQ(e.st.readVreg(3, 1), 0u);
}

TEST(Gcn3Valu, CarryChain64BitAdd)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane)
        e.st.writeVreg64(4, lane, 0xfffffffful + lane);
    e.st.writeSgpr64(8, 1); // add 1 (lo) + 0 (hi)
    e.exec(Gcn3Inst::vop2(Gcn3Op::V_ADD_U32, Dst::vgpr(6),
                          Src::sgpr(8), Src::vgpr(4)));
    e.exec(Gcn3Inst::vop2(Gcn3Op::V_ADDC_U32, Dst::vgpr(7),
                          Src::vgpr(5), Src::imm(0)));
    EXPECT_EQ(e.st.readVreg64(6, 0), 0x100000000ull);
    EXPECT_EQ(e.st.readVreg64(6, 63), 0x100000000ull + 63);
}

TEST(Gcn3Valu, CmpWritesVccPerLane)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane)
        e.st.writeVreg(2, lane, lane);
    e.exec(Gcn3Inst::vcmp(Gcn3Op::V_CMP_LT_U32, Src::vgpr(2),
                          Src::imm(8)));
    EXPECT_EQ(e.st.vcc, 0xffull);
    e.exec(Gcn3Inst::vop2(Gcn3Op::V_CNDMASK_B32, Dst::vgpr(3),
                          Src::imm(1), Src::imm(2)));
    EXPECT_EQ(e.st.readVreg(3, 0), 2u); // vcc set -> src1
    EXPECT_EQ(e.st.readVreg(3, 8), 1u);
}

TEST(Gcn3Valu, InactiveLanesClearVccOnCompare)
{
    GcnEnv e;
    e.st.exec = 0xf;
    e.st.vcc = ~0ull;
    for (unsigned lane = 0; lane < 64; ++lane)
        e.st.writeVreg(2, lane, 1);
    e.exec(Gcn3Inst::vcmp(Gcn3Op::V_CMP_EQ_U32, Src::vgpr(2),
                          Src::imm(1)));
    EXPECT_EQ(e.st.vcc, 0xfull);
}

TEST(Gcn3Valu, FloatOpsAndNegModifier)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane) {
        e.st.writeVreg(2, lane, f2b(3.0f));
        e.st.writeVreg(3, lane, f2b(2.0f));
    }
    e.exec(Gcn3Inst::vop3(Gcn3Op::V_FMA_F32, Dst::vgpr(4),
                          Src::vgpr(2), Src::vgpr(3),
                          Src::bits32(f2b(1.0f)), 0b001));
    // (-3) * 2 + 1 = -5.
    EXPECT_FLOAT_EQ(b2f(e.st.readVreg(4, 0)), -5.0f);
}

TEST(Gcn3Valu, F64InlineConstant)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane)
        e.st.writeVreg64(2, lane, std::bit_cast<uint64_t>(0.5));
    e.exec(Gcn3Inst::vop3(Gcn3Op::V_ADD_F64, Dst::vgpr(4),
                          Src::vgpr(2), Src::f64const(1.0), Src{}));
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(e.st.readVreg64(4, 0)),
                     1.5);
}

TEST(Gcn3Valu, DivFixupProducesExactQuotient)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane) {
        e.st.writeVreg64(2, lane, std::bit_cast<uint64_t>(1.0)); // q est
        e.st.writeVreg64(4, lane, std::bit_cast<uint64_t>(3.0)); // den
        e.st.writeVreg64(6, lane, std::bit_cast<uint64_t>(2.0)); // num
    }
    e.exec(Gcn3Inst::vop3(Gcn3Op::V_DIV_FIXUP_F64, Dst::vgpr(8),
                          Src::vgpr(2), Src::vgpr(4), Src::vgpr(6)));
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(e.st.readVreg64(8, 0)),
                     2.0 / 3.0);
}

TEST(Gcn3Mem, SmemLoadsThroughSbase)
{
    GcnEnv e;
    e.mem.write<uint32_t>(0x1010, 0xabcd);
    e.st.writeSgpr64(4, 0x1000);
    e.exec(Gcn3Inst::smem(Gcn3Op::S_LOAD_DWORD, Dst::sgpr(10), 4,
                          0x10));
    EXPECT_EQ(e.st.readSgpr(10), 0xabcdu);
    ASSERT_TRUE(e.st.pendingAccess.has_value());
    EXPECT_EQ(e.st.pendingAccess->kind,
              arch::MemAccess::Kind::ScalarLoad);
}

TEST(Gcn3Mem, FlatLoadStorePerLane)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane) {
        e.st.writeVreg64(2, lane, 0x2000 + lane * 4);
        e.st.writeVreg(4, lane, lane * 3);
    }
    e.exec(Gcn3Inst::flat(Gcn3Op::FLAT_STORE_DWORD, Dst::none(), 2, 4));
    EXPECT_EQ(e.mem.read<uint32_t>(0x2000 + 40), 30u);
    e.exec(Gcn3Inst::flat(Gcn3Op::FLAT_LOAD_DWORD, Dst::vgpr(6), 2));
    EXPECT_EQ(e.st.readVreg(6, 10), 30u);
}

TEST(Gcn3Mem, FlatAtomicAdd)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane) {
        e.st.writeVreg64(2, lane, 0x3000);
        e.st.writeVreg(4, lane, 1);
    }
    e.exec(Gcn3Inst::flat(Gcn3Op::FLAT_ATOMIC_ADD, Dst::vgpr(6), 2, 4));
    EXPECT_EQ(e.mem.read<uint32_t>(0x3000), 64u);
    EXPECT_EQ(e.st.readVreg(6, 0), 0u);
    EXPECT_EQ(e.st.readVreg(6, 63), 63u);
}

TEST(Gcn3Mem, DsReadWrite)
{
    GcnEnv e;
    for (unsigned lane = 0; lane < 64; ++lane) {
        e.st.writeVreg(2, lane, lane * 4);
        e.st.writeVreg(3, lane, lane + 100);
    }
    e.exec(Gcn3Inst::ds(Gcn3Op::DS_WRITE_B32, Dst::none(), 2, 3, 0));
    e.exec(Gcn3Inst::ds(Gcn3Op::DS_READ_B32, Dst::vgpr(5), 2, 0, 0));
    EXPECT_EQ(e.st.readVreg(5, 7), 107u);
}

TEST(Gcn3Encoding, VariableLengths)
{
    // 32-bit formats.
    std::unique_ptr<Gcn3Inst> mov(Gcn3Inst::sop1(
        Gcn3Op::S_MOV_B32, Dst::sgpr(0), Src::sgpr(1)));
    EXPECT_EQ(mov->sizeBytes(), 4u);
    // A literal widens by 4.
    std::unique_ptr<Gcn3Inst> movlit(Gcn3Inst::sop1(
        Gcn3Op::S_MOV_B32, Dst::sgpr(0), Src::bits32(0x12345678)));
    EXPECT_EQ(movlit->sizeBytes(), 8u);
    // Inline constants do not.
    std::unique_ptr<Gcn3Inst> movinl(Gcn3Inst::sop1(
        Gcn3Op::S_MOV_B32, Dst::sgpr(0), Src::imm(7)));
    EXPECT_EQ(movinl->sizeBytes(), 4u);
    // 64-bit formats.
    std::unique_ptr<Gcn3Inst> smem(Gcn3Inst::smem(
        Gcn3Op::S_LOAD_DWORD, Dst::sgpr(0), 4, 0));
    EXPECT_EQ(smem->sizeBytes(), 8u);
    std::unique_ptr<Gcn3Inst> flat(Gcn3Inst::flat(
        Gcn3Op::FLAT_LOAD_DWORD, Dst::vgpr(0), 2));
    EXPECT_EQ(flat->sizeBytes(), 8u);
    std::unique_ptr<Gcn3Inst> fma(Gcn3Inst::vop3(
        Gcn3Op::V_FMA_F32, Dst::vgpr(0), Src::vgpr(1), Src::vgpr(2),
        Src::vgpr(3)));
    EXPECT_EQ(fma->sizeBytes(), 8u);
    // VOP2 with a literal: 4 + 4.
    std::unique_ptr<Gcn3Inst> v2(Gcn3Inst::vop2(
        Gcn3Op::V_ADD_F32, Dst::vgpr(0), Src::bits32(0x3fc00000),
        Src::vgpr(1)));
    EXPECT_EQ(v2->sizeBytes(), 8u);
}

TEST(Gcn3Encoding, WaitcntThresholds)
{
    std::unique_ptr<Gcn3Inst> w(Gcn3Inst::waitcnt(0, 3));
    EXPECT_TRUE(w->is(arch::IsWaitcnt));
    EXPECT_EQ(w->vmThreshold(), 0u);
    EXPECT_EQ(w->lgkmThreshold(), 3u);
    std::unique_ptr<Gcn3Inst> w2(Gcn3Inst::waitcnt(-1, 0));
    EXPECT_EQ(w2->vmThreshold(), 64u); // don't care
}

TEST(Gcn3Branch, TargetsResolveToOffsets)
{
    arch::KernelCode code(IsaKind::GCN3, "br");
    code.append(std::unique_ptr<arch::Instruction>(Gcn3Inst::sop1(
        Gcn3Op::S_MOV_B32, Dst::sgpr(4), Src::bits32(0xdeadbeef))));
    code.append(std::unique_ptr<arch::Instruction>(
        Gcn3Inst::branch(Gcn3Op::S_BRANCH, 3)));
    code.append(std::unique_ptr<arch::Instruction>(Gcn3Inst::sop1(
        Gcn3Op::S_MOV_B32, Dst::sgpr(5), Src::imm(1))));
    code.append(std::unique_ptr<arch::Instruction>(
        Gcn3Inst::sopp(Gcn3Op::S_ENDPGM)));
    code.seal();
    resolveBranchTargets(code);
    const auto &br = static_cast<const Gcn3Inst &>(code.inst(1));
    EXPECT_EQ(br.targetOffset(), code.offsetOf(3));
}

TEST(Gcn3Branch, ConditionalBranches)
{
    GcnEnv e;
    auto branch = [](Gcn3Op op, Addr target) {
        Gcn3Inst *br = Gcn3Inst::branch(op, 0);
        br->setTargetOffset(target);
        return br;
    };
    e.st.pc = 0;
    e.st.scc = true;
    e.exec(branch(Gcn3Op::S_CBRANCH_SCC1, 100));
    EXPECT_EQ(e.st.nextPc, 100u);
    e.st.scc = false;
    e.exec(branch(Gcn3Op::S_CBRANCH_SCC1, 100));
    EXPECT_EQ(e.st.nextPc, 4u); // SOPP: one 32-bit word

    e.st.exec = 0;
    e.exec(branch(Gcn3Op::S_CBRANCH_EXECZ, 64));
    EXPECT_EQ(e.st.nextPc, 64u);
}

TEST(Gcn3Disasm, ReadableStrings)
{
    std::unique_ptr<Gcn3Inst> i1(Gcn3Inst::sop2(
        Gcn3Op::S_AND_SAVEEXEC_B64, Dst::sgpr(12), Src::vcc(),
        Src{}));
    EXPECT_NE(i1->disassemble().find("s_and_saveexec_b64"),
              std::string::npos);
    EXPECT_NE(i1->disassemble().find("vcc"), std::string::npos);
    std::unique_ptr<Gcn3Inst> i2(Gcn3Inst::waitcnt(0, 0));
    EXPECT_NE(i2->disassemble().find("vmcnt(0)"), std::string::npos);
    std::unique_ptr<Gcn3Inst> i3(Gcn3Inst::flat(
        Gcn3Op::FLAT_LOAD_DWORD, Dst::vgpr(3), 1));
    EXPECT_NE(i3->disassemble().find("v[1:2]"), std::string::npos);
}
