/**
 * @file
 * Concrete GCN3 instruction. One class covers all formats; named
 * factories build well-formed instances and the finalizer/assembler is
 * the only producer (plus tests).
 */

#ifndef LAST_GCN3_INST_HH
#define LAST_GCN3_INST_HH

#include <cstdint>

#include "arch/instruction.hh"
#include "arch/wf_state.hh"
#include "gcn3/opcodes.hh"

namespace last::gcn3
{

/** A source operand: VGPR, SGPR (incl. VCC/EXEC), inline constant, or
 *  a 32-bit literal (which widens the encoding by 4 bytes). */
struct Src
{
    enum class Kind : uint8_t
    {
        None, Vgpr, Sgpr, InlineConst, Literal,
        InlineConstF64, ///< value holds the high 32 bits of the double
    };

    Kind kind = Kind::None;
    uint16_t reg = 0;
    uint32_t value = 0;

    static Src vgpr(unsigned r) { return {Kind::Vgpr, uint16_t(r), 0}; }
    static Src sgpr(unsigned r) { return {Kind::Sgpr, uint16_t(r), 0}; }
    static Src vcc() { return sgpr(arch::RegVccLo); }
    static Src execMask() { return sgpr(arch::RegExecLo); }

    /** Integer immediate: inline if in [-16, 64], else literal. */
    static Src
    imm(int64_t v)
    {
        if (v >= -16 && v <= 64)
            return {Kind::InlineConst, 0, uint32_t(int32_t(v))};
        return {Kind::Literal, 0, uint32_t(int32_t(v))};
    }

    /** Raw 32-bit literal (e.g., float bits). Inline-encodes the
     *  hardware's special float constants. */
    static Src
    bits32(uint32_t b)
    {
        switch (b) {
          case 0x00000000u: // 0.0 / 0
          case 0x3f000000u: // 0.5f
          case 0xbf000000u:
          case 0x3f800000u: // 1.0f
          case 0xbf800000u:
          case 0x40000000u: // 2.0f
          case 0xc0000000u:
          case 0x40800000u: // 4.0f
          case 0xc0800000u:
            return {Kind::InlineConst, 0, b};
          default:
            return {Kind::Literal, 0, b};
        }
    }

    /** Double-precision inline constant; only the hardware's special
     *  values (±0.5, ±1.0, ±2.0, ±4.0) are representable. */
    static Src
    f64const(double v)
    {
        uint64_t b = __builtin_bit_cast(uint64_t, v);
        if ((b & 0xffffffffull) != 0)
            return {Kind::Literal, 0, 0}; // unreachable for legal values
        return {Kind::InlineConstF64, 0, uint32_t(b >> 32)};
    }

    bool isLiteral() const { return kind == Kind::Literal; }
    bool valid() const { return kind != Kind::None; }
};

/** Destination operand. */
struct Dst
{
    enum class Kind : uint8_t { None, Vgpr, Sgpr };

    Kind kind = Kind::None;
    uint16_t reg = 0;

    static Dst none() { return {}; }
    static Dst vgpr(unsigned r) { return {Kind::Vgpr, uint16_t(r)}; }
    static Dst sgpr(unsigned r) { return {Kind::Sgpr, uint16_t(r)}; }
    static Dst vcc() { return sgpr(arch::RegVccLo); }
    static Dst execMask() { return sgpr(arch::RegExecLo); }

    bool valid() const { return kind != Kind::None; }
};

class Gcn3Inst : public arch::Instruction
{
  public:
    /** @{ Named factories (the assembler API). */
    static Gcn3Inst *sop1(Gcn3Op op, Dst dst, Src src);
    static Gcn3Inst *sop2(Gcn3Op op, Dst dst, Src s0, Src s1);
    static Gcn3Inst *sopc(Gcn3Op op, Src s0, Src s1);
    static Gcn3Inst *sopk(Gcn3Op op, Dst dst, int16_t k);
    static Gcn3Inst *sopp(Gcn3Op op, uint32_t imm = 0);
    static Gcn3Inst *branch(Gcn3Op op, size_t target_index);
    static Gcn3Inst *waitcnt(int vm, int lgkm);
    static Gcn3Inst *smem(Gcn3Op op, Dst dst, unsigned sbase,
                          uint32_t offset);
    static Gcn3Inst *vop1(Gcn3Op op, Dst dst, Src src);
    static Gcn3Inst *vop2(Gcn3Op op, Dst dst, Src s0, Src s1);
    static Gcn3Inst *vop3(Gcn3Op op, Dst dst, Src s0, Src s1, Src s2,
                          uint8_t neg_mask = 0);
    static Gcn3Inst *vcmp(Gcn3Op op, Src s0, Src s1);
    static Gcn3Inst *flat(Gcn3Op op, Dst dst, unsigned addr_vgpr,
                          unsigned data_vgpr = 0);
    static Gcn3Inst *ds(Gcn3Op op, Dst dst, unsigned addr_vgpr,
                        unsigned data_vgpr, uint32_t offset);
    /** @} */

    std::string disassemble() const override;
    arch::FuType fuType() const override { return desc(opc).fu; }
    unsigned sizeBytes() const override;

    /** Install the execution handler (src/gcn3/exec.cc). */
    void predecode(arch::ExecMeta &m) const override;

    Gcn3Op op() const { return opc; }
    Format format() const { return desc(opc).format; }

    /** @{ Branch-target plumbing: built as instruction indices,
     * resolved to byte offsets by resolveBranchTargets(). */
    size_t targetIndex() const { return targetIdx; }
    void setTargetIndex(size_t idx) { targetIdx = idx; }
    void setTargetOffset(Addr off) { targetOff = off; }
    Addr targetOffset() const { return targetOff; }
    /** @} */

    /** s_waitcnt thresholds (64 = don't care). */
    unsigned vmThreshold() const { return simm & 0xff; }
    unsigned lgkmThreshold() const { return (simm >> 8) & 0xff; }

    /** SOPP immediate (s_nop wait states, etc.). */
    uint32_t soppImm() const { return simm; }

  private:
    /** The execution handlers (exec.cc) read the operand fields and
     *  call the executors below for the cold op classes. */
    friend struct Gcn3Exec;

    /** Carries the flags of the opcode's descriptor row, except for a
     *  VOP1/VOP2/VOPC op promoted to the VOP3 encoding, which carries
     *  none. */
    Gcn3Inst(Gcn3Op op, Format encoding);

    /** Append the operand list: the destination, the register
     *  sources, then the row's implicit operands. */
    void finalizeOperands();

    /** Read a source: lane used only for Vgpr kinds. */
    uint32_t readSrc32(const arch::WfState &wf, unsigned i,
                       unsigned lane) const;
    uint64_t readSrc64(const arch::WfState &wf, unsigned i,
                       unsigned lane) const;

    void executeSalu(arch::WfState &wf) const;
    void executeSopp(arch::WfState &wf) const;
    /** The F64 (and to/from-F64 conversion) ops and V_DIV_SCALE. */
    void executeValu(arch::WfState &wf) const;
    /** The F64 compares. */
    void executeVcmp(arch::WfState &wf) const;

    Gcn3Op opc;
    Dst dst;
    Src srcs[3];
    uint8_t negMask = 0; ///< VOP3 floating-point negate modifiers
    uint32_t simm = 0;   ///< SOPK/SOPP constant, SMEM/DS offset
    size_t targetIdx = 0;
    Addr targetOff = InvalidAddr;
};

/** Patch all branch targets after the kernel is sealed. */
void resolveBranchTargets(arch::KernelCode &code);

} // namespace last::gcn3

#endif // LAST_GCN3_INST_HH
