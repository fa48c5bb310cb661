/**
 * @file
 * Frozen per-instruction golden vectors: the per-instruction oracle
 * for the execution handlers (DESIGN.md §4f).
 *
 * The case list walks each ISA's opcode enum, so a new opcode without
 * rows fails here. Each opcode runs in each of its operand variants
 * (HSAIL/PTXL data types and segments, GCN3 source kinds: VGPR, SGPR,
 * inline constant, literal, VOP3 negate) on a seeded wavefront, once
 * per exec-mask class: full, sparse and empty. The inputs include ±0,
 * NaNs, denormals, infinities, INT32_MIN, -1 and shift counts >= 32.
 * Each row holds a digest of the whole post-state: every vector and
 * scalar register, VCC/SCC/EXEC, nextPc/done/atBarrier, the
 * reconvergence stack, the PTXL predicate, convergence-barrier and
 * warp-split state, the pending MemAccess, and the bytes of every
 * seeded memory range and the LDS block.
 *
 * tests/golden/exec_vectors.txt was generated with the virtual
 * reference executor that predated the handlers as the only engine;
 * its header names the rows re-frozen since. On a mismatch the
 * computed table is written to exec_vectors.actual.txt in the working
 * directory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "arch/exec_meta.hh"
#include "arch/kernel_code.hh"
#include "gcn3/inst.hh"
#include "helpers.hh"
#include "hsail/inst.hh"
#include "hsail/lane_ops.hh"
#include "ptxl/inst.hh"

using namespace last;

namespace
{

/** Exec-mask classes. Sparse keeps lane 0 (INT32_MIN / -1) and lane 1
 *  (divide by zero) live. */
struct MaskClass
{
    const char *name;
    uint64_t mask;
};
constexpr MaskClass kMaskClasses[] = {
    {"full", ~0ull},
    {"sparse", 0x8000'0240'0810'2093ull},
    {"empty", 0},
};

/** @{ Seeded memory: a global buffer, the kernarg window, the private
 *  and spill arenas, and the LDS block. Every address a case below can
 *  reach lies inside one of them. */
constexpr Addr kGlobal = 0x10000;
constexpr Addr kKernarg = 0x20000;
constexpr Addr kPrivate = 0x30000;
constexpr Addr kSpill = 0x38000;
constexpr uint64_t kArenaStride = 16;
struct Range
{
    Addr base;
    uint64_t bytes;
};
constexpr Range kRanges[] = {
    {kGlobal, 0x200}, {kKernarg, 0x40}, {kPrivate, 0x2000}, {kSpill, 0x2000}};
constexpr uint64_t kLdsBytes = 512;
/** @} */

/** @{ Register plan. v4:v5 hold per-lane global addresses (lanes l and
 *  l+24 collide, so store and atomic lane order shows), v6 per-lane
 *  segment offsets, v8 a condition that is zero on every third lane, v9
 *  a uniformly nonzero one; v10/v12/v14 (with their high halves) are
 *  the sources, v20:v21 the destination. s12:s13 is the SGPR source,
 *  s30:s31 the scalar-load base. */
constexpr unsigned kNumVregs = 24;
constexpr uint16_t kDst = 20, kA = 10, kB = 12, kC = 14;
constexpr uint16_t kAddr = 4, kOff = 6, kCond = 8, kUniform = 9;
constexpr unsigned kSgprSrc = 12, kSgprBase = 30;
/** @} */

/** Special operand words: signed zeros, NaNs, denormals, infinities,
 *  INT32_MIN/MAX, -1, shift counts around 32, and double-precision
 *  high words (NaN, denormal, -inf) for register pairs. */
constexpr uint32_t kPool[] = {
    0x00000000, 0x80000000, 0x7fc00000, 0xffc00001, 0x00000001,
    0x807fffff, 0xffffffff, 0x7f800000, 0xff800000, 0x3f800000,
    0xc0200000, 0x0000001f, 0x00000020, 0x00000021, 0x7fffffff,
    0x00000007, 0x12345678, 0x0000ffff, 0x4b800000, 0x00800000,
    0xdeadbeef, 0x7ff80000, 0x000fffff, 0xfff00000,
};

/** Lanes 0..9 of the sources (lo/hi words of a, b, c): the pairs that
 *  must never be left to chance. */
constexpr uint32_t kEdgeLanes[][6] = {
    // INT32_MIN / -1 (and a 64-bit -2^31 / -1).
    {0x80000000, 0xffffffff, 0xffffffff, 0xffffffff, 3, 0},
    // x / 0.
    {5, 0, 0, 0, 0, 0},
    // +0.0f against -0.0f.
    {0, 0, 0x80000000, 0, 0x80000000, 0},
    // +0.0 against -0.0 (f64).
    {0, 0, 0, 0x80000000, 0, 0x80000000},
    // NaN against 1.0, negative NaN addend.
    {0x7fc00000, 0x7ff80000, 0x3f800000, 0x3ff00000, 0xffc00001,
     0xfff80000},
    // Denormals and the smallest normal.
    {1, 0, 0x807fffff, 0x800fffff, 0x00800000, 0x00100000},
    // -1; shift count 33; bitfield width 40.
    {0xffffffff, 0xffffffff, 33, 0, 40, 0},
    // Shift count 32; bitfield width 0.
    {0x12345678, 0x9abcdef0, 32, 0, 0, 0},
    // INT32_MAX and the largest finite double; shift count 64.
    {0x7fffffff, 0x7fefffff, 64, 0, 17, 0},
    // +inf against -inf.
    {0x7f800000, 0x7ff00000, 0xff800000, 0xfff00000, 0x3f800000,
     0x3ff00000},
};

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint32_t
poolWord(uint64_t key)
{
    return kPool[mix(key) % (sizeof(kPool) / sizeof(kPool[0]))];
}

/** FNV-1a over the post-state, field by field (no struct padding). */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ull;
    }

    template <typename T>
    void
    put(const T &v)
    {
        bytes(&v, sizeof(v));
    }
};

struct Wave
{
    mem::FunctionalMemory mem;
    mem::LdsBlock lds{kLdsBytes};
    arch::WfState st;

    Wave(IsaKind isa, size_t mask_class)
    {
        const uint64_t mask = kMaskClasses[mask_class].mask;
        st.isa = isa;
        st.wgId = 2;
        st.wgSize = 128;
        st.gridSize = 512;
        st.wfIdInWg = 1;
        st.firstWorkitem = 320;
        st.memory = &mem;
        st.lds = &lds;
        st.kernargBase = kKernarg;
        st.privateBase = kPrivate;
        st.spillBase = kSpill;
        st.privateStridePerWi = kArenaStride;
        st.spillStridePerWi = kArenaStride;

        st.vregs.assign(kNumVregs, arch::LaneVec{});
        for (unsigned r = 0; r < kNumVregs; ++r)
            for (unsigned l = 0; l < WavefrontSize; ++l)
                st.vregs[r][l] = poolWord((uint64_t(r) << 8) | l);
        for (unsigned l = 0; l < std::size(kEdgeLanes); ++l)
            for (unsigned k = 0; k < 6; ++k)
                st.vregs[kA + k][l] = kEdgeLanes[l][k];
        for (unsigned l = 0; l < WavefrontSize; ++l) {
            st.writeVreg64(kAddr, l, kGlobal + (l * 7 % 24) * 4);
            st.vregs[kOff][l] = (l * 5 % 32) * 4;
            st.vregs[kCond][l] = l % 3 ? l : 0;
            st.vregs[kUniform][l] = 1;
        }
        for (unsigned s = 0; s < st.sgprs.size(); ++s)
            st.sgprs[s] = poolWord(0x10000 | s);
        st.writeSgpr64(kSgprBase, kGlobal);

        for (const Range &r : kRanges) {
            std::vector<uint32_t> words(r.bytes / 4);
            for (size_t i = 0; i < words.size(); ++i)
                words[i] = poolWord(r.base + i);
            mem.write(r.base, words.data(), r.bytes);
        }
        for (Addr off = 0; off < kLdsBytes; off += 4)
            lds.write32(off, poolWord(0x20000 | off));

        st.initLaunch(isa == IsaKind::HSAIL ? ~0ull : mask);
        if (isa == IsaKind::HSAIL)
            st.rs.push_back({0, 0x100, mask});
        // VCC and SCC vary with the class so that both outcomes of
        // every conditional branch appear.
        st.vcc = mask_class == 2 ? 0 : 0x0123'4567'89ab'cdefull;
        st.scc = mask_class == 1;
        for (unsigned p = 0; p < st.pregs.size(); ++p)
            st.pregs[p] = mix(0x30000 | p);
        st.cbarExpected[1] = ~0ull;
        st.cbarArrived[1] = 0x00ff'0000'0000'0000ull;
        st.splits.push_back({0x200, 0x0f0f'0f0f'0f0f'0f0full});
    }

    uint64_t
    digest()
    {
        Digest d;
        for (const arch::LaneVec &row : st.vregs)
            d.put(row);
        d.put(st.sgprs);
        d.put(st.exec);
        d.put(st.vcc);
        d.put(uint8_t(st.scc));
        d.put(st.nextPc);
        d.put(uint8_t(st.done));
        d.put(uint8_t(st.atBarrier));
        d.put(uint64_t(st.rs.size()));
        for (const arch::RsEntry &e : st.rs) {
            d.put(e.pc);
            d.put(e.rpc);
            d.put(e.mask);
        }
        d.put(st.pregs);
        d.put(st.cbarExpected);
        d.put(st.cbarArrived);
        d.put(uint64_t(st.splits.size()));
        for (const arch::PtxlSplit &s : st.splits) {
            d.put(s.pc);
            d.put(s.mask);
        }
        d.put(uint8_t(st.pendingAccess.has_value()));
        if (st.pendingAccess) {
            const arch::MemAccess &a = *st.pendingAccess;
            d.put(uint32_t(a.kind));
            d.put(a.bytesPerLane);
            d.put(a.mask);
            d.put(a.laneAddrs);
            d.put(a.scalarAddr);
            d.put(a.scalarBytes);
        }
        for (const Range &r : kRanges) {
            std::vector<uint8_t> buf(r.bytes);
            mem.read(r.base, buf.data(), r.bytes);
            d.bytes(buf.data(), buf.size());
        }
        for (Addr off = 0; off < kLdsBytes; off += 4)
            d.put(lds.read32(off));
        return d.h;
    }
};

struct Case
{
    IsaKind isa;
    std::string name;
    std::function<arch::Instruction *()> make;
};

using Cases = std::vector<Case>;

constexpr hsail::DataType kTypes[] = {
    hsail::DataType::B32, hsail::DataType::U32, hsail::DataType::S32,
    hsail::DataType::F32, hsail::DataType::U64, hsail::DataType::F64,
};

constexpr hsail::CmpOp kCmps[] = {
    hsail::CmpOp::Eq, hsail::CmpOp::Ne, hsail::CmpOp::Lt,
    hsail::CmpOp::Le, hsail::CmpOp::Gt, hsail::CmpOp::Ge,
};

std::string
typed(const std::string &n, hsail::DataType t)
{
    return n + "." + hsail::typeName(t);
}

void
hsailCases(Cases &out)
{
    using namespace hsail;
    const Reg d{kDst}, a{kA}, b{kB}, c{kC};
    const Reg addr{kAddr}, off{kOff}, cond{kCond}, uni{kUniform};
    auto add = [&](std::string name, std::function<arch::Instruction *()> f) {
        out.push_back({IsaKind::HSAIL, std::move(name), std::move(f)});
    };
    auto addrFor = [&](Segment s) {
        switch (s) {
          case Segment::Global:
          case Segment::Readonly: return addr;
          case Segment::Kernarg:
          case Segment::Arg: return Reg{};
          default: return off;
        }
    };

    for (const hsail::OpDesc &row : hsail::kOpDescs) {
        const Opcode op = row.op;
        const std::string n = row.name;
        switch (op) {
          case Opcode::Cmp:
            for (DataType t : kTypes)
                for (CmpOp cc : kCmps)
                    add(typed(n + "_" + cmpOpName(cc), t), [=] {
                        return HsailInst::cmp(cc, t, d, a, b);
                    });
            break;
          case Opcode::CMov:
            for (DataType t : kTypes)
                add(typed(n, t),
                    [=] { return HsailInst::cmov(t, d, cond, b, c); });
            break;
          case Opcode::MovImm:
            for (DataType t : kTypes)
                add(typed(n, t), [=] {
                    return HsailInst::movImm(t, d, 0xfff00000'80000001ull);
                });
            break;
          case Opcode::Cvt:
            for (DataType dt : kTypes)
                for (DataType sdt : kTypes)
                    add(typed(typed(n, dt), sdt), [=] {
                        return HsailInst::cvt(dt, sdt, d, a);
                    });
            break;
          case Opcode::Ld:
            for (Segment s : {Segment::Global, Segment::Readonly,
                              Segment::Kernarg, Segment::Group,
                              Segment::Private, Segment::Spill,
                              Segment::Arg}) {
                const Reg ar = addrFor(s);
                for (DataType t : kTypes)
                    add(typed(n + "_" + segmentName(s), t),
                        [=] { return HsailInst::ld(s, t, d, ar, 8); });
                if (ar.idx == kOff)
                    add(n + "_" + segmentName(s) + ".u32/noaddr", [=] {
                        return HsailInst::ld(s, DataType::U32, d, Reg{}, 8);
                    });
            }
            break;
          case Opcode::St:
            for (Segment s : {Segment::Global, Segment::Readonly,
                              Segment::Group, Segment::Private,
                              Segment::Spill}) {
                const Reg ar = addrFor(s);
                for (DataType t : kTypes)
                    add(typed(n + "_" + segmentName(s), t),
                        [=] { return HsailInst::st(s, t, b, ar, 8); });
                if (ar.idx == kOff)
                    add(n + "_" + segmentName(s) + ".u32/noaddr", [=] {
                        return HsailInst::st(s, DataType::U32, b, Reg{}, 8);
                    });
            }
            break;
          case Opcode::AtomicAdd:
            add(n + ".u32", [=] {
                return HsailInst::atomicAdd(DataType::U32, d, addr, 4, b);
            });
            add(n + ".u32/nodst", [=] {
                return HsailInst::atomicAdd(DataType::U32, Reg{}, addr, 4,
                                            b);
            });
            break;
          case Opcode::Br:
            add(n, [] { return HsailInst::br(5); });
            break;
          case Opcode::CBr:
            for (bool if_zero : {false, true}) {
                for (Reg r : {cond, uni}) {
                    std::string v = std::string(if_zero ? "cbrz" : "cbr") +
                                    (r.idx == kCond ? "/mixed" : "/uniform");
                    add(v, [=] {
                        HsailInst *i = if_zero ? HsailInst::cbrz(r, 5)
                                               : HsailInst::cbr(r, 5);
                        i->setRpcOffset(0x60);
                        return i;
                    });
                }
            }
            break;
          case Opcode::Barrier:
            add(n, [] { return HsailInst::barrier(); });
            break;
          case Opcode::Ret:
            add(n, [] { return HsailInst::ret(); });
            break;
          case Opcode::Nop:
            add(n, [] { return HsailInst::nop(); });
            break;
          case Opcode::WorkItemAbsId:
          case Opcode::WorkItemId:
          case Opcode::WorkGroupId:
          case Opcode::WorkGroupSize:
          case Opcode::GridSize:
            add(n, [=] { return HsailInst::special(op, d); });
            break;
          default: {
            // Arithmetic, bitwise and moves.
            const unsigned ar = row.arity;
            for (DataType t : kTypes)
                add(typed(n, t), [=] {
                    return HsailInst::alu(op, t, d, a, ar >= 2 ? b : Reg{},
                                          ar >= 3 ? c : Reg{});
                });
          }
        }
    }
}

void
gcn3Cases(Cases &out)
{
    using namespace gcn3;
    const Src v0 = Src::vgpr(kA), v1 = Src::vgpr(kB), v2 = Src::vgpr(kC);
    const Src sg = Src::sgpr(kSgprSrc), sg2 = Src::sgpr(kSgprSrc + 2);
    const Src inl = Src::imm(-3), lit = Src::bits32(0x40490fdb);
    const Dst vd = Dst::vgpr(kDst), sd = Dst::sgpr(20);
    const std::pair<const char *, Src> kSop1Srcs[] = {
        {"s", sg}, {"i", inl}, {"l", lit}, {"vcc", Src::vcc()}};
    const std::tuple<const char *, Src, Src> kSop2Srcs[] = {
        {"ss", sg, sg2},
        {"si", sg, Src::imm(5)},
        {"ls", lit, sg2},
        {"vcc_exec", Src::vcc(), Src::execMask()}};
    auto add = [&](std::string name, std::function<arch::Instruction *()> f) {
        out.push_back({IsaKind::GCN3, std::move(name), std::move(f)});
    };

    for (const gcn3::OpDesc &row : gcn3::kOpDescs) {
        const Gcn3Op op = row.op;
        const std::string n = row.name;
        switch (row.format) {
          case Format::SOP1:
            for (const auto &[v, s] : kSop1Srcs)
                add(n + "/" + v,
                    [=] { return Gcn3Inst::sop1(op, sd, s); });
            add(n + "/dst_exec",
                [=] { return Gcn3Inst::sop1(op, Dst::execMask(), sg); });
            break;
          case Format::SOP2:
            for (const auto &[v, s0, s1] : kSop2Srcs)
                add(n + "/" + v,
                    [=] { return Gcn3Inst::sop2(op, sd, s0, s1); });
            add(n + "/dst_exec", [=] {
                return Gcn3Inst::sop2(op, Dst::execMask(), sg, sg2);
            });
            break;
          case Format::SOPC:
            for (const auto &[v, s0, s1] : kSop2Srcs)
                if (std::strcmp(v, "vcc_exec") != 0)
                    add(n + "/" + v,
                        [=] { return Gcn3Inst::sopc(op, s0, s1); });
            break;
          case Format::SOPK:
            for (int16_t k : {int16_t(-7), int16_t(0x1234)})
                add(n + "/k" + std::to_string(k),
                    [=] { return Gcn3Inst::sopk(op, sd, k); });
            break;
          case Format::SOPP:
            switch (op) {
              case Gcn3Op::S_BRANCH:
              case Gcn3Op::S_CBRANCH_SCC0:
              case Gcn3Op::S_CBRANCH_SCC1:
              case Gcn3Op::S_CBRANCH_VCCZ:
              case Gcn3Op::S_CBRANCH_VCCNZ:
              case Gcn3Op::S_CBRANCH_EXECZ:
              case Gcn3Op::S_CBRANCH_EXECNZ:
                add(n, [=] {
                    Gcn3Inst *i = Gcn3Inst::branch(op, 5);
                    i->setTargetOffset(0x48);
                    return i;
                });
                break;
              case Gcn3Op::S_WAITCNT:
                add(n, [] { return Gcn3Inst::waitcnt(0, 3); });
                break;
              default:
                add(n, [=] { return Gcn3Inst::sopp(op, 3); });
            }
            break;
          case Format::SMEM:
            add(n, [=] {
                return Gcn3Inst::smem(op, Dst::sgpr(40), kSgprBase, 16);
            });
            break;
          case Format::VOP1:
          case Format::VOP2:
          case Format::VOP3:
          case Format::VOPC: {
            // Source-kind variants: all VGPR, an SGPR in src0 or src1,
            // an inline constant, a literal, a double-precision inline
            // constant and the VOP3 negate modifier on every source.
            const Format f = row.format;
            const unsigned ar = f == Format::VOP1 ? 1
                                : f == Format::VOP3 ? 3 : 2;
            auto make = [=](Src s0, Src s1, Src s2,
                            uint8_t neg) -> Gcn3Inst * {
                if (neg)
                    return Gcn3Inst::vop3(
                        op, f == Format::VOPC ? Dst::none() : vd, s0, s1,
                        s2, neg);
                switch (f) {
                  case Format::VOP1: return Gcn3Inst::vop1(op, vd, s0);
                  case Format::VOP2: return Gcn3Inst::vop2(op, vd, s0, s1);
                  case Format::VOPC: return Gcn3Inst::vcmp(op, s0, s1);
                  default: return Gcn3Inst::vop3(op, vd, s0, s1, s2, 0);
                }
            };
            const Src s1 = ar >= 2 ? v1 : Src{};
            const Src s2 = ar >= 3 ? v2 : Src{};
            add(n + "/v", [=] { return make(v0, s1, s2, 0); });
            add(n + "/s0", [=] { return make(sg, s1, s2, 0); });
            add(n + "/i0", [=] { return make(inl, s1, s2, 0); });
            add(n + "/d0",
                [=] { return make(Src::f64const(-2.0), s1, s2, 0); });
            if (ar >= 2) {
                add(n + "/s1", [=] { return make(v0, sg, s2, 0); });
                add(n + "/l1", [=] { return make(v0, lit, s2, 0); });
            } else {
                add(n + "/l0", [=] { return make(lit, s1, s2, 0); });
            }
            add(n + "/neg", [=] { return make(v0, s1, s2, 7); });
            break;
          }
          case Format::FLAT: {
            const bool store = op == Gcn3Op::FLAT_STORE_DWORD ||
                               op == Gcn3Op::FLAT_STORE_DWORDX2;
            add(n, [=] {
                return Gcn3Inst::flat(op, store ? Dst::none() : vd, kAddr,
                                      kB);
            });
            if (op == Gcn3Op::FLAT_ATOMIC_ADD)
                add(n + "/nodst", [=] {
                    return Gcn3Inst::flat(op, Dst::none(), kAddr, kB);
                });
            break;
          }
          case Format::DS: {
            const bool store = op == Gcn3Op::DS_WRITE_B32 ||
                               op == Gcn3Op::DS_WRITE_B64;
            add(n, [=] {
                return Gcn3Inst::ds(op, store ? Dst::none() : vd, kOff, kB,
                                    8);
            });
            break;
          }
        }
    }
}

void
ptxlCases(Cases &out)
{
    using namespace ptxl;
    using hsail::Opcode;
    const Reg d{kDst}, a{kA}, b{kB}, c{kC}, addr{kAddr}, off{kOff};
    auto add = [&](std::string name, std::function<arch::Instruction *()> f) {
        out.push_back({IsaKind::PTXL, std::move(name), std::move(f)});
    };
    constexpr Opcode kSpecials[] = {
        Opcode::WorkItemAbsId, Opcode::WorkItemId, Opcode::WorkGroupId,
        Opcode::WorkGroupSize, Opcode::GridSize};
    // IL opcodes that lower to something other than a PTXL ALU op.
    auto notAlu = [&](Opcode op) {
        switch (op) {
          case Opcode::Cmp: case Opcode::CMov: case Opcode::Ld:
          case Opcode::St: case Opcode::AtomicAdd: case Opcode::Br:
          case Opcode::CBr: case Opcode::Barrier: case Opcode::Ret:
          case Opcode::Nop: case Opcode::WorkItemAbsId:
          case Opcode::WorkItemId: case Opcode::WorkGroupId:
          case Opcode::WorkGroupSize: case Opcode::GridSize:
            return true;
          default:
            return false;
        }
    };
    auto loads = [&](const std::string &n,
                     std::initializer_list<Segment> segs, Reg ar) {
        for (Segment s : segs) {
            for (DataType t : kTypes)
                add(typed(n + "_" + hsail::segmentName(s), t),
                    [=] { return PtxlInst::ld(s, t, d, ar, 8); });
            if (ar.idx == kOff)
                add(n + "_" + hsail::segmentName(s) + ".u32/noaddr", [=] {
                    return PtxlInst::ld(s, DataType::U32, d, Reg{}, 8);
                });
        }
    };
    auto stores = [&](const std::string &n,
                      std::initializer_list<Segment> segs, Reg ar) {
        for (Segment s : segs) {
            for (DataType t : kTypes)
                add(typed(n + "_" + hsail::segmentName(s), t),
                    [=] { return PtxlInst::st(s, t, b, ar, 8); });
            if (ar.idx == kOff)
                add(n + "_" + hsail::segmentName(s) + ".u32/noaddr", [=] {
                    return PtxlInst::st(s, DataType::U32, b, Reg{}, 8);
                });
        }
    };

    for (const ptxl::OpDesc &row : ptxl::kOpDescs) {
        const PtxlOp op = row.op;
        const std::string n = row.name;
        switch (op) {
          case PtxlOp::Alu:
            for (const hsail::OpDesc &il : hsail::kOpDescs) {
                const Opcode sem = il.op;
                if (notAlu(sem))
                    continue;
                const std::string sn = n + "_" + il.name;
                if (sem == Opcode::MovImm) {
                    for (DataType t : kTypes)
                        add(typed(sn, t), [=] {
                            return PtxlInst::movImm(t, d,
                                                    0xfff00000'80000001ull);
                        });
                    continue;
                }
                if (sem == Opcode::Cvt) {
                    for (DataType dt : kTypes)
                        for (DataType sdt : kTypes)
                            add(typed(typed(sn, dt), sdt), [=] {
                                return PtxlInst::cvt(dt, sdt, d, a);
                            });
                    continue;
                }
                const unsigned ar = il.arity;
                for (DataType t : kTypes) {
                    add(typed(sn, t), [=] {
                        return PtxlInst::alu(sem, t, d, a,
                                             ar >= 2 ? b : Reg{},
                                             ar >= 3 ? c : Reg{});
                    });
                    // A missing source reads RZ.
                    if (ar >= 2)
                        add(typed(sn, t) + "/rz", [=] {
                            return PtxlInst::alu(sem, t, d, a);
                        });
                }
            }
            break;
          case PtxlOp::Isetp:
            for (DataType t : kTypes)
                for (hsail::CmpOp cc : kCmps) {
                    const std::string cn =
                        typed(n + "_" + hsail::cmpOpName(cc), t);
                    add(cn,
                        [=] { return PtxlInst::isetp(cc, t, 2, a, b); });
                    add(cn + "/rz",
                        [=] { return PtxlInst::isetp(cc, t, 2, a); });
                }
            break;
          case PtxlOp::Sel:
            for (DataType t : kTypes)
                add(typed(n, t), [=] { return PtxlInst::sel(t, d, 1, a, b); });
            break;
          case PtxlOp::P2r:
            add(n, [=] { return PtxlInst::p2r(d, 1); });
            break;
          case PtxlOp::S2r:
            for (Opcode sem : kSpecials)
                add(n + "_" + hsail::opcodeName(sem),
                    [=] { return PtxlInst::s2r(sem, d); });
            break;
          case PtxlOp::Ldg:
            loads(n, {Segment::Global, Segment::Readonly}, addr);
            break;
          case PtxlOp::Stg:
            stores(n, {Segment::Global}, addr);
            break;
          case PtxlOp::Atom:
            add(n + ".u32", [=] {
                return PtxlInst::atomicAdd(DataType::U32, d, addr, 4, b);
            });
            add(n + ".u32/nodst", [=] {
                return PtxlInst::atomicAdd(DataType::U32, Reg{}, addr, 4, b);
            });
            break;
          case PtxlOp::Lds:
            loads(n, {Segment::Group}, off);
            break;
          case PtxlOp::Sts:
            stores(n, {Segment::Group}, off);
            break;
          case PtxlOp::Ldl:
            loads(n, {Segment::Private, Segment::Spill}, off);
            break;
          case PtxlOp::Stl:
            stores(n, {Segment::Private, Segment::Spill}, off);
            break;
          case PtxlOp::Ldc:
            loads(n, {Segment::Kernarg, Segment::Arg}, Reg{});
            break;
          case PtxlOp::Bra:
            add(n, [] { return PtxlInst::bra(5); });
            add(n + "/p3", [] { return PtxlInst::braIf(3, false, 5); });
            add(n + "/!p3", [] { return PtxlInst::braIf(3, true, 5); });
            break;
          case PtxlOp::Bssy:
            add(n, [] { return PtxlInst::bssy(1); });
            break;
          case PtxlOp::Bsync:
            add(n, [] { return PtxlInst::bsync(1); });
            break;
          case PtxlOp::Bar:
            add(n, [] { return PtxlInst::barrier(); });
            break;
          case PtxlOp::Exit:
            add(n, [] { return PtxlInst::exitProgram(); });
            break;
          case PtxlOp::Nop:
            add(n, [] { return PtxlInst::nop(); });
            break;
        }
    }
}

Cases
allCases()
{
    Cases cases;
    hsailCases(cases);
    gcn3Cases(cases);
    ptxlCases(cases);
    return cases;
}

/** "<ISA> <case> <mask class>" -> digest, over every case. */
std::map<std::string, uint64_t>
computeRows()
{
    std::map<std::string, uint64_t> rows;
    for (const Case &c : allCases()) {
        for (size_t m = 0; m < std::size(kMaskClasses); ++m) {
            const std::string key = std::string(isaName(c.isa)) + " " +
                                    c.name + " " + kMaskClasses[m].name;
            Wave w(c.isa, m);
            try {
                test::execOne(std::unique_ptr<arch::Instruction>(c.make()),
                              w.st);
            } catch (const std::exception &e) {
                ADD_FAILURE() << key << " threw: " << e.what();
                continue;
            }
            EXPECT_TRUE(rows.emplace(key, w.digest()).second)
                << "duplicate case " << key;
        }
    }
    return rows;
}

const char *kGoldenPath = LAST_SOURCE_DIR "/tests/golden/exec_vectors.txt";

std::map<std::string, uint64_t>
readGolden()
{
    std::map<std::string, uint64_t> rows;
    std::ifstream in(kGoldenPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.rfind(' ');
        rows[line.substr(0, sp)] =
            std::stoull(line.substr(sp + 1), nullptr, 16);
    }
    return rows;
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

const char *
latClassName(arch::LatClass c)
{
    switch (c) {
      case arch::LatClass::VAlu: return "VAlu";
      case arch::LatClass::VAluF64: return "VAluF64";
      case arch::LatClass::SAlu: return "SAlu";
      case arch::LatClass::Branch: return "Branch";
      case arch::LatClass::Lds: return "Lds";
      case arch::LatClass::Mem: return "Mem";
      case arch::LatClass::Special: return "Special";
    }
    return "?";
}

/** The static half of a case: its predecoded ExecMeta (flags, FU,
 *  latency class, size, operand list, width-expanded vector reads and
 *  writes, predigested constants) and its disassembly, as one line. */
std::string
metaRow(const Case &c)
{
    arch::KernelCode code(c.isa, "one");
    code.append(std::unique_ptr<arch::Instruction>(c.make()));
    code.seal();
    const arch::ExecMeta &m = code.execMetas()[0];
    std::ostringstream os;
    os << "flags=0x" << std::hex << m.flags << std::dec
       << " fu=" << arch::fuTypeName(m.fu)
       << " lat=" << latClassName(m.latClass)
       << " size=" << unsigned(m.size) << " ops=[";
    for (unsigned k = 0; k < m.numOps; ++k) {
        const arch::RegOperand &o = m.ops[k];
        os << (k ? " " : "")
           << (o.cls == arch::RegClass::Vector ? "v"
               : o.cls == arch::RegClass::Scalar ? "s" : "-")
           << o.idx << "x" << unsigned(o.width) << (o.isDef ? "d" : "u");
    }
    os << "] rd=[";
    for (unsigned k = 0; k < m.numVecRd; ++k)
        os << (k ? " " : "") << m.vecRd[k];
    os << "] wr=[";
    for (unsigned k = 0; k < m.numVecWr; ++k)
        os << (k ? " " : "") << m.vecWr[k];
    os << "] c0=" << m.c0 << " c1=" << m.c1 << " imm=" << m.imm << " | "
       << m.inst->disassemble();
    return os.str();
}

const char *kMetaPath = LAST_SOURCE_DIR "/tests/golden/exec_meta.txt";

} // namespace

/**
 * The static properties of every case, frozen: tests/golden/
 * exec_meta.txt holds one "<ISA> <case> <meta>" row per case. It was
 * generated before the per-ISA opcode descriptor tables existed, from
 * the property switches they replaced, and pins that the tables
 * reproduce every flag, FU, latency class, size, operand and
 * disassembly. On a mismatch the computed table is written to
 * exec_meta.actual.txt in the working directory.
 */
TEST(ExecGolden, EveryCaseMatchesItsFrozenStaticMeta)
{
    std::map<std::string, std::string> golden;
    {
        std::ifstream in(kMetaPath);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const size_t sp = line.find(' ', line.find(' ') + 1);
            golden[line.substr(0, sp)] = line.substr(sp + 1);
        }
    }
    EXPECT_FALSE(golden.empty()) << "cannot read " << kMetaPath;

    std::map<std::string, std::string> actual;
    for (const Case &c : allCases()) {
        const std::string key = std::string(isaName(c.isa)) + " " + c.name;
        EXPECT_TRUE(actual.emplace(key, metaRow(c)).second)
            << "duplicate case " << key;
    }

    unsigned bad = 0;
    for (const auto &[key, row] : actual) {
        auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden meta row for " << key;
            ++bad;
        } else if (it->second != row) {
            ADD_FAILURE() << key << ": meta\n  " << row << "\ngolden\n  "
                          << it->second;
            ++bad;
        }
    }
    for (const auto &[key, row] : golden) {
        if (!actual.count(key)) {
            ADD_FAILURE() << "golden meta row " << key << " has no case";
            ++bad;
        }
    }
    if (bad) {
        std::ofstream out("exec_meta.actual.txt");
        for (const auto &[key, row] : actual)
            out << key << " " << row << "\n";
    }
    EXPECT_EQ(bad, 0u) << "computed table written to exec_meta.actual.txt";
}

TEST(ExecGolden, EveryOpcodeMatchesItsFrozenRows)
{
    const auto golden = readGolden();
    EXPECT_FALSE(golden.empty()) << "cannot read " << kGoldenPath;
    const auto actual = computeRows();

    unsigned bad = 0;
    for (const auto &[key, dig] : actual) {
        auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden row for " << key;
            ++bad;
        } else if (it->second != dig) {
            ADD_FAILURE() << key << ": post-state digest " << hex16(dig)
                          << ", golden " << hex16(it->second);
            ++bad;
        }
    }
    for (const auto &[key, dig] : golden) {
        if (!actual.count(key)) {
            ADD_FAILURE() << "golden row " << key << " has no case";
            ++bad;
        }
    }
    if (bad) {
        std::ofstream out("exec_vectors.actual.txt");
        for (const auto &[key, dig] : actual)
            out << key << " " << hex16(dig) << "\n";
    }
    EXPECT_EQ(bad, 0u) << "computed table written to "
                          "exec_vectors.actual.txt";
}

/** Each descriptor table names every opcode once (the static_asserts
 *  next to the tables pin that row i is opcode i). */
TEST(OpcodeTables, NamesAreUnique)
{
    auto expectUnique = [](const auto &rows) {
        std::set<std::string> seen;
        for (const auto &row : rows)
            EXPECT_TRUE(seen.insert(row.name).second)
                << "duplicate name " << row.name;
    };
    expectUnique(gcn3::kOpDescs);
    expectUnique(hsail::kOpDescs);
    expectUnique(ptxl::kOpDescs);
}

/** A GCN3 row's format implies its FU and its handler family: SOPP
 *  issues to the branch unit exactly for the branches, and a vector
 *  ALU or compare lane kernel reads one to three sources. */
TEST(OpcodeTables, Gcn3RowsAgreeWithTheirFormat)
{
    using gcn3::Family;
    using gcn3::Format;
    using arch::FuType;
    for (const gcn3::OpDesc &row : gcn3::kOpDescs) {
        FuType fu = FuType::VAlu;
        std::set<Family> families;
        switch (row.format) {
          case Format::SOP1:
          case Format::SOP2:
          case Format::SOPC:
          case Format::SOPK:
            fu = FuType::SAlu;
            families = {Family::Salu};
            break;
          case Format::SOPP:
            fu = (row.flags & arch::IsBranch) ? FuType::Branch
                                              : FuType::Special;
            families = {Family::Sopp};
            break;
          case Format::SMEM:
            fu = FuType::SMem;
            families = {Family::Smem};
            break;
          case Format::VOP1:
          case Format::VOP2:
          case Format::VOP3:
            families = {Family::ValuLane, Family::Carry, Family::ValuCold};
            break;
          case Format::VOPC:
            families = {Family::VcmpLane, Family::VcmpCold};
            break;
          case Format::FLAT:
            fu = FuType::VMem;
            families = {Family::Flat};
            break;
          case Format::DS:
            fu = FuType::Lds;
            families = {Family::Ds};
            break;
        }
        EXPECT_EQ(row.fu, fu) << row.name;
        EXPECT_TRUE(families.count(row.family)) << row.name;
        const bool lane = row.family == Family::ValuLane ||
                          row.family == Family::Carry ||
                          row.family == Family::VcmpLane;
        if (lane) {
            EXPECT_TRUE(row.arity >= 1 && row.arity <= 3) << row.name;
        }
    }
}

/** IL rows: only ALU opcodes have lane kernels; PTXL rows: exactly the
 *  memory operations have an address operand. */
TEST(OpcodeTables, IlAndPtxlRowsAreConsistent)
{
    for (const hsail::OpDesc &row : hsail::kOpDescs) {
        if (row.lane32 || row.trans) {
            EXPECT_EQ(row.cls, hsail::IlClass::Alu) << row.name;
        }
        EXPECT_LE(row.arity, 3) << row.name;
    }
    for (const ptxl::OpDesc &row : ptxl::kOpDescs)
        EXPECT_EQ(row.addrRegs != 0, (row.flags & arch::IsMemory) != 0)
            << row.name;
}
