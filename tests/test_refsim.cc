/**
 * @file
 * Unit tests for the reference ISS: per-instruction semantics against
 * hand-computed results, control flow, memory, MMIO and stop reasons.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "assembler/assembler.hh"
#include "core/rissp.hh"
#include "sim/refsim.hh"
#include "util/logging.hh"

namespace rissp
{
namespace
{

/** Run a snippet and return the simulator for inspection. */
RefSim
runSnippet(const std::string &body, StopReason expect)
{
    Program p = assemble(body);
    RefSim sim;
    sim.reset(p);
    RunResult r = sim.run(1'000'000);
    EXPECT_EQ(r.reason, expect);
    return sim;
}

TEST(RefSim, ArithmeticBasics)
{
    RefSim sim = runSnippet(R"(
        li a0, 100
        li a1, -30
        add a2, a0, a1      # 70
        sub a3, a0, a1      # 130
        xor a4, a0, a1
        and a5, a0, a1
        or t0, a0, a1
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(12), 70u);
    EXPECT_EQ(sim.reg(13), 130u);
    EXPECT_EQ(sim.reg(14), 100u ^ static_cast<uint32_t>(-30));
    EXPECT_EQ(sim.reg(15), 100u & static_cast<uint32_t>(-30));
    EXPECT_EQ(sim.reg(5), 100u | static_cast<uint32_t>(-30));
}

TEST(RefSim, ShiftsAndCompares)
{
    RefSim sim = runSnippet(R"(
        li a0, -8
        srai a1, a0, 1       # -4
        srli a2, a0, 1       # big positive
        slli a3, a0, 2       # -32
        li a4, 3
        sll a5, a4, a4       # 24
        slt t0, a0, a4       # -8 < 3 signed -> 1
        sltu t1, a0, a4      # unsigned -> 0
        slti t2, a0, -7      # -8 < -7 -> 1
        sltiu s0, a4, 4      # 3 < 4 -> 1
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(11), static_cast<uint32_t>(-4));
    EXPECT_EQ(sim.reg(12), static_cast<uint32_t>(-8) >> 1);
    EXPECT_EQ(sim.reg(13), static_cast<uint32_t>(-32));
    EXPECT_EQ(sim.reg(15), 24u);
    EXPECT_EQ(sim.reg(5), 1u);
    EXPECT_EQ(sim.reg(6), 0u);
    EXPECT_EQ(sim.reg(7), 1u);
    EXPECT_EQ(sim.reg(8), 1u);
}

TEST(RefSim, ShiftAmountIsMasked)
{
    RefSim sim = runSnippet(R"(
        li a0, 1
        li a1, 33            # shift by 33 -> uses 33 & 31 = 1
        sll a2, a0, a1
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(12), 2u);
}

TEST(RefSim, LoadStoreWidths)
{
    RefSim sim = runSnippet(R"(
        .data
    buf:
        .space 16
        .text
        la a0, buf
        li a1, 0x89ABCDEF
        sw a1, 0(a0)
        lb a2, 0(a0)         # 0xEF sign-extended
        lbu a3, 0(a0)        # 0xEF
        lh a4, 0(a0)         # 0xCDEF sign-extended
        lhu a5, 0(a0)        # 0xCDEF
        lw t0, 0(a0)
        sb a1, 4(a0)
        lw t1, 4(a0)         # only low byte stored
        sh a1, 8(a0)
        lw t2, 8(a0)         # only low half stored
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(12), 0xFFFFFFEFu);
    EXPECT_EQ(sim.reg(13), 0xEFu);
    EXPECT_EQ(sim.reg(14), 0xFFFFCDEFu);
    EXPECT_EQ(sim.reg(15), 0xCDEFu);
    EXPECT_EQ(sim.reg(5), 0x89ABCDEFu);
    EXPECT_EQ(sim.reg(6), 0xEFu);
    EXPECT_EQ(sim.reg(7), 0xCDEFu);
}

TEST(RefSim, X0IsHardwiredZero)
{
    RefSim sim = runSnippet(R"(
        li a0, 5
        add zero, a0, a0
        addi zero, zero, 100
        add a1, zero, zero
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(0), 0u);
    EXPECT_EQ(sim.reg(11), 0u);
}

TEST(RefSim, BranchMatrix)
{
    // Each taken branch skips an addi that would poison the result.
    RefSim sim = runSnippet(R"(
        li a0, 0             # failure accumulator
        li a1, -1
        li a2, 1
        beq a1, a1, L1
        addi a0, a0, 1
    L1: bne a1, a2, L2
        addi a0, a0, 1
    L2: blt a1, a2, L3       # -1 < 1 signed
        addi a0, a0, 1
    L3: bge a2, a1, L4
        addi a0, a0, 1
    L4: bltu a2, a1, L5      # 1 < 0xFFFFFFFF unsigned
        addi a0, a0, 1
    L5: bgeu a1, a2, L6
        addi a0, a0, 1
    L6: ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(10), 0u);
}

TEST(RefSim, JalJalrLinkValues)
{
    RefSim sim = runSnippet(R"(
    _start:
        jal ra, func         # pc=0, link=4
        ecall
    func:
        addi a1, ra, 0
        jalr zero, 0(ra)
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(11), 4u);
}

TEST(RefSim, JalrClearsBit0)
{
    RefSim sim = runSnippet(R"(
        la a0, target
        addi a0, a0, 1       # misaligned on purpose
        jalr ra, 0(a0)       # must land on target anyway
        ecall
    target:
        li a1, 55
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(11), 55u);
}

TEST(RefSim, AuipcIsPcRelative)
{
    RefSim sim = runSnippet(R"(
        nop
        auipc a0, 0          # pc of this instruction = 4
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(10), 4u);
}

TEST(RefSim, TrapOnInvalidInstruction)
{
    Program p = assemble(".word 0xffffffff");
    RefSim sim;
    sim.reset(p);
    RunResult r = sim.run();
    EXPECT_EQ(r.reason, StopReason::Trapped);
    EXPECT_EQ(r.stopPc, 0u);
}

TEST(RefSim, StepLimit)
{
    Program p = assemble("loop: jal zero, loop");
    RefSim sim;
    sim.reset(p);
    RunResult r = sim.run(1000);
    EXPECT_EQ(r.reason, StopReason::StepLimit);
    EXPECT_EQ(r.instret, 1000u);
}

TEST(RefSim, MmioOutput)
{
    RefSim sim = runSnippet(R"(
        li a1, 0xFFFF0000    # kPutWord
        li a2, 0xFFFF0004    # kPutChar
        li a0, 42
        sw a0, 0(a1)
        li a0, 1234
        sw a0, 0(a1)
        li a0, 'H'
        sb a0, 0(a2)
        li a0, 'i'
        sb a0, 0(a2)
        ecall
    )", StopReason::Halted);
    ASSERT_EQ(sim.outputWords().size(), 2u);
    EXPECT_EQ(sim.outputWords()[0], 42u);
    EXPECT_EQ(sim.outputWords()[1], 1234u);
    EXPECT_EQ(sim.outputText(), "Hi");
}

TEST(RefSim, RetireTraceFields)
{
    Program p = assemble(R"(
        li a0, 3
        li a1, 4
        add a2, a0, a1
        sw a2, 0x100(zero)
        lw a3, 0x100(zero)
        ecall
    )");
    RefSim sim;
    sim.reset(p);
    RetireEvent e0 = sim.step(); // addi a0, zero, 3
    EXPECT_EQ(e0.order, 0u);
    EXPECT_EQ(e0.pc, 0u);
    EXPECT_EQ(e0.nextPc, 4u);
    EXPECT_EQ(e0.rd, 10);
    EXPECT_EQ(e0.rdData, 3u);
    sim.step();
    RetireEvent e2 = sim.step(); // add
    EXPECT_EQ(e2.rs1Data, 3u);
    EXPECT_EQ(e2.rs2Data, 4u);
    EXPECT_EQ(e2.rdData, 7u);
    RetireEvent e3 = sim.step(); // sw
    EXPECT_TRUE(e3.memWrite);
    EXPECT_EQ(e3.memAddr, 0x100u);
    EXPECT_EQ(e3.memData, 7u);
    EXPECT_EQ(e3.memBytes, 4);
    RetireEvent e4 = sim.step(); // lw
    EXPECT_TRUE(e4.memRead);
    EXPECT_EQ(e4.memData, 7u);
    RetireEvent e5 = sim.step(); // ecall
    EXPECT_TRUE(e5.halt);
}

TEST(Memory, SparsePagesAndEndianness)
{
    Memory mem;
    EXPECT_EQ(mem.loadWord(0x12345678), 0u);
    EXPECT_EQ(mem.touchedPages(), 0u);
    mem.storeWord(0x1000, 0xA1B2C3D4);
    EXPECT_EQ(mem.loadByte(0x1000), 0xD4);
    EXPECT_EQ(mem.loadByte(0x1003), 0xA1);
    EXPECT_EQ(mem.loadHalf(0x1002), 0xA1B2);
    EXPECT_EQ(mem.touchedPages(), 1u);
    // Cross-page word access.
    mem.storeWord(0x1FFE, 0x11223344);
    EXPECT_EQ(mem.loadWord(0x1FFE), 0x11223344u);
    EXPECT_EQ(mem.touchedPages(), 2u);
}

TEST(Memory, DenseSpanFastPath)
{
    Memory mem;
    mem.reserveSpan(0x1000, 0x1000);
    EXPECT_EQ(mem.spanBase(), 0x1000u);
    EXPECT_EQ(mem.spanSize(), 0x1000u);

    // Accesses inside the span never touch the page map.
    mem.storeWord(0x1000, 0xA1B2C3D4);
    mem.storeHalf(0x1800, 0xBEEF);
    mem.storeByte(0x1FFF, 0x7E);
    EXPECT_EQ(mem.touchedPages(), 0u);
    EXPECT_EQ(mem.loadWord(0x1000), 0xA1B2C3D4u);
    EXPECT_EQ(mem.loadByte(0x1000), 0xD4);
    EXPECT_EQ(mem.loadByte(0x1003), 0xA1);
    EXPECT_EQ(mem.loadHalf(0x1800), 0xBEEFu);
    EXPECT_EQ(mem.loadByte(0x1FFF), 0x7Eu);

    // Outside the span falls back to sparse pages.
    mem.storeWord(0x4000, 0x01020304);
    EXPECT_EQ(mem.loadWord(0x4000), 0x01020304u);
    EXPECT_EQ(mem.touchedPages(), 1u);
    // Below the span too (addr - base wraps around).
    mem.storeByte(0x0FFF, 0x55);
    EXPECT_EQ(mem.loadByte(0x0FFF), 0x55u);
}

TEST(Memory, DenseSparseBoundaryAccessesCompose)
{
    Memory mem;
    mem.reserveSpan(0x1000, 0x1000); // span = [0x1000, 0x2000)

    // A word write straddling the end of the span: two bytes land in
    // the arena, two in a page, and the read stitches them back.
    mem.storeWord(0x1FFE, 0x11223344);
    EXPECT_EQ(mem.loadWord(0x1FFE), 0x11223344u);
    EXPECT_EQ(mem.loadByte(0x1FFF), 0x33u);
    EXPECT_EQ(mem.loadByte(0x2000), 0x22u);
    EXPECT_EQ(mem.touchedPages(), 1u);

    // Same at the low edge.
    mem.storeHalf(0x0FFF, 0xA5C3);
    EXPECT_EQ(mem.loadHalf(0x0FFF), 0xA5C3u);
    EXPECT_EQ(mem.loadByte(0x0FFF), 0xC3u);
    EXPECT_EQ(mem.loadByte(0x1000), 0xA5u);

    // Block copies across the boundary round-trip too.
    const uint8_t blob[] = {1, 2, 3, 4, 5, 6, 7, 8};
    mem.storeBlock(0x1FFC, blob, sizeof blob);
    std::vector<uint8_t> back = mem.loadBlock(0x1FFC, sizeof blob);
    EXPECT_EQ(back, std::vector<uint8_t>(blob, blob + sizeof blob));
}

TEST(Memory, ReserveSpanMigratesPageContents)
{
    Memory mem;
    mem.storeWord(0x1000, 0xCAFEBABE);
    mem.storeByte(0x1FFF, 0x99);
    mem.storeWord(0x8000, 0x12345678); // outside the future span
    mem.reserveSpan(0x1000, 0x1000);
    EXPECT_EQ(mem.loadWord(0x1000), 0xCAFEBABEu);
    EXPECT_EQ(mem.loadByte(0x1FFF), 0x99u);
    EXPECT_EQ(mem.loadWord(0x8000), 0x12345678u);
    // The fully-covered page was absorbed into the arena, not kept
    // as an unreachable shadow; the out-of-span page survives.
    EXPECT_EQ(mem.touchedPages(), 1u);

    // clear() drops the span along with the pages.
    mem.clear();
    EXPECT_EQ(mem.spanSize(), 0u);
    EXPECT_EQ(mem.loadWord(0x1000), 0u);
}

TEST(Memory, ResetSameSpanZeroesEverythingAWriteTouched)
{
    // Eight arena pages; each kind of write dirties its own pages.
    constexpr uint32_t kBase = 0x1000, kSize = 0x8000;
    Memory mem;
    mem.reset(kBase, kSize);
    mem.storeByte(kBase, 0x11);               // page 0: first byte
    mem.storeWord(0x2FFE, 0xDEADBEEF);       // pages 1-2: straddles
    const std::vector<uint8_t> blob(0x1800, 0xA5);
    mem.storeBlock(0x4800, blob.data(), blob.size()); // pages 3-4
    mem.storeHalf(kBase + kSize - 2, 0x2233); // page 7: last bytes
    mem.storeWord(0x10000, 0x44556677);       // sparse, past the span
    mem.storeByte(0x0FFF, 0x88);              // sparse, below it
    EXPECT_EQ(mem.touchedPages(), 2u);

    mem.reset(kBase, kSize);
    const uint8_t image[] = {1, 2, 3, 4, 5};
    mem.storeBlock(0x6000, image, sizeof image);
    EXPECT_EQ(mem.spanBase(), kBase);
    EXPECT_EQ(mem.spanSize(), kSize);
    EXPECT_EQ(mem.touchedPages(), 0u);
    for (uint32_t a = kBase; a < kBase + kSize; ++a) {
        const uint8_t want = a >= 0x6000 && a < 0x6000 + sizeof image
            ? image[a - 0x6000] : 0;
        ASSERT_EQ(mem.loadByte(a), want) << std::hex << a;
    }
    EXPECT_EQ(mem.loadWord(0x10000), 0u);
    EXPECT_EQ(mem.loadByte(0x0FFF), 0u);
}

TEST(Memory, ResetWithNewGeometryReallocates)
{
    Memory mem;
    mem.reset(0x1000, 0x3000);
    mem.storeWord(0x1000, 0xCAFEBABE);
    mem.storeWord(0x3FFC, 0x12345678);
    // Same size one page higher: no dirty page lines up any more.
    mem.reset(0x2000, 0x3000);
    EXPECT_EQ(mem.spanBase(), 0x2000u);
    EXPECT_EQ(mem.spanSize(), 0x3000u);
    for (uint32_t a = 0x1000; a < 0x5000; a += 4)
        ASSERT_EQ(mem.loadWord(a), 0u) << std::hex << a;
    // Different size at the old base.
    mem.storeWord(0x2000, 0xFFFFFFFF);
    mem.reset(0x2000, 0x1000);
    EXPECT_EQ(mem.spanSize(), 0x1000u);
    EXPECT_EQ(mem.loadWord(0x2000), 0u);
}

/** Two small programs sharing a span geometry: the first dirties the
 *  stack, its data and the top of the span; the second reads those
 *  addresses and must see zeros. */
std::vector<Program>
memoryReuseProgramPair()
{
    return {
        assemble(R"(
            .data
        buf: .word 1, 2, 3, 4
            .text
        _start:
            lui sp, 0x80
            addi sp, sp, -16
            li a0, -1
            sw a0, 0(sp)
            sw a0, 12(sp)
            la a1, buf
            sw a0, 4(a1)
            li a2, 0x7FFFC
            sw a0, 0(a2)
            li a2, 0x40FFE
            sh a0, 0(a2)
            ecall
        )"),
        assemble(R"(
            .text
        _start:
            lui sp, 0x80
            lw a0, -16(sp)
            lw a1, -4(sp)
            add a0, a0, a1
            li a2, 0x10004
            lw a1, 0(a2)
            add a0, a0, a1
            li a2, 0x40FFC
            lw a1, 0(a2)
            add a0, a0, a1
            li a2, 0x41000
            lw a1, 0(a2)
            add a0, a0, a1
            li a3, 0xFFFF0000
            sw a0, 0(a3)
            addi a0, a0, 7
            ecall
        )"),
    };
}

bool
sameTrace(const std::vector<RetireEvent> &a,
          const std::vector<RetireEvent> &b)
{
    auto key = [](const RetireEvent &e) {
        return std::tie(e.order, e.pc, e.nextPc, e.raw, e.op, e.rs1,
                        e.rs2, e.rs1Data, e.rs2Data, e.rd, e.rdData,
                        e.memRead, e.memWrite, e.memAddr, e.memData,
                        e.memBytes, e.trap, e.halt);
    };
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [&](const RetireEvent &x, const RetireEvent &y) {
                          return key(x) == key(y);
                      });
}

/** Run every program of the pair twice on one reused simulator and
 *  on a fresh one each time; results and RVFI streams must agree. */
template <typename Sim, typename Options, typename MakeSim>
void
expectReuseMatchesFresh(MakeSim make_sim)
{
    const std::vector<Program> progs = memoryReuseProgramPair();
    ASSERT_EQ(progs[0].denseSpan().base, progs[1].denseSpan().base);
    ASSERT_EQ(progs[0].denseSpan().size, progs[1].denseSpan().size);
    Sim reused = make_sim();
    for (int round = 0; round < 2; ++round) {
        for (const Program &p : progs) {
            Sim fresh = make_sim();
            fresh.reset(p);
            reused.reset(p);
            std::vector<RetireEvent> want, got;
            Options opts;
            opts.maxSteps = 1000;
            opts.trace = &want;
            const RunResult a = fresh.run(opts);
            opts.trace = &got;
            const RunResult b = reused.run(opts);
            EXPECT_EQ(a.reason, StopReason::Halted);
            EXPECT_EQ(b.reason, a.reason);
            EXPECT_EQ(b.exitCode, a.exitCode);
            EXPECT_EQ(b.instret, a.instret);
            EXPECT_EQ(reused.outputWords(), fresh.outputWords());
            EXPECT_TRUE(sameTrace(got, want)) << "round " << round;
        }
    }
    // The reader saw only zeros where the writer had stored.
    EXPECT_EQ(reused.outputWords(), std::vector<uint32_t>{0});
}

TEST(RefSim, ReusedSimulatorMatchesFreshOne)
{
    expectReuseMatchesFresh<RefSim, SimRunOptions>(
        [] { return RefSim(); });
}

TEST(Rissp, ReusedSimulatorMatchesFreshOne)
{
    expectReuseMatchesFresh<Rissp, RisspRunOptions>(
        [] { return Rissp(InstrSubset::fullRv32e(), "reuse"); });
}

TEST(RefSim, DenseSpanCoversProgramAndStack)
{
    // Sims back [0, stack top) densely for ordinary programs; deep
    // stack use and data traffic must not allocate pages.
    RefSim sim = runSnippet(R"(
        lui sp, 0x80       # crt0's stack top
        addi sp, sp, -16
        li a0, 7
        sw a0, 0(sp)
        lw a1, 0(sp)
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(11), 7u);
    EXPECT_GE(sim.memory().spanSize(), 0x80000u);
    EXPECT_EQ(sim.memory().touchedPages(), 0u);
}

TEST(RefSim, SelfModifyingCodeSeesItsOwnStores)
{
    // The program overwrites the `addi a2, zero, 1` ahead of it with
    // `addi a2, zero, 99` before executing it: the pre-decoded fetch
    // cache must invalidate on the store into the text span.
    const uint32_t patched = encodeI(Op::Addi, 12, 0, 99);
    RefSim sim = runSnippet(strFormat(R"(
        la a0, patch
        li a1, %d
        sw a1, 0(a0)
    patch:
        addi a2, zero, 1
        ecall
    )", static_cast<int32_t>(patched)), StopReason::Halted);
    EXPECT_EQ(sim.reg(12), 99u);
}

TEST(RefSim, SelfModifyingSubWordStoresInvalidate)
{
    // A byte store into the immediate field of the next instruction
    // must also re-decode (partial-word invalidation). Byte 3 of an
    // I-type word is imm[11:4], so storing 42 there turns
    // `addi a2, zero, 0` into `addi a2, zero, 672`.
    RefSim sim = runSnippet(R"(
        la a0, patch
        li a1, 42
        sb a1, 3(a0)
    patch:
        addi a2, zero, 0
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim.reg(12), 672u);
}

TEST(RefSim, FetchOutsideTextSpanFallsBackToDecode)
{
    // Hand-built image: text at 0 jumps to a far segment that is NOT
    // part of the declared text span; execution there goes through
    // decode-on-fetch.
    constexpr uint32_t kFar = 0x100000;
    Program p;
    Segment text;
    text.base = 0;
    auto push_word = [](Segment &seg, uint32_t w) {
        for (unsigned b = 0; b < 4; ++b)
            seg.bytes.push_back(static_cast<uint8_t>(w >> (8 * b)));
    };
    push_word(text, encodeU(Op::Lui, 11, kFar >> 12)); // x11 = kFar
    push_word(text, encodeI(Op::Jalr, 0, 11, 0));      // jump far
    Segment far;
    far.base = kFar;
    push_word(far, encodeI(Op::Addi, 12, 0, 77));      // a2 = 77
    push_word(far, encodeSys(Op::Ecall));
    p.segments = {text, far};
    p.entry = 0;
    p.textBase = 0;
    p.textSize = static_cast<uint32_t>(text.bytes.size());

    RefSim sim;
    sim.reset(p);
    RunResult r = sim.run(100);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(sim.reg(12), 77u);
}

TEST(RefSim, WrappingDataAccessTraps)
{
    // lw at 0xFFFFFFFE would wrap to address 0 — that is a trap, not
    // a silent wrap (and both simulators agree; see test_verify).
    RefSim sim = runSnippet(R"(
        li a0, -2
        lw a1, 0(a0)
        ecall
    )", StopReason::Trapped);
    EXPECT_EQ(sim.reg(11), 0u); // the load never completed

    runSnippet(R"(
        li a0, -1
        sh a0, 0(a0)
        ecall
    )", StopReason::Trapped);

    // A byte access at the top of memory is legal: no wrap occurs.
    RefSim sim3 = runSnippet(R"(
        li a0, -1
        li a1, 0x5A
        sb a1, 0(a0)
        lbu a2, 0(a0)
        ecall
    )", StopReason::Halted);
    EXPECT_EQ(sim3.reg(12), 0x5Au);
}

} // namespace
} // namespace rissp
