/**
 * @file
 * Tests for the shared interpreter core (sim/exec_core.inc): run()
 * and the RISSP's plain step() of both simulators must retire a
 * byte-identical RVFI stream to the golden engines, the subset must
 * trap exactly where the structural model does (also after
 * self-modifying code), and the RISSP mutation contract must hold.
 *
 * The golden stream is always the one the legacy single-step engines
 * produce: RefSim::step() is the hand-written reference switch, and
 * the RISSP's gate-level engine is the structural model. The
 * interpreter core is only allowed to be faster, never different.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "core/rissp.hh"
#include "core/subset.hh"
#include "sim/refsim.hh"
#include "tests/smc_program.hh"
#include "util/logging.hh"
#include "verify/integration_verify.hh"

namespace rissp
{
namespace
{

/** Field-by-field RetireEvent equality with a readable diff — the
 *  cosim comparator deliberately ignores rs1/rs2; this one must not,
 *  because the contract here is byte-identical streams. */
::testing::AssertionResult
sameEvent(const RetireEvent &a, const RetireEvent &b)
{
    auto fail = [&](const char *field) {
        return ::testing::AssertionFailure()
               << "RetireEvent field '" << field
               << "' differs at order " << a.order << " (pc 0x"
               << std::hex << a.pc << std::dec << ")";
    };
    if (a.order != b.order)
        return fail("order");
    if (a.pc != b.pc)
        return fail("pc");
    if (a.nextPc != b.nextPc)
        return fail("nextPc");
    if (a.raw != b.raw)
        return fail("raw");
    if (a.op != b.op)
        return fail("op");
    if (a.rs1 != b.rs1)
        return fail("rs1");
    if (a.rs2 != b.rs2)
        return fail("rs2");
    if (a.rs1Data != b.rs1Data)
        return fail("rs1Data");
    if (a.rs2Data != b.rs2Data)
        return fail("rs2Data");
    if (a.rd != b.rd)
        return fail("rd");
    if (a.rdData != b.rdData)
        return fail("rdData");
    if (a.memRead != b.memRead)
        return fail("memRead");
    if (a.memWrite != b.memWrite)
        return fail("memWrite");
    if (a.memAddr != b.memAddr)
        return fail("memAddr");
    if (a.memData != b.memData)
        return fail("memData");
    if (a.memBytes != b.memBytes)
        return fail("memBytes");
    if (a.trap != b.trap)
        return fail("trap");
    if (a.halt != b.halt)
        return fail("halt");
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameTrace(const std::vector<RetireEvent> &a,
          const std::vector<RetireEvent> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "trace length differs: " << a.size() << " vs "
               << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        ::testing::AssertionResult r = sameEvent(a[i], b[i]);
        if (!r)
            return r;
    }
    return ::testing::AssertionSuccess();
}

/** Everything observable about one simulator run. */
struct RunSnapshot
{
    RunResult result;
    std::vector<RetireEvent> trace;
    std::array<uint32_t, kNumRegsE> regs{};
    uint32_t pc = 0;
    StopReason stopped = StopReason::Running;
    std::vector<uint32_t> outWords;
    std::string outText;
};

::testing::AssertionResult
sameSnapshot(const RunSnapshot &a, const RunSnapshot &b)
{
    ::testing::AssertionResult tr = sameTrace(a.trace, b.trace);
    if (!tr)
        return tr;
    if (a.result.reason != b.result.reason)
        return ::testing::AssertionFailure() << "stop reason differs";
    if (a.result.exitCode != b.result.exitCode)
        return ::testing::AssertionFailure() << "exit code differs";
    if (a.result.instret != b.result.instret)
        return ::testing::AssertionFailure()
               << "instret differs: " << a.result.instret << " vs "
               << b.result.instret;
    if (a.result.stopPc != b.result.stopPc)
        return ::testing::AssertionFailure() << "stopPc differs";
    if (a.regs != b.regs)
        return ::testing::AssertionFailure()
               << "final register file differs";
    if (a.pc != b.pc)
        return ::testing::AssertionFailure() << "final pc differs";
    if (a.stopped != b.stopped)
        return ::testing::AssertionFailure()
               << "StopReason state differs";
    if (a.outWords != b.outWords)
        return ::testing::AssertionFailure()
               << "output words differ";
    if (a.outText != b.outText)
        return ::testing::AssertionFailure() << "output text differs";
    return ::testing::AssertionSuccess();
}

/** Drive @p step — one instruction of @p sim — by hand, replicating
 *  run()'s stopping rules; @p retired reads the instret counter. */
template <class Sim, class Step>
RunSnapshot
stepByHand(const Sim &sim, uint64_t max_steps, Step step,
           uint64_t (Sim::*retired)() const)
{
    RunSnapshot snap;
    snap.result.reason = StopReason::StepLimit;
    for (uint64_t i = 0; i < max_steps; ++i) {
        const RetireEvent ev = step();
        snap.trace.push_back(ev);
        if (ev.halt) {
            snap.result.reason = StopReason::Halted;
            snap.result.exitCode = sim.reg(reg::a0);
            break;
        }
        if (ev.trap) {
            snap.result.reason = StopReason::Trapped;
            break;
        }
    }
    snap.result.instret = (sim.*retired)();
    snap.result.stopPc = snap.result.reason == StopReason::StepLimit
                             ? sim.pc()
                             : snap.trace.back().pc;
    for (unsigned r = 0; r < kNumRegsE; ++r)
        snap.regs[r] = sim.reg(r);
    snap.pc = sim.pc();
    snap.stopped = snap.result.reason == StopReason::StepLimit
                       ? StopReason::Running
                       : sim.stopReason();
    snap.outWords = sim.outputWords();
    snap.outText = sim.outputText();
    return snap;
}

/** Golden reference: RefSim::step() (the independent switch
 *  statement of the semantics) by hand. */
RunSnapshot
refGolden(const Program &program, uint64_t max_steps)
{
    RefSim sim;
    sim.reset(program);
    return stepByHand(sim, max_steps, [&] { return sim.step(); },
                      &RefSim::instret);
}

RunSnapshot
refRun(const Program &program, uint64_t max_steps)
{
    RefSim sim;
    sim.reset(program);
    RunSnapshot snap;
    SimRunOptions options;
    options.maxSteps = max_steps;
    options.trace = &snap.trace;
    snap.result = sim.run(options);
    for (unsigned r = 0; r < kNumRegsE; ++r)
        snap.regs[r] = sim.reg(r);
    snap.pc = sim.pc();
    snap.stopped = sim.stopReason();
    snap.outWords = sim.outputWords();
    snap.outText = sim.outputText();
    return snap;
}

RunSnapshot
risspRun(const Program &program, const InstrSubset &subset,
         uint64_t max_steps, const RisspRunOptions &base)
{
    Rissp chip(subset, "dispatch-test");
    chip.reset(program);
    RunSnapshot snap;
    RisspRunOptions options = base;
    options.maxSteps = max_steps;
    options.trace = &snap.trace;
    snap.result = chip.run(options);
    for (unsigned r = 0; r < kNumRegsE; ++r)
        snap.regs[r] = chip.reg(r);
    snap.pc = chip.pc();
    snap.stopped = chip.stopReason();
    snap.outWords = chip.outputWords();
    snap.outText = chip.outputText();
    return snap;
}

/** Rissp::step(@p mut) by hand. With @p mut null each step is the
 *  interpreter core with a one-instruction budget; otherwise the
 *  gate-level engine. */
RunSnapshot
risspStepRun(const Program &program, const InstrSubset &subset,
             uint64_t max_steps, const Mutation *mut = nullptr)
{
    Rissp chip(subset, "dispatch-step");
    chip.reset(program);
    return stepByHand(chip, max_steps, [&] { return chip.step(mut); },
                      &Rissp::cycles);
}

/** The RISSP's fast engines — run() and the plain step() loop —
 *  against its gate-level golden on one program; returns the
 *  golden. */
RunSnapshot
expectRisspEnginesAgree(const Program &program,
                        const InstrSubset &subset, uint64_t max_steps)
{
    RisspRunOptions gate;
    gate.gateLevel = true;
    const RunSnapshot dut_golden =
        risspRun(program, subset, max_steps, gate);
    EXPECT_TRUE(sameSnapshot(
        dut_golden, risspRun(program, subset, max_steps, {})))
        << "rissp interpreter core diverges from gate level";
    EXPECT_TRUE(sameSnapshot(
        dut_golden, risspStepRun(program, subset, max_steps)))
        << "rissp step() diverges from gate level";
    return dut_golden;
}

/** Every engine of both simulators against the two golden streams
 *  (RefSim::step(), RISSP gate-level) on one program. */
void
expectAllEnginesAgree(const Program &program,
                      const InstrSubset &subset,
                      uint64_t max_steps = 100'000)
{
    const RunSnapshot golden = refGolden(program, max_steps);
    EXPECT_TRUE(sameSnapshot(golden, refRun(program, max_steps)))
        << "refsim interpreter core diverges from step()";

    const RunSnapshot dut_golden =
        expectRisspEnginesAgree(program, subset, max_steps);

    // When the whole subset executes cleanly the two simulators also
    // agree with each other (the cosim suite fuzzes that broadly;
    // here it guards the harness itself).
    if (golden.result.reason == StopReason::Halted) {
        EXPECT_TRUE(sameTrace(golden.trace, dut_golden.trace))
            << "reference and gate-level RISSP streams differ";
    }
}

TEST(DispatchDiff, StraightLineHalt)
{
    Program p = assemble(R"(
        li a0, 7
        addi a0, a0, 35
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, MmioOutputAndLoops)
{
    // Tight loop plus both MMIO ports, the shape bench_micro times.
    Program p = assemble(R"(
        li a0, 0
        li a1, 10
        lui a3, 0xFFFF0
    loop:
        addi a0, a0, 1
        sw a0, 0(a3)
        addi a4, a0, 0x41
        sb a4, 4(a3)
        bne a0, a1, loop
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, InvalidEncodingTraps)
{
    // .word an invalid encoding mid-stream: every engine must trap
    // at the same retirement with the same (non-)event fields.
    Program p = assemble(R"(
        li a0, 3
        .word 0
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, WrappingAccessTraps)
{
    Program p = assemble(R"(
        li a0, -2
        lw a1, 0(a0)
        ecall
    )");
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    Program ps = assemble(R"(
        li a0, -1
        sh a0, 0(a0)
        ecall
    )");
    expectAllEnginesAgree(ps, InstrSubset::fullRv32e());
}

TEST(DispatchDiff, OutOfSubsetTrapRecordsOperands)
{
    // 'sub' executes on the reference but traps on a RISSP without
    // it — the unsupported-op path of the specialized cores.
    Program p = assemble(R"(
        li a0, 9
        li a1, 4
        sub a2, a0, a1
        ecall
    )");
    InstrSubset no_sub = InstrSubset::fromNames(
        {"addi", "add", "lui", "sw"});
    const RunSnapshot golden = expectRisspEnginesAgree(p, no_sub, 100);
    ASSERT_EQ(golden.result.reason, StopReason::Trapped);
    // The trap event records the operand reads (RVFI contract).
    const RetireEvent &trap_ev = golden.trace.back();
    EXPECT_TRUE(trap_ev.trap);
    EXPECT_EQ(trap_ev.rs1, 10);
    EXPECT_EQ(trap_ev.rs2, 11);
}

TEST(DispatchDiff, SmcMidSuperblockInvalidates)
{
    // The store rewrites an instruction *later in the same
    // straight-line superblock*: the core must leave the block at
    // the store and re-enter through the invalidated decode, or it
    // would retire the stale instruction.
    Program p = smcPatchProgram(encodeI(Op::Addi, 12, 0, 99));
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    const RunSnapshot done = refRun(p, 100);
    EXPECT_EQ(done.regs[12], 99u);

    // Sub-word patch (imm rewritten through a byte store).
    Program pb = assemble(R"(
        la a0, patch
        li a1, 42
        sb a1, 3(a0)
        addi a3, zero, 1
    patch:
        addi a2, zero, 0
        ecall
    )");
    expectAllEnginesAgree(pb, InstrSubset::fullRv32e());
    const RunSnapshot doneb = refRun(pb, 100);
    EXPECT_EQ(doneb.regs[12], 672u);

    // The patch brings in an op outside the RISSP's subset: the
    // re-decode must apply the subset too, so the patched word traps
    // (with its operand reads recorded) instead of executing.
    const uint32_t sub_word = encodeR(Op::Sub, 12, 10, 11);
    Program ps = smcPatchProgram(sub_word);
    const InstrSubset no_sub =
        InstrSubset::fromNames({"auipc", "addi", "lui", "sw"});
    ASSERT_FALSE(no_sub.contains(Op::Sub));
    const RunSnapshot trapped = expectRisspEnginesAgree(ps, no_sub, 100);
    ASSERT_EQ(trapped.result.reason, StopReason::Trapped);
    const RetireEvent &trap_ev = trapped.trace.back();
    EXPECT_TRUE(trap_ev.trap);
    EXPECT_EQ(trap_ev.op, Op::Sub);
    EXPECT_EQ(trap_ev.raw, sub_word);
    EXPECT_EQ(trap_ev.rs1, 10);
    EXPECT_EQ(trap_ev.rs2, 11);
    EXPECT_EQ(trap_ev.rs2Data, sub_word);
    EXPECT_EQ(trapped.regs[12], 0u);
}

TEST(DispatchDiff, SmcCanExtendASuperblock)
{
    // The patch turns a *control* instruction into a straight-line
    // one, lengthening the run the store sits in — the run-length
    // repair after invalidate() must extend backwards across the
    // store or the core under-fetches.
    const uint32_t nopw = encodeI(Op::Addi, 0, 0, 0);
    Program p = assemble(strFormat(R"(
        la a0, patch
        li a1, %d
        li a2, 5
        sw a1, 0(a0)
    patch:
        jal zero, skip
        addi a2, a2, 7
    skip:
        ecall
    )", static_cast<int32_t>(nopw)));
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    // The patched path falls through the former jump.
    const RunSnapshot done = refRun(p, 100);
    EXPECT_EQ(done.regs[12], 12u);
}

TEST(DispatchDiff, OffSpanExecutionFallsBack)
{
    // Copy a two-instruction stub far outside the loaded text span
    // and jump to it: the cores must detect the off-span pc and
    // fall back to decode-on-fetch, bit-identically.
    const uint32_t insn0 = encodeI(Op::Addi, 12, 0, 55);
    const uint32_t ecallw = 0x00000073;
    Program p = assemble(strFormat(R"(
        li a0, 0x40000
        li a1, %d
        sw a1, 0(a0)
        li a1, %d
        sw a1, 4(a0)
        jalr a3, 0(a0)
    )", static_cast<int32_t>(insn0),
        static_cast<int32_t>(ecallw)));
    expectAllEnginesAgree(p, InstrSubset::fullRv32e());
    const RunSnapshot done = refRun(p, 100);
    EXPECT_EQ(done.result.reason, StopReason::Halted);
    EXPECT_EQ(done.regs[12], 55u);
}

TEST(DispatchDiff, StepLimitBoundarySweep)
{
    // Sweep the budget across a superblock boundary: StepLimit must
    // cut the trace at exactly the same retirement everywhere, and
    // a resumed... fresh run with budget n+1 extends it by one.
    Program p = assemble(R"(
        li a0, 0
        li a1, 3
    loop:
        addi a0, a0, 1
        addi a2, a0, 2
        addi a3, a2, 3
        bne a0, a1, loop
        ecall
    )");
    const InstrSubset full = InstrSubset::fullRv32e();
    std::vector<RetireEvent> prev;
    for (uint64_t budget = 0; budget <= 16; ++budget) {
        SCOPED_TRACE(testing::Message() << "budget " << budget);
        const RunSnapshot golden = refGolden(p, budget);
        EXPECT_TRUE(sameSnapshot(golden, refRun(p, budget)));
        expectRisspEnginesAgree(p, full, budget);
        // Monotone prefix property across budgets.
        ASSERT_GE(golden.trace.size(), prev.size());
        EXPECT_TRUE(sameTrace(
            prev, {golden.trace.begin(),
                   golden.trace.begin() +
                       static_cast<long>(prev.size())}));
        prev = golden.trace;
    }
}

class DispatchFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(DispatchFuzz, RandomProgramsAreEngineInvariant)
{
    static const std::vector<std::vector<std::string>> kSubsets = {
        {"addi", "add", "sub", "lui", "lw", "lh", "lb", "lbu",
         "lhu", "sw", "sh", "sb", "beq", "bne"},
        {"addi", "xori", "ori", "andi", "slli", "srli", "srai",
         "slt", "sltu", "slti", "sltiu", "lui", "blt", "bgeu",
         "sw"},
    };
    const int idx = GetParam();
    InstrSubset subset =
        idx % 3 == 0 ? InstrSubset::fullRv32e()
                     : InstrSubset::fromNames(kSubsets[idx % 2]);
    Program prog =
        randomProgram(0xD15BA7C4 + idx * 977, 350, subset);
    expectAllEnginesAgree(prog, subset);

    // The interpreter streams also satisfy the RVFI monitors.
    const RunSnapshot t = refRun(prog, 100'000);
    EXPECT_TRUE(checkRvfiStream(t.trace).passed());
    const RunSnapshot d = risspRun(prog, subset, 100'000, {});
    EXPECT_TRUE(checkRvfiStream(d.trace).passed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchFuzz,
                         ::testing::Range(0, 9));

TEST(MutationContract, EveryKindRoutesThroughGateLevel)
{
    // The pinned contract: a non-null Mutation — Kind::None included
    // — always selects the gate-level engine, through run() and
    // step() alike, so mutation coverage can never silently run on
    // the interpreter core. Observable as (a) run() and a step(&mut)
    // loop agreeing on every faulty run and (b) the faults actually
    // biting.
    Program p = archTestProgram(Op::Add);
    const InstrSubset full = InstrSubset::fullRv32e();
    RisspRunOptions clean;
    const RunSnapshot clean_run = risspRun(p, full, 100'000, clean);

    static const Mutation::Kind kKinds[] = {
        Mutation::Kind::None,
        Mutation::Kind::StuckSumBit,
        Mutation::Kind::CarryChainBreak,
        Mutation::Kind::DropShiftStage,
        Mutation::Kind::ShiftNoArith,
        Mutation::Kind::InvertLt,
        Mutation::Kind::EqIgnoreByte,
        Mutation::Kind::WrongSignExt,
        Mutation::Kind::StoreLaneStuck,
        Mutation::Kind::BranchPolarity,
        Mutation::Kind::LinkDrop,
        Mutation::Kind::ImmOffByOne,
    };
    for (Mutation::Kind kind : kKinds) {
        const Mutation mut{kind, 3};
        RisspRunOptions opts;
        opts.fault = &mut;
        const RunSnapshot a = risspRun(p, full, 100'000, opts);
        EXPECT_TRUE(
            sameSnapshot(a, risspStepRun(p, full, 100'000, &mut)))
            << "run() and step() disagree on the fault run for "
            << mut.describe();
        if (kind == Mutation::Kind::None) {
            // An inactive mutation through the gate-level chain is
            // still bit-identical to the interpreter core.
            EXPECT_TRUE(sameSnapshot(clean_run, a));
        }
    }
    // And a known-lethal fault on this add-heavy program must bite:
    // proof the faulty path really ran the structural chains.
    const Mutation lethal{Mutation::Kind::CarryChainBreak, 3};
    RisspRunOptions opts;
    opts.fault = &lethal;
    const RunSnapshot faulty = risspRun(p, full, 100'000, opts);
    EXPECT_FALSE(sameSnapshot(clean_run, faulty))
        << "CarryChainBreak produced a clean run — the fault was "
           "not routed into the structural adder";
}

TEST(MutationContract, CosimVerdictsMatchUnderEveryDispatch)
{
    // cosimulate() dispatches a fault straight to the lock-step loop,
    // which single-steps the RISSP through step(&mut), and a clean
    // run to the compare-sink pass over the interpreter core: the
    // fault verdict must be the lock-step one under both entry
    // points, and the clean run must pass under both.
    Program p = archTestProgram(Op::Add);
    const InstrSubset full = InstrSubset::fullRv32e();
    const Mutation fault{Mutation::Kind::CarryChainBreak, 3};
    CosimOptions options;
    options.maxSteps = 100'000;
    options.fault = &fault;
    const CosimReport rpt = cosimulate(p, full, options);
    const CosimReport lock = cosimulateLockStep(p, full, options);
    EXPECT_FALSE(rpt.passed);
    EXPECT_FALSE(lock.passed);
    EXPECT_EQ(rpt.firstDivergence, lock.firstDivergence);
    options.fault = nullptr;
    const CosimReport ok = cosimulate(p, full, options);
    EXPECT_TRUE(ok.passed) << ok.firstDivergence;
    const CosimReport ok_lock = cosimulateLockStep(p, full, options);
    EXPECT_TRUE(ok_lock.passed) << ok_lock.firstDivergence;
}

TEST(DispatchDiff, ExecCountsAreEngineIndependent)
{
    // ModularEx's per-op dynamic counts feed characterization
    // reports; the interpreter core must charge them exactly like
    // execute() does (including ops that later trap on a bad
    // address, excluding unsupported ones), through run() and
    // step() alike.
    Program p = assemble(R"(
        li a0, 1
        li a1, 2
        add a2, a0, a1
        add a3, a2, a1
        li a4, -2
        lw a5, 0(a4)
        ecall
    )");
    const InstrSubset full = InstrSubset::fullRv32e();
    std::array<std::array<uint64_t, kNumOps>, 3> counts;
    {
        Rissp chip(full, "counts");
        chip.reset(p);
        chip.run(RisspRunOptions{});
        counts[0] = chip.modularEx().execCounts();
    }
    {
        Rissp chip(full, "counts-step");
        chip.reset(p);
        while (chip.stopReason() == StopReason::Running)
            chip.step();
        counts[1] = chip.modularEx().execCounts();
    }
    {
        Rissp chip(full, "counts-gate");
        chip.reset(p);
        RisspRunOptions options;
        options.gateLevel = true;
        chip.run(options);
        counts[2] = chip.modularEx().execCounts();
    }
    EXPECT_EQ(counts[0], counts[2])
        << "run() exec counts diverge from gate level";
    EXPECT_EQ(counts[1], counts[2])
        << "step() exec counts diverge from gate level";
    EXPECT_EQ(counts[2][static_cast<size_t>(Op::Add)], 2u);
    // The wrapping lw still charged its block before trapping.
    EXPECT_EQ(counts[2][static_cast<size_t>(Op::Lw)], 1u);
}

} // namespace
} // namespace rissp
