/**
 * @file
 * Tests for the verification substrate itself: the Figure 4 block
 * pre-verification flow and the §3.4.2 integration checks.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "assembler/assembler.hh"
#include "compiler/driver.hh"
#include "verify/block_verify.hh"
#include "verify/integration_verify.hh"
#include "verify/spec.hh"
#include "workloads/workloads.hh"

namespace rissp
{
namespace
{

class BlockCertTest : public ::testing::TestWithParam<int>
{
  protected:
    Op op() const { return static_cast<Op>(GetParam()); }
};

std::string
opParamName(const ::testing::TestParamInfo<int> &info)
{
    return std::string(opName(static_cast<Op>(info.param)));
}

TEST_P(BlockCertTest, TestbenchPassesCleanBlock)
{
    auto vecs = blockVectors(op(), 0xB10C, 200);
    TestbenchReport rpt = runBlockTestbench(op(), vecs);
    EXPECT_TRUE(rpt.passed()) << rpt.firstFailure;
    EXPECT_GE(rpt.vectorsRun, 196u + 200u);
}

TEST_P(BlockCertTest, PropertiesHold)
{
    auto vecs = blockVectors(op(), 0xB10C, 200);
    for (const PropertyResult &p :
         checkBlockProperties(op(), vecs))
        EXPECT_EQ(p.violations, 0u)
            << opName(op()) << ": " << p.name;
}

TEST_P(BlockCertTest, MutationCoverageIsComplete)
{
    auto vecs = blockVectors(op(), 0xB10C, 200);
    MutationReport rpt = runMutationCoverage(op(), vecs);
    EXPECT_TRUE(rpt.fullCoverage())
        << opName(op()) << " survivors: "
        << (rpt.survivors.empty() ? "none" : rpt.survivors[0]);
    EXPECT_EQ(rpt.mutantsGenerated, mutationCatalogue().size());
}

TEST_P(BlockCertTest, ArchTestSignatureMatchesReference)
{
    Program prog = archTestProgram(op());
    // Custom-extension ops are opt-in: stitch them explicitly.
    std::set<Op> ops = InstrSubset::fullRv32e().ops();
    ops.insert(op());
    CosimReport rpt = cosimulate(prog, InstrSubset(ops), 100'000);
    EXPECT_TRUE(rpt.passed)
        << opName(op()) << ": " << rpt.firstDivergence;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BlockCertTest,
    ::testing::Range(0, static_cast<int>(kNumOps)), opParamName);

TEST(Certification, WholeLibraryCertifies)
{
    HwLibrary lib; // fresh instance so certs start clean
    EXPECT_FALSE(lib.fullyVerified());
    certifyLibrary(lib, 0xB10C, 120);
    EXPECT_TRUE(lib.fullyVerified());
    const BlockCert &cert = lib.cert(Op::Add);
    EXPECT_TRUE(cert.functional);
    EXPECT_TRUE(cert.mutationCovered);
    EXPECT_TRUE(cert.formal);
    EXPECT_GT(cert.vectorsRun, 100u);
    EXPECT_GT(cert.mutantsTotal, 20u);
}

TEST(Mutation, InjectedFaultsAreObservable)
{
    // A broken carry chain must flip some add result.
    Mutation mut{Mutation::Kind::CarryChainBreak, 1};
    auto vecs = blockVectors(Op::Add, 0xB10C, 100);
    TestbenchReport rpt = runBlockTestbench(Op::Add, vecs, &mut);
    EXPECT_FALSE(rpt.passed());

    // Branch polarity inversion must be caught on beq.
    Mutation mut2{Mutation::Kind::BranchPolarity, 0};
    auto vecs2 = blockVectors(Op::Beq, 0xB10C, 100);
    EXPECT_FALSE(runBlockTestbench(Op::Beq, vecs2, &mut2).passed());

    // Sign-extension faults must be caught on lb but are equivalent
    // (filtered, not killed) on lbu.
    Mutation mut3{Mutation::Kind::WrongSignExt, 0};
    auto vecs3 = blockVectors(Op::Lb, 0xB10C, 100);
    EXPECT_FALSE(runBlockTestbench(Op::Lb, vecs3, &mut3).passed());
    auto vecs4 = blockVectors(Op::Lbu, 0xB10C, 100);
    EXPECT_TRUE(runBlockTestbench(Op::Lbu, vecs4, &mut3).passed());
}

TEST(RvfiMonitor, AcceptsCleanStream)
{
    Program p = assemble(R"(
        li a0, 10
        li a1, 0
    loop:
        add a1, a1, a0
        addi a0, a0, -1
        bne a0, zero, loop
        sw a1, 0x200(zero)
        lw a2, 0x200(zero)
        ecall
    )");
    Rissp dut(InstrSubset::fullRv32e(), "mon");
    dut.reset(p);
    std::vector<RetireEvent> events;
    while (true) {
        RetireEvent ev = dut.step();
        events.push_back(ev);
        if (ev.halt || ev.trap)
            break;
    }
    MonitorReport rpt = checkRvfiStream(events);
    EXPECT_TRUE(rpt.passed())
        << (rpt.violations.empty() ? "" : rpt.violations[0]);
    EXPECT_EQ(rpt.eventsChecked, events.size());
}

TEST(RvfiMonitor, FlagsBrokenStreams)
{
    RetireEvent a;
    a.order = 0;
    a.pc = 0;
    a.nextPc = 4;
    RetireEvent b = a;
    b.order = 1;
    b.pc = 8; // chain broken (should be 4)
    b.nextPc = 12;
    MonitorReport rpt = checkRvfiStream({a, b});
    EXPECT_FALSE(rpt.passed());
    EXPECT_NE(rpt.violations[0].find("pc chain"), std::string::npos);

    RetireEvent c;
    c.order = 0;
    c.pc = 0;
    c.nextPc = 4;
    c.rd = 0;
    c.rdData = 7; // x0 written
    MonitorReport rpt2 = checkRvfiStream({c});
    EXPECT_FALSE(rpt2.passed());

    RetireEvent d;
    d.order = 5; // wrong order
    d.pc = 0;
    d.nextPc = 4;
    EXPECT_FALSE(checkRvfiStream({d}).passed());
}

/**
 * The RVFI reporter the streaming checker replaced: the original
 * whole-vector implementation, kept verbatim so equivalence of the
 * incremental checker can be asserted against it.
 */
MonitorReport
legacyCheckRvfiStream(const std::vector<RetireEvent> &events)
{
    MonitorReport rpt;
    for (size_t i = 0; i < events.size(); ++i) {
        const RetireEvent &ev = events[i];
        ++rpt.eventsChecked;
        auto flag = [&](const char *what) {
            rpt.violations.push_back(strFormat(
                "event %zu (pc=0x%08x): %s", i, ev.pc, what));
        };
        if (ev.order != i)
            flag("retirement order not monotone");
        if (ev.rd == 0 && ev.rdData != 0)
            flag("x0 written with a non-zero value");
        if (ev.memRead && ev.memWrite)
            flag("simultaneous load and store");
        if ((ev.memRead || ev.memWrite) &&
            ev.memBytes != 1 && ev.memBytes != 2 && ev.memBytes != 4)
            flag("illegal memory access width");
        if (!ev.trap && !ev.halt && (ev.nextPc & 3))
            flag("misaligned next pc");
        if (i + 1 < events.size()) {
            if (ev.halt || ev.trap)
                flag("retirement after halt/trap");
            else if (events[i + 1].pc != ev.nextPc)
                flag("pc chain broken");
        }
    }
    return rpt;
}

void
expectSameReport(const std::vector<RetireEvent> &events)
{
    const MonitorReport legacy = legacyCheckRvfiStream(events);
    RvfiStreamChecker checker;
    for (const RetireEvent &ev : events)
        checker.push(ev);
    const MonitorReport &streamed = checker.report();
    EXPECT_EQ(streamed.eventsChecked, legacy.eventsChecked);
    EXPECT_EQ(streamed.violations, legacy.violations);
    // checkRvfiStream() is a thin wrapper over the checker; keep the
    // public entry point honest too.
    EXPECT_EQ(checkRvfiStream(events).violations, legacy.violations);
}

TEST(RvfiMonitor, StreamingCheckerMatchesLegacyReporter)
{
    // A clean stream from a real run.
    Program p = randomProgram(0xCAFE, 120, InstrSubset::fullRv32e());
    Rissp dut(InstrSubset::fullRv32e(), "legacy-cmp");
    dut.reset(p);
    std::vector<RetireEvent> clean;
    for (int i = 0; i < 100000; ++i) {
        RetireEvent ev = dut.step();
        clean.push_back(ev);
        if (ev.halt || ev.trap)
            break;
    }
    expectSameReport(clean);
    expectSameReport({});

    // Corrupted variants exercising every violation, in every
    // position, so ordering and indices of the reports must agree.
    for (size_t victim : {size_t{0}, clean.size() / 2,
                          clean.size() - 1}) {
        auto corrupt = [&](auto &&mutate) {
            std::vector<RetireEvent> evs = clean;
            mutate(evs[victim]);
            expectSameReport(evs);
        };
        corrupt([](RetireEvent &ev) { ev.order += 5; });
        corrupt([](RetireEvent &ev) { ev.rd = 0; ev.rdData = 9; });
        corrupt([](RetireEvent &ev) {
            ev.memRead = ev.memWrite = true;
        });
        corrupt([](RetireEvent &ev) {
            ev.memRead = true;
            ev.memBytes = 3;
        });
        corrupt([](RetireEvent &ev) { ev.nextPc |= 2; });
        corrupt([](RetireEvent &ev) { ev.halt = true; });
        corrupt([](RetireEvent &ev) { ev.trap = true; });
        corrupt([](RetireEvent &ev) { ev.pc += 4; ev.nextPc += 4; });
    }
}

/** Loads into x0 of every width. */
Program
loadToX0Program()
{
    return assemble(R"(
        li a0, 0x600
        li a1, 0x89ABCDEF
        sw a1, 0(a0)
        lw zero, 0(a0)
        lh zero, 0(a0)
        lbu zero, 0(a0)
        ecall
    )");
}

/** A word store that patches the next instruction to
 *  `addi a2, zero, 99`. */
Program
selfModifyingWordProgram()
{
    const uint32_t patched = encodeI(Op::Addi, 12, 0, 99);
    return assemble(strFormat(R"(
        la a0, patch
        li a1, %d
        sw a1, 0(a0)
    patch:
        addi a2, zero, 1
        ecall
    )", static_cast<int32_t>(patched)));
}

/** A byte store into imm[11:4] of the next instruction: storing 42
 *  there rewrites `addi a2, zero, 0` to `addi a2, zero, 672`. */
Program
selfModifyingByteProgram()
{
    return assemble(R"(
        la a0, patch
        li a1, 42
        sb a1, 3(a0)
    patch:
        addi a2, zero, 0
        ecall
    )");
}

/** Accesses that wrap past 2^32: a load, then a store. */
std::vector<Program>
wrappingAccessPrograms()
{
    return {assemble(R"(
        li a0, -2
        lw a1, 0(a0)
        ecall
    )"),
            assemble(R"(
        li a0, -1
        sh a0, 0(a0)
        ecall
    )")};
}

TEST(Cosim, LoadToX0MatchesReference)
{
    // Regression: the DUT used to zero memData for rd == x0 loads
    // while the reference reported the raw DMEM data, so a legal
    // `lw x0, ...` falsely diverged. Both now report the data.
    Program p = loadToX0Program();
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;

    // And the RVFI record carries the (width-extended) DMEM data.
    Rissp dut(InstrSubset::fullRv32e(), "x0-load");
    dut.reset(p);
    RetireEvent ev;
    do {
        ev = dut.step();
    } while (!ev.memRead);
    EXPECT_EQ(ev.rd, 0);
    EXPECT_EQ(ev.rdData, 0u);       // x0 stays hardwired
    EXPECT_EQ(ev.memData, 0x89ABCDEFu);
    EXPECT_EQ(dut.reg(0), 0u);
}

TEST(Cosim, SelfModifyingCodeStaysInLockstep)
{
    // Covers the *Rissp* side of decoded-cache invalidation (RefSim
    // has its own direct tests): both simulators must fetch the
    // patched instruction, and their traces must stay identical. If
    // the DUT served a stale pre-patch decode, its a2 would differ
    // from the reference's and the cosim would diverge.
    Program p = selfModifyingWordProgram();
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;

    // And the DUT really executed the patched instruction.
    Rissp dut(InstrSubset::fullRv32e(), "smc");
    dut.reset(p);
    RunResult r = dut.run(1000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(dut.reg(12), 99u);

    // Sub-word patch too: byte 3 of an I-type word is imm[11:4], so
    // storing 42 there rewrites the immediate to 672.
    Program pb = selfModifyingByteProgram();
    CosimReport rptb =
        cosimulate(pb, InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rptb.passed) << rptb.firstDivergence;
    Rissp dutb(InstrSubset::fullRv32e(), "smc-subword");
    dutb.reset(pb);
    EXPECT_EQ(dutb.run(1000).reason, StopReason::Halted);
    EXPECT_EQ(dutb.reg(12), 672u);
}

TEST(Cosim, WrappingAccessTrapsIdentically)
{
    // Address-space wrap is a trap in both simulators (satellite of
    // the Memory wrap fix); lock-step agreement means the cosim run
    // itself passes, with the trap as the final retirement.
    const std::vector<Program> programs = wrappingAccessPrograms();
    CosimReport rpt =
        cosimulate(programs[0], InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;
    EXPECT_EQ(rpt.instret, 2u);

    CosimReport rpt2 =
        cosimulate(programs[1], InstrSubset::fullRv32e(), 1000);
    EXPECT_TRUE(rpt2.passed) << rpt2.firstDivergence;
}

void
expectSameEvents(const std::vector<RetireEvent> &a,
                 const std::vector<RetireEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "context event " << i);
        EXPECT_EQ(a[i].order, b[i].order);
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].nextPc, b[i].nextPc);
        EXPECT_EQ(a[i].raw, b[i].raw);
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].rs1, b[i].rs1);
        EXPECT_EQ(a[i].rs2, b[i].rs2);
        EXPECT_EQ(a[i].rs1Data, b[i].rs1Data);
        EXPECT_EQ(a[i].rs2Data, b[i].rs2Data);
        EXPECT_EQ(a[i].rd, b[i].rd);
        EXPECT_EQ(a[i].rdData, b[i].rdData);
        EXPECT_EQ(a[i].memRead, b[i].memRead);
        EXPECT_EQ(a[i].memWrite, b[i].memWrite);
        EXPECT_EQ(a[i].memAddr, b[i].memAddr);
        EXPECT_EQ(a[i].memData, b[i].memData);
        EXPECT_EQ(a[i].memBytes, b[i].memBytes);
        EXPECT_EQ(a[i].trap, b[i].trap);
        EXPECT_EQ(a[i].halt, b[i].halt);
    }
}

/** cosimulate() (compare sink, lock-step replay on any failure) and
 *  cosimulateLockStep() must return the same report; returns its
 *  verdict. */
bool
expectSameCosim(const Program &program, const InstrSubset &subset,
                uint64_t max_steps)
{
    SCOPED_TRACE(::testing::Message() << "maxSteps " << max_steps);
    CosimOptions options;
    options.maxSteps = max_steps;
    const CosimReport fast = cosimulate(program, subset, options);
    const CosimReport lock = cosimulateLockStep(program, subset,
                                                options);
    EXPECT_EQ(fast.passed, lock.passed);
    EXPECT_EQ(fast.instret, lock.instret);
    EXPECT_EQ(fast.firstDivergence, lock.firstDivergence);
    EXPECT_EQ(fast.monitor.eventsChecked, lock.monitor.eventsChecked);
    EXPECT_EQ(fast.monitor.violations, lock.monitor.violations);
    expectSameEvents(fast.recentRef, lock.recentRef);
    expectSameEvents(fast.recentDut, lock.recentDut);
    return fast.passed;
}

TEST(Cosim, CompareSinkMatchesLockStep)
{
    // The differential gate of the compare-sink path. Capping the
    // budget keeps the matrix to seconds and makes the long
    // workloads cover the step-limit replay; most extracted subsets
    // trap on other workloads, which covers the DUT-trap replay.
    constexpr uint64_t kMaxSteps = 200'000;
    std::vector<Program> programs;
    std::vector<InstrSubset> subsets = {InstrSubset::fullRv32e()};
    for (const Workload &w : allWorkloads()) {
        programs.push_back(
            minic::compile(w.source, minic::OptLevel::O2).program);
        subsets.push_back(InstrSubset::fromProgram(programs.back()));
    }
    size_t passed = 0;
    for (size_t p = 0; p < programs.size(); ++p) {
        SCOPED_TRACE(allWorkloads()[p].name);
        for (size_t s = 0; s < subsets.size(); ++s) {
            SCOPED_TRACE(::testing::Message() << "subset " << s);
            passed += expectSameCosim(programs[p], subsets[s],
                                      kMaxSteps);
        }
    }
    EXPECT_GT(passed, 0u); // the compare sink's own pass is covered

    // Budgets around the exact instret of the three shortest
    // workloads on their own subsets: one short of the halt must
    // replay the step limit, the exact instret must pass.
    std::vector<std::pair<uint64_t, size_t>> by_instret;
    for (size_t p = 0; p < programs.size(); ++p) {
        Rissp chip(subsets[p + 1], "budget");
        chip.reset(programs[p]);
        by_instret.emplace_back(chip.run(100'000'000).instret, p);
    }
    std::sort(by_instret.begin(), by_instret.end());
    for (size_t i = 0; i < 3; ++i) {
        const auto [instret, p] = by_instret[i];
        SCOPED_TRACE(allWorkloads()[p].name);
        for (uint64_t steps : {uint64_t{1}, instret - 1, instret,
                               instret + 1})
            expectSameCosim(programs[p], subsets[p + 1], steps);
    }

    for (int seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const InstrSubset &subset = subsets[seed % subsets.size()];
        expectSameCosim(randomProgram(0xD1FF0000u + seed, 200,
                                      InstrSubset::fullRv32e()),
                        seed % 2 ? subset : subsets[0], 100'000);
    }

    std::vector<Program> directed = wrappingAccessPrograms();
    directed.push_back(loadToX0Program());
    directed.push_back(selfModifyingWordProgram());
    directed.push_back(selfModifyingByteProgram());
    for (const Program &program : directed)
        expectSameCosim(program, InstrSubset::fullRv32e(), 1000);
}

TEST(Cosim, DivergenceKeepsRecentEventContext)
{
    Program p = archTestProgram(Op::Add);
    Mutation fault{Mutation::Kind::CarryChainBreak, 3};
    CosimOptions options;
    options.maxSteps = 100'000;
    options.fault = &fault;
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), options);
    ASSERT_FALSE(rpt.passed);
    ASSERT_FALSE(rpt.recentDut.empty());
    EXPECT_LE(rpt.recentDut.size(), options.contextEvents);
    EXPECT_EQ(rpt.recentDut.size(), rpt.recentRef.size());
    // The divergent step is the newest ring entry, and the ring is
    // chronologically ordered.
    EXPECT_EQ(rpt.recentDut.back().order + 1,
              rpt.monitor.eventsChecked);
    for (size_t i = 1; i < rpt.recentDut.size(); ++i)
        EXPECT_EQ(rpt.recentDut[i].order,
                  rpt.recentDut[i - 1].order + 1);
    // A clean pass retains no context.
    CosimReport ok = cosimulate(p, InstrSubset::fullRv32e(), 100'000);
    EXPECT_TRUE(ok.passed);
    EXPECT_TRUE(ok.recentDut.empty());
    EXPECT_TRUE(ok.recentRef.empty());
}

TEST(Cosim, LongRunMemoryStaysBounded)
{
    // 1.5 M steps against a step budget: the streaming monitor and
    // the fixed ring are the only per-step state, so peak memory no
    // longer scales with instret (the ASan CI job watches this test).
    Program p = assemble("loop: jal zero, loop");
    const uint64_t kBudget = 1'500'000;
    CosimReport rpt =
        cosimulate(p, InstrSubset::fullRv32e(), kBudget);
    EXPECT_FALSE(rpt.passed);
    EXPECT_EQ(rpt.firstDivergence, "step limit reached");
    EXPECT_EQ(rpt.monitor.eventsChecked, kBudget);
    EXPECT_TRUE(rpt.monitor.passed());
    CosimOptions options;
    options.maxSteps = 1000;
    options.contextEvents = 8;
    CosimReport small = cosimulate(p, InstrSubset::fullRv32e(),
                                   options);
    EXPECT_EQ(small.recentDut.size(), 8u);
}

TEST(StructuralFastPath, MatchesGateLevelChains)
{
    // The wire-equivalent fast paths (taken when no Mutation is
    // supplied) must agree bit-for-bit with the gate-level chains (an
    // inactive Mutation forces the structural path).
    Rng rng(0x57AC);
    const Mutation none; // Kind::None: structural path, no fault
    for (int i = 0; i < 20000; ++i) {
        const uint32_t a = rng.next32();
        const uint32_t b = rng.next32();
        const bool cin = rng.below(2) != 0;
        bool fast_cout = false, slow_cout = false;
        EXPECT_EQ(structAdd(a, b, cin, fast_cout, nullptr),
                  structAdd(a, b, cin, slow_cout, &none));
        EXPECT_EQ(fast_cout, slow_cout);
        EXPECT_EQ(structSub(a, b, fast_cout, nullptr),
                  structSub(a, b, slow_cout, &none));
        EXPECT_EQ(fast_cout, slow_cout);
        const unsigned amount = rng.below(64); // includes >31
        EXPECT_EQ(structShiftRight(a, amount, false, nullptr),
                  structShiftRight(a, amount, false, &none));
        EXPECT_EQ(structShiftRight(a, amount, true, nullptr),
                  structShiftRight(a, amount, true, &none));
        EXPECT_EQ(structShiftLeft(a, amount, nullptr),
                  structShiftLeft(a, amount, &none));
        EXPECT_EQ(structMul(a, b, nullptr), structMul(a, b, &none));
        EXPECT_EQ(structLt(a, b, true, nullptr),
                  structLt(a, b, true, &none));
        EXPECT_EQ(structLt(a, b, false, nullptr),
                  structLt(a, b, false, &none));
    }
}

class RandomCosimTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomCosimTest, RisspTracksReference)
{
    const uint64_t seed = 0xFACE0000u + GetParam();
    InstrSubset full = InstrSubset::fullRv32e();
    Program prog = randomProgram(seed, 300, full);
    CosimReport rpt = cosimulate(prog, full, 100'000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;
    EXPECT_TRUE(rpt.monitor.passed());
    EXPECT_GT(rpt.monitor.eventsChecked, 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCosimTest,
                         ::testing::Range(0, 12));

/** Lock-step fuzz across instruction-subset shapes, not just the
 *  full ISA: memory-heavy and ALU-only RISSPs must track the
 *  reference on random programs through the pre-decoded fetch and
 *  dense-memory fast paths. */
class SubsetCosimFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SubsetCosimFuzz, RisspTracksReferenceOnSubset)
{
    static const std::vector<std::vector<std::string>> kSubsets = {
        {"addi", "add", "sub", "lui", "lw", "lh", "lb", "lbu",
         "lhu", "sw", "sh", "sb", "beq", "bne"},
        // ALU-heavy; sw stays in because randomProgram dumps the
        // register file into the signature with word stores.
        {"addi", "xori", "ori", "andi", "slli", "srli", "srai",
         "slt", "sltu", "slti", "sltiu", "lui", "blt", "bgeu",
         "sw"},
    };
    const auto [subset_idx, seed_idx] = GetParam();
    InstrSubset subset =
        InstrSubset::fromNames(kSubsets[subset_idx]);
    Program prog = randomProgram(0xB0B0 + seed_idx * 131 + subset_idx,
                                 400, subset);
    CosimReport rpt = cosimulate(prog, subset, 100'000);
    EXPECT_TRUE(rpt.passed) << rpt.firstDivergence;
    EXPECT_GT(rpt.monitor.eventsChecked, 400u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubsetCosimFuzz,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Range(0, 6)));

TEST(Cosim, TrapsOnOutOfSubsetInstruction)
{
    // A RISSP without 'sub' must trap where the reference executes.
    Program p = assemble(R"(
        li a0, 5
        li a1, 3
        sub a2, a0, a1
        ecall
    )");
    InstrSubset no_sub = InstrSubset::fromNames(
        {"addi", "lui", "jal"});
    Rissp dut(no_sub, "no-sub");
    dut.reset(p);
    RunResult rr = dut.run(100);
    EXPECT_EQ(rr.reason, StopReason::Trapped);
    EXPECT_EQ(rr.stopPc, 8u);
}

TEST(Spec, MatchesIssOnRandomInstructions)
{
    // Spec model vs reference ISS: execute single instructions in
    // isolation and compare rd/next-pc behaviour.
    Rng rng(77);
    InstrSubset full = InstrSubset::fullRv32e();
    std::vector<Op> ops(full.ops().begin(), full.ops().end());
    for (int iter = 0; iter < 4000; ++iter) {
        const Op op = ops[rng.below(
            static_cast<uint32_t>(ops.size()))];
        if (isLoad(op) || isStore(op))
            continue; // memory covered by cosim
        auto vecs = blockVectors(op, rng.next(), 1);
        const BlockVector &v = vecs.back();
        SpecEffect fx = specExecute(v.in.insn, v.in.pc,
                                    v.in.rs1Data, v.in.rs2Data);
        // Cross-check against the reference ISS semantics.
        RefSim sim;
        Program stub;
        Segment seg;
        seg.base = v.in.pc;
        for (unsigned b = 0; b < 4; ++b)
            seg.bytes.push_back(
                static_cast<uint8_t>(v.in.insn.raw >> (8 * b)));
        stub.segments.push_back(seg);
        stub.entry = v.in.pc;
        stub.textBase = v.in.pc;
        stub.textSize = 4;
        sim.reset(stub);
        sim.setReg(v.in.insn.rs1, v.in.rs1Data);
        sim.setReg(v.in.insn.rs2, v.in.rs2Data);
        // Read operands back so rs1 == rs2 aliasing is honoured.
        const uint32_t rs1 = sim.reg(v.in.insn.rs1);
        const uint32_t rs2 = sim.reg(v.in.insn.rs2);
        SpecEffect fx0 = specExecute(v.in.insn, v.in.pc, rs1, rs2);
        RetireEvent ev = sim.step();
        if (!fx0.halt) {
            EXPECT_EQ(ev.nextPc, fx0.nextPc)
                << disassemble(v.in.insn.raw);
        }
        if (fx0.writesRd && v.in.insn.rd != 0) {
            EXPECT_EQ(sim.reg(v.in.insn.rd), fx0.rdValue)
                << disassemble(v.in.insn.raw);
        }
        (void)fx;
    }
}

} // namespace
} // namespace rissp
