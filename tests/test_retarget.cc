/**
 * @file
 * Tests for the §5 retargeting flow: per-op macro synthesis with the
 * verify-reject loop, whole-program reconstruction, and end-to-end
 * equivalence of the retargeted binaries on the minimal subset.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "compiler/driver.hh"
#include "core/rissp.hh"
#include "retarget/retargeter.hh"
#include "sim/refsim.hh"
#include "workloads/workloads.hh"

namespace rissp
{
namespace
{

InstrSubset
minimal()
{
    return Retargeter::minimalSubset();
}

TEST(MacroLibrary, CoversEveryNonKernelOp)
{
    const InstrSubset target = minimal();
    for (size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (op == Op::Ecall || op == Op::Ebreak ||
            op == Op::Auipc || op == Op::Jal || op == Op::Jalr ||
            isCustom(op))
            continue;
        if (!target.contains(op)) {
            EXPECT_TRUE(canRetarget(op))
                << "no expansion for " << opName(op);
        }
    }
}

class MacroSynthTest : public ::testing::TestWithParam<int>
{
};

std::string
synthName(const ::testing::TestParamInfo<int> &info)
{
    return std::string(opName(static_cast<Op>(info.param)));
}

TEST_P(MacroSynthTest, SynthesizesVerifiedMacro)
{
    const Op op = static_cast<Op>(GetParam());
    if (!canRetarget(op))
        GTEST_SKIP() << "kernel/native op";
    Retargeter rt(minimal(), /*seed=*/0x5EED);
    MacroExpansion m = rt.synthesizeMacro(op);
    EXPECT_TRUE(m.verified) << opName(op);
    EXPECT_GE(m.attempts, 1u);
    EXPECT_LE(m.attempts, 10u) << "paper bound: < 10 attempts";
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, MacroSynthTest,
    ::testing::Range(0, static_cast<int>(kNumOps)), synthName);

TEST(Retargeter, BuggyCandidatesAreRejected)
{
    Retargeter rt(minimal());
    // Seeds that put hallucinated candidates first still converge,
    // and the attempt counter records the rejections.
    bool saw_retry = false;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Retargeter rt2(minimal(), seed);
        MacroExpansion m = rt2.synthesizeMacro(Op::Sub);
        EXPECT_TRUE(m.verified);
        if (m.attempts > 1)
            saw_retry = true;
    }
    EXPECT_TRUE(saw_retry)
        << "generator never produced a rejected candidate";
}

TEST(Retargeter, VerifyMacroPinsLibraryVerdicts)
{
    // Every hallucinated body in the library is rejected and every
    // sound derivation accepted: 13 and 25 bodies.
    unsigned rejected = 0, accepted = 0;
    for (size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (!canRetarget(op))
            continue;
        for (const std::string &body : buggyMacroBodies(op)) {
            EXPECT_FALSE(Retargeter::verifyMacro(op, body))
                << opName(op) << ":\n" << body;
            ++rejected;
        }
        EXPECT_TRUE(Retargeter::verifyMacro(op, correctMacroBody(op)))
            << opName(op);
        ++accepted;
    }
    EXPECT_EQ(rejected, 13u);
    EXPECT_EQ(accepted, 25u);
}

TEST(Retargeter, VerifyMacroRejectsDisciplineViolations)
{
    // A body that uses a5 as unsaved scratch: x5..x15 outside the
    // operands must survive the macro.
    EXPECT_FALSE(Retargeter::verifyMacro(Op::Sub, R"(
    xori x15, \rs2, -1
    addi x15, x15, 1
    add \rd, \rs1, x15
)"));
    // A body that writes rd before reading rs1: wrong whenever the
    // rewritten instruction has rd == rs1.
    EXPECT_FALSE(Retargeter::verifyMacro(Op::Sub, R"(
    xori \rd, \rs2, -1
    addi \rd, \rd, 1
    add \rd, \rs1, \rd
)"));
    // A load that stores into the buffer it reads from.
    EXPECT_FALSE(Retargeter::verifyMacro(
        Op::Lbu, correctMacroBody(Op::Lbu) + "    sw zero, 0(\\base)\n"));
    // A body that does not assemble.
    EXPECT_FALSE(Retargeter::verifyMacro(Op::Sub, "    sub \\rd\n"));
    // A body that saves ra on the stack but never restores ra or sp.
    EXPECT_FALSE(Retargeter::verifyMacro(Op::Sub, R"(
    addi sp, sp, -4
    sw ra, 0(sp)
    xori ra, \rs2, -1
    addi ra, ra, 1
    add \rd, \rs1, ra
)"));
    // A body that uses gp as unsaved scratch.
    EXPECT_FALSE(Retargeter::verifyMacro(Op::Sub, R"(
    xori x3, \rs2, -1
    addi x3, x3, 1
    add \rd, \rs1, x3
)"));
}

TEST(Retargeter, ReconstructCarriesDataByteExact)
{
    const char *src = R"(
        int table[37] = {5, -3, 12, 0, 7, -8, 100, 42, 1, 2, 3};
        int main(void) { return table[3] + table[10]; }
    )";
    minic::CompileResult cr = minic::compile(src,
                                             minic::OptLevel::O2);
    Retargeter rt(minimal());
    Result<std::string> text = rt.reconstruct(cr.program, {});
    ASSERT_TRUE(text.isOk()) << text.status().message();
    AsmResult back = tryAssemble(text.value());
    ASSERT_TRUE(back.ok) << back.error;
    ASSERT_EQ(back.program.segments.size(),
              cr.program.segments.size());
    for (size_t i = 0; i < back.program.segments.size(); ++i) {
        EXPECT_EQ(back.program.segments[i].base,
                  cr.program.segments[i].base);
        EXPECT_EQ(back.program.segments[i].bytes,
                  cr.program.segments[i].bytes);
    }
}

TEST(Retargeter, RejectsTargetWithoutKernelOps)
{
    const Status status = Retargeter::validateTarget(
        InstrSubset::fromNames({"addi", "lw"}));
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(status.message().find("kernel instruction"),
              std::string::npos);
}

TEST(Retargeter, SimpleProgramEquivalence)
{
    // A program exercising many non-kernel ops.
    const char *src = R"(
        int table[8] = {5, -3, 12, 0, 7, -8, 100, 42};
        unsigned char bytes[8];
        short halves[4];
        int main(void) {
            int acc = 0;
            for (int i = 0; i < 8; i++) {
                int v = table[i];
                if (v >= 0) acc += v; else acc -= v * 2;
                acc ^= (unsigned)v >> 3;
                bytes[i] = (unsigned char)(acc & 0xFF);
                if (i < 4) halves[i] = (short)(acc * 3);
            }
            for (int i = 0; i < 8; i++) acc += bytes[i];
            for (int i = 0; i < 4; i++) acc += halves[i];
            return acc & 0xFF;
        }
    )";
    minic::CompileResult cr = minic::compile(src,
                                             minic::OptLevel::O2);
    RefSim ref;
    ref.reset(cr.program);
    RunResult ref_run = ref.run(10'000'000);
    ASSERT_EQ(ref_run.reason, StopReason::Halted);

    Retargeter rt(minimal());
    RetargetResult res = rt.retarget(cr.program);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.rewrittenOps.empty());
    EXPECT_GT(res.retargetedTextBytes, res.initialTextBytes);

    // The retargeted binary must produce the same result...
    RefSim sim2;
    sim2.reset(res.program);
    RunResult run2 = sim2.run(50'000'000);
    ASSERT_EQ(run2.reason, StopReason::Halted);
    EXPECT_EQ(run2.exitCode, ref_run.exitCode);

    // ...and run on a RISSP that implements only the minimal subset.
    Rissp rissp(minimal(), "RISSP-minimal");
    rissp.reset(res.program);
    RunResult run3 = rissp.run(50'000'000);
    ASSERT_EQ(run3.reason, StopReason::Halted);
    EXPECT_EQ(run3.exitCode, ref_run.exitCode);

    // Distinct instructions now fit in the 12-op subset.
    EXPECT_LE(res.finalSubset.size(), minimal().size());
}

class EdgeRetargetTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EdgeRetargetTest, ExtremeEdgeAppsRetargetAndMatch)
{
    const Workload &wl = workloadByName(GetParam());
    minic::CompileResult cr =
        minic::compile(wl.source, minic::OptLevel::O2);
    RefSim ref;
    ref.reset(cr.program);
    RunResult ref_run = ref.run(80'000'000);
    ASSERT_EQ(ref_run.reason, StopReason::Halted);

    Retargeter rt(minimal());
    RetargetResult res = rt.retarget(cr.program);
    ASSERT_TRUE(res.ok) << res.error;

    Rissp rissp(minimal(), "RISSP-minimal");
    rissp.reset(res.program);
    RunResult run2 = rissp.run(400'000'000);
    ASSERT_EQ(run2.reason, StopReason::Halted) << wl.name;
    EXPECT_EQ(run2.exitCode, ref_run.exitCode) << wl.name;
    EXPECT_EQ(rissp.outputWords(), ref.outputWords()) << wl.name;

    // Figure 12 shape: code grows, distinct instructions shrink to
    // at most the subset size.
    EXPECT_GT(res.codeGrowth(), 0.0) << wl.name;
    EXPECT_LE(res.finalSubset.size(), 12u) << wl.name;
    EXPECT_GE(res.initialSubset.size(), res.finalSubset.size())
        << wl.name;
}

INSTANTIATE_TEST_SUITE_P(Apps, EdgeRetargetTest,
                         ::testing::Values("armpit", "xgboost",
                                           "af_detect"));

} // namespace
} // namespace rissp
