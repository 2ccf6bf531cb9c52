/**
 * @file
 * Extended compiler coverage: precedence/associativity torture,
 * lexical edge cases, IR pass behaviours and codegen invariants that
 * the main compile-and-run suite doesn't single out.
 */

#include <gtest/gtest.h>

#include "compiler/driver.hh"
#include "compiler/lexer.hh"
#include "compiler/lower.hh"
#include "compiler/parser.hh"
#include "compiler/passes.hh"
#include "core/subset.hh"
#include "sim/refsim.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace rissp
{
namespace
{

using minic::OptLevel;

uint32_t
runExpr(const std::string &expr, OptLevel level = OptLevel::O2)
{
    const std::string src =
        "int main(void) { return " + expr + "; }";
    auto cr = minic::compile(src, level);
    RefSim sim;
    sim.reset(cr.program);
    RunResult r = sim.run(1'000'000);
    EXPECT_EQ(r.reason, StopReason::Halted) << expr;
    return r.exitCode;
}

TEST(CompilerExt, PrecedenceAndAssociativity)
{
    EXPECT_EQ(runExpr("2 + 3 * 4"), 14u);
    EXPECT_EQ(runExpr("(2 + 3) * 4"), 20u);
    EXPECT_EQ(runExpr("20 - 8 - 4"), 8u);       // left assoc
    EXPECT_EQ(runExpr("64 / 8 / 2"), 4u);
    EXPECT_EQ(runExpr("1 << 2 << 3"), 32u);
    EXPECT_EQ(runExpr("10 - 2 * 3 + 1"), 5u);
    EXPECT_EQ(runExpr("7 & 3 | 8"), 11u);
    EXPECT_EQ(runExpr("1 | 2 ^ 3 & 2"), 1u);    // & > ^ > |
    EXPECT_EQ(runExpr("3 < 5 == 1"), 1u);
    EXPECT_EQ(runExpr("~0 & 0xFF"), 255u);
    EXPECT_EQ(runExpr("-3 + +5"), 2u);
    EXPECT_EQ(runExpr("1 ? 2 ? 3 : 4 : 5"), 3u);
    EXPECT_EQ(runExpr("0 ? 2 : 0 ? 4 : 5"), 5u);
}

TEST(CompilerExt, ShortCircuitDoesNotEvaluate)
{
    const char *src = R"(
        int hits;
        int boom(void) { hits++; return 1; }
        int main(void) {
            hits = 0;
            int a = 0 && boom();
            int b = 1 || boom();
            int c = 1 && boom();   /* evaluates once */
            return hits * 10 + a + b + c;
        }
    )";
    for (OptLevel lv : minic::allOptLevels()) {
        auto cr = minic::compile(src, lv);
        RefSim sim;
        sim.reset(cr.program);
        // hits = 1 (only the `1 && boom()` arm runs boom):
        // 1*10 + a(0) + b(1) + c(1) = 12.
        EXPECT_EQ(sim.run().exitCode, 12u)
            << minic::optLevelName(lv);
    }
}

TEST(CompilerExt, LexerEdgeCases)
{
    EXPECT_EQ(runExpr("0x7fffffff & 0xF"), 15u);
    EXPECT_EQ(runExpr("'A' + 1"), 66u);
    EXPECT_EQ(runExpr("'\\n'"), 10u);
    EXPECT_EQ(runExpr("'\\\\'"), 92u);
    EXPECT_EQ(runExpr("100u / 7u"), 14u);
    EXPECT_EQ(runExpr("10 /* inline */ + 2"), 12u);
    // Unterminated constructs are diagnosed.
    EXPECT_THROW(minic::compile("int main() { return '"
                                ";}", OptLevel::O0),
                 minic::CompileError);
    EXPECT_THROW(minic::compile("/* open", OptLevel::O0),
                 minic::CompileError);
}

TEST(CompilerExt, ConstantFoldingKillsDeadBranches)
{
    // if (0) arms disappear entirely at O1+.
    const char *src =
        "int main(void) {"
        "  if (1 == 2) { return 111; }"
        "  if (3 > 1) { return 42; }"
        "  return 7; }";
    auto o2 = minic::compile(src, OptLevel::O2);
    auto o0 = minic::compile(src, OptLevel::O0);
    EXPECT_LT(o2.staticInstructions(), o0.staticInstructions());
    RefSim sim;
    sim.reset(o2.program);
    EXPECT_EQ(sim.run().exitCode, 42u);
}

TEST(CompilerExt, CsePreventsRecomputation)
{
    // a[i] appears three times; the address computation must not
    // be emitted three times at O2.
    const char *src =
        "int a[16];"
        "int main(void) { int i = 5; a[5] = 9;"
        "  return a[i] + a[i] * 2 + (a[i] >> 1); }";
    auto o1 = minic::compile(src, OptLevel::O1);
    auto o2 = minic::compile(src, OptLevel::O2);
    EXPECT_LE(o2.staticInstructions(), o1.staticInstructions());
    RefSim sim;
    sim.reset(o2.program);
    EXPECT_EQ(sim.run().exitCode, 9u + 18u + 4u);
}

TEST(CompilerExt, InliningRemovesCallAtO3)
{
    const char *src =
        "int sq(int x) { return x * x; }"
        "int main(void) { return sq(7) + sq(3); }";
    auto o3 = minic::compile(src, OptLevel::O3);
    // After inlining + constant folding no jal to sq remains on the
    // main path; the whole program reduces dramatically.
    RefSim sim;
    sim.reset(o3.program);
    RunResult r = sim.run();
    EXPECT_EQ(r.exitCode, 58u);
    // sq calls __mulsi3, which blocks inlining of sq itself (leaf
    // functions only); O3 must still be no bigger than O0.
    auto o0 = minic::compile(src, OptLevel::O0);
    EXPECT_LE(o3.staticInstructions(), o0.staticInstructions());
}

TEST(CompilerExt, RecursionIsNeverInlined)
{
    const char *src =
        "int f(int n) { if (n <= 0) return 1;"
        "  return n + f(n - 1); }"
        "int main(void) { return f(5); }";
    for (OptLevel lv : {OptLevel::O2, OptLevel::O3}) {
        auto cr = minic::compile(src, lv);
        RefSim sim;
        sim.reset(cr.program);
        EXPECT_EQ(sim.run().exitCode, 16u);
    }
}

TEST(CompilerExt, DeepExpressionSpillsCorrectly)
{
    // More live temporaries than allocatable registers forces
    // spilling; the result must not change.
    std::string expr = "1";
    for (int i = 2; i <= 14; ++i)
        expr = "(" + expr + " + " + std::to_string(i) + " * (" +
            std::to_string(i) + " - 1))";
    uint32_t expect = 1;
    for (int i = 2; i <= 14; ++i)
        expect += static_cast<uint32_t>(i * (i - 1));
    for (OptLevel lv : minic::allOptLevels())
        EXPECT_EQ(runExpr(expr, lv), expect)
            << minic::optLevelName(lv);
}

TEST(CompilerExt, CharPointerWalk)
{
    const char *src = R"(
        int main(void) {
            const char *s = "abcxyz";
            int n = 0;
            while (*s) { n += *s; s++; }
            return n & 0xFF;
        }
    )";
    const uint32_t expect =
        ('a' + 'b' + 'c' + 'x' + 'y' + 'z') & 0xFF;
    for (OptLevel lv : minic::allOptLevels())
        EXPECT_EQ([&] {
            auto cr = minic::compile(src, lv);
            RefSim sim;
            sim.reset(cr.program);
            return sim.run().exitCode;
        }(), expect) << minic::optLevelName(lv);
}

TEST(CompilerExt, GlobalInitializersLandInData)
{
    const char *src =
        "int big[6] = {1, -2, 3, -4, 5, -6};"
        "short h[3] = {100, -200, 300};"
        "unsigned char b[4] = {250, 251, 252, 253};"
        "int main(void) { return big[1] + h[1] + b[0]; }";
    auto cr = minic::compile(src, OptLevel::O2);
    RefSim sim;
    sim.reset(cr.program);
    EXPECT_EQ(sim.run().exitCode,
              static_cast<uint32_t>(-2 - 200 + 250));
}

TEST(CompilerExt, IrDumpIsStable)
{
    minic::TranslationUnit unit = minic::parse(
        "int main(void) { int x = 4; return x + 1; }");
    minic::LowerOptions opts;
    minic::LowerResult lowered = minic::lowerUnit(unit, opts);
    ASSERT_EQ(lowered.ir.funcs.size(), 1u);
    std::string dump = minic::dumpIr(lowered.ir.funcs[0]);
    EXPECT_NE(dump.find("func main"), std::string::npos);
    EXPECT_NE(dump.find("ret"), std::string::npos);
}

/** Repeat @p piece @p n times. */
std::string
repeat(const std::string &piece, int n)
{
    std::string out;
    out.reserve(piece.size() * n);
    for (int i = 0; i < n; ++i)
        out += piece;
    return out;
}

/** Expect @p src to be refused as too deeply nested, at @p line,
 *  through the status-returning entry point user sources take. */
void
expectTooDeep(const std::string &src, int line)
{
    const Result<minic::CompileResult> r =
        minic::tryCompile(src, OptLevel::O2);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.code(), ErrorCode::CompileError);
    const std::string &msg = r.status().message();
    EXPECT_EQ(msg.rfind(strFormat("line %d: ", line), 0), 0u) << msg;
    EXPECT_NE(msg.find("deeper than 256 levels"), std::string::npos)
        << msg;
}

// The hostile shapes below each overflowed the stack of the
// recursive-descent parser, or of the passes walking its tree,
// before the nesting cap existed.

TEST(CompilerNesting, DeepParenthesesAreRefused)
{
    expectTooDeep("int main(void) {\n  return " +
                      repeat("(", 200'000) + "1" +
                      repeat(")", 200'000) + ";\n}\n",
                  2);
}

TEST(CompilerNesting, DeepUnaryChainIsRefused)
{
    expectTooDeep("int main(void) {\n  int x = 1;\n  return " +
                      repeat("- ", 200'000) + "x;\n}\n",
                  3);
}

TEST(CompilerNesting, TallLeftDeepChainIsRefused)
{
    // Flat source, but the left-associative chain builds a tree as
    // tall as it is long.
    expectTooDeep("int main(void) {\n  int a = 1;\n  return a" +
                      repeat("+a", 200'000) + ";\n}\n",
                  3);
}

TEST(CompilerNesting, DeepIfNestIsRefused)
{
    expectTooDeep("int main(void) {\n  int x = 0;\n  " +
                      repeat("if (x) ", 100'000) + "x = 1;\n" +
                      "  return x;\n}\n",
                  3);
}

TEST(CompilerNesting, SourcesAtTheCapCompile)
{
    ASSERT_EQ(minic::kMaxNesting, 256);
    // Statements nested exactly kMaxNesting deep: the outermost
    // block is the body's level-1 statement.
    const int n = minic::kMaxNesting;
    const std::string blocks = "int main(void) {\n" +
        repeat("{", n) + "\n" + repeat("}", n) + "\n  return 7;\n}\n";
    auto cr = minic::compile(blocks, OptLevel::O2);
    RefSim sim;
    sim.reset(cr.program);
    EXPECT_EQ(sim.run().exitCode, 7u);
    expectTooDeep("int main(void) {\n" + repeat("{", n + 1) + "\n" +
                      repeat("}", n + 1) + "\n  return 7;\n}\n",
                  2);

    // An expression tree exactly kMaxNesting tall: a left-deep chain
    // of n - 1 additions over n leaves.
    EXPECT_EQ(runExpr("1" + repeat("+1", n - 1)),
              static_cast<uint32_t>(n));
    expectTooDeep("int main(void) { return 1" + repeat("+1", n) +
                      "; }",
                  1);
}

} // namespace
} // namespace rissp
