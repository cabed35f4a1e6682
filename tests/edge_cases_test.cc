/**
 * @file
 * Edge cases and failure paths across modules: resource exhaustion,
 * compiler limits, deep structures, degenerate configurations.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault_test_util.h"
#include "kl1_test_util.h"

namespace pim::kl1 {
namespace {

using testutil::run;
using testutil::smallConfig;

TEST(EdgeCases, LayoutClassificationConsistentOnRandomAddresses)
{
    LayoutConfig config;
    config.numPes = 5; // deliberately not a power of two
    const Layout layout(config);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(layout.totalWords() + 10000);
        const Area area = layout.areaOf(addr);
        const PeId pe = layout.peOf(addr);
        if (area == Area::Instruction || area == Area::Unknown) {
            EXPECT_EQ(pe, kNoPe);
        } else {
            ASSERT_LT(pe, 5u);
            // The address really is inside that PE's segment.
            const Range seg = layout.segment(area, pe);
            EXPECT_TRUE(seg.contains(addr));
        }
    }
}

TEST(EdgeCases, SinglePeSystemRunsEverything)
{
    // No stealing partner at all: the scheduler must not look for one.
    const auto out = run(
        "tree(0, R) :- true | R = 1.\n"
        "tree(N, R) :- N > 0 | N1 := N - 1, tree(N1, A), tree(N1, B),\n"
        "    add(A, B, R).\n"
        "add(A, B, R) :- integer(A), integer(B) | R := A + B.\n",
        "tree(6, R).", smallConfig(1));
    EXPECT_EQ(out.bindings.at("R"), "64");
    EXPECT_EQ(out.stats.steals, 0u);
    EXPECT_EQ(out.refs.areaTotal(Area::Comm), 0u);
}

TEST(EdgeCases, DeeplyNestedStructuresParseAndRun)
{
    std::string term = "0";
    for (int i = 0; i < 18; ++i)
        term = "s(" + term + ")";
    const std::string src =
        "peel(0, R) :- true | R = 0.\n"
        "peel(s(X), R) :- true | peel(X, R1), inc(R1, R).\n"
        "inc(A, R) :- integer(A) | R := A + 1.\n"
        "main(R) :- true | peel(" + term + ", R).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "18");
}

TEST(EdgeCases, ZeroArityProceduresChain)
{
    const auto out = run(
        "a :- true | b, c.\n"
        "b :- true | kl1_result(from_b).\n"
        "c :- true | kl1_result(from_c).\n",
        "a.");
    EXPECT_EQ(out.results.size(), 2u);
}

TEST(EdgeCases, LargeArityProcedure)
{
    const auto out = run(
        "big(A,B,C,D,E,F,G,H,I,J, R) :- true |\n"
        "    S1 := A + B + C + D + E,\n"
        "    S2 := F + G + H + I + J, R := S1 + S2.\n",
        "big(1,2,3,4,5,6,7,8,9,10, R).");
    EXPECT_EQ(out.bindings.at("R"), "55");
}

TEST(EdgeCasesDeath, RegisterOverflowIsCompileError)
{
    // A clause whose body needs more persistent registers than the
    // register file provides.
    std::string body;
    for (int i = 0; i < 70; ++i) {
        body += std::string(i ? ", " : "") + "p(V" + std::to_string(i) +
                ")";
    }
    EXPECT_SIM_FAULT(run("p(_).\nmain :- true | " + body + ".\n", "main."),
                     SimFaultKind::Parse, "registers");
}

TEST(EdgeCasesDeath, GoalAreaExhaustion)
{
    // Spawn far more simultaneous goals than the goal area can hold.
    Kl1Config config = smallConfig(1);
    config.layout.goalWordsPerPe = 256;
    EXPECT_SIM_FAULT(run("spray(0, _) :- true | true.\n"
                         "spray(N, U) :- N > 0 | N1 := N - 1, park(U),\n"
                         "    spray(N1, U).\n"
                         "park(U) :- wait(U) | true.\n"
                         "main :- true | spray(500, U), hold(U).\n"
                         "hold(_).\n",
                         "main.", config),
                     SimFaultKind::Config, "goal area exhausted");
}

TEST(EdgeCasesDeath, SuspensionAreaExhaustion)
{
    Kl1Config config = smallConfig(1);
    config.layout.suspWordsPerPe = 4096; // 3-word records
    config.failOnDeadlock = false;
    EXPECT_SIM_FAULT(run("hang(0) :- true | true.\n"
                         "hang(N) :- N > 0 | N1 := N - 1, wait1(W),\n"
                         "    hang(N1).\n"
                         "wait1(W) :- wait(W) | true.\n",
                         "hang(3000).", config),
                     SimFaultKind::Config, "suspension area exhausted");
}

TEST(EdgeCases, ManyProceduresCompileAndDispatch)
{
    // 200 procedures with WaitInt clause selection across them.
    std::string src;
    for (int i = 0; i < 200; ++i) {
        src += "p" + std::to_string(i) + "(R) :- true | R = " +
               std::to_string(i * 3) + ".\n";
    }
    src += "main(R) :- true | p137(R).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "411");
}

TEST(EdgeCases, TinyCacheGeometryStillCorrect)
{
    // One set, one way, one-word blocks: the most degenerate legal cache.
    Kl1Config config = smallConfig(2);
    config.cache.geometry = {1, 1, 1};
    const auto out = run(
        "append([], Y, Z) :- true | Z = Y.\n"
        "append([H|T], Y, Z) :- true | Z = [H|W], append(T, Y, W).\n"
        "main(R) :- true | append([1,2], [3], R).\n",
        "main(R).", config);
    EXPECT_EQ(out.bindings.at("R"), "[1,2,3]");
    // With a one-block cache virtually everything misses.
    EXPECT_GT(out.cache.missRatio(), 0.5);
}

} // namespace
} // namespace pim::kl1
