/**
 * @file
 * Stop-and-copy GC tests: collections trigger under heap pressure, live
 * data (including data held across many collections, suspended goals'
 * arguments, and query variables) survives relocation, garbage is
 * reclaimed, and programs compute identical answers with GC on and off.
 */

#include <gtest/gtest.h>

#include "bench_kl1/programs.h"
#include "bench_kl1/workload.h"
#include "fault_test_util.h"
#include "kl1_test_util.h"

namespace pim::kl1 {
namespace {

using testutil::Outcome;
using testutil::run;
using testutil::smallConfig;

/** A small heap so collections actually happen. */
Kl1Config
gcConfig(std::uint32_t pes = 2, std::uint32_t heap_words_log2 = 14)
{
    Kl1Config config = smallConfig(pes);
    config.enableGc = true;
    config.layout.heapWordsPerPe = 1u << heap_words_log2;
    config.gcSlackWords = 1024;
    return config;
}

/** Churn: builds and sums a fresh N-element list per iteration; all of
 *  it is garbage by the next iteration. */
const char* kChurnSrc =
    "build(0, L) :- true | L = [].\n"
    "build(N, L) :- N > 0 | N1 := N - 1, L = [N|T], build(N1, T).\n"
    "sum([], A, R) :- true | R = A.\n"
    "sum([X|Xs], A, R) :- true | A1 := A + X, sum(Xs, A1, R).\n"
    "loop(0, Acc, R) :- true | R = Acc.\n"
    "loop(K, Acc, R) :- K > 0 | build(120, L), sum(L, 0, S),\n"
    "    step(S, K, Acc, R).\n"
    "step(S, K, Acc, R) :- integer(S) | K1 := K - 1,\n"
    "    A1 := Acc + S, loop(K1, A1, R).\n";

TEST(Kl1Gc, CollectsAndComputesCorrectly)
{
    Module module = compileProgram(parseProgram(kChurnSrc));
    Emulator emu(std::move(module), gcConfig(1));
    const RunStats stats = emu.run("loop(400, 0, R).");
    // 400 iterations x sum(1..120)=7260.
    for (const auto& [name, value] : emu.queryBindings())
        EXPECT_EQ(value, "2904000") << name;
    EXPECT_GT(stats.gc.collections, 0u);
    EXPECT_GT(stats.gc.wordsReclaimed, stats.gc.wordsCopied);
}

TEST(Kl1Gc, SameAnswerWithAndWithoutGc)
{
    const Outcome without =
        run(kChurnSrc, "loop(200, 0, R).", smallConfig(2));
    Module module = compileProgram(parseProgram(kChurnSrc));
    Emulator emu(std::move(module), gcConfig(2));
    emu.run("loop(200, 0, R).");
    for (const auto& [name, value] : emu.queryBindings()) {
        if (name == "R") {
            EXPECT_EQ(value, without.bindings.at("R"));
        }
    }
}

TEST(Kl1Gc, LiveDataSurvivesManyCollections)
{
    // Build a list once, keep it live through heavy churn, then check
    // its contents were relocated intact.
    const std::string src = std::string(kChurnSrc) +
        "main(R) :- true | build(40, Keep), loop(300, 0, X),\n"
        "    done(X, Keep, R).\n"
        "done(X, Keep, R) :- integer(X) | sum(Keep, 0, R).\n";
    Module module = compileProgram(parseProgram(src));
    Emulator emu(std::move(module), gcConfig(1));
    const RunStats stats = emu.run("main(R).");
    EXPECT_GT(stats.gc.collections, 1u);
    for (const auto& [name, value] : emu.queryBindings())
        EXPECT_EQ(value, "820") << name; // sum 1..40
}

TEST(Kl1Gc, SuspendedGoalsSurviveCollection)
{
    // The consumer suspends on a stream whose producer churns enough
    // garbage to force collections while suspensions are outstanding.
    const std::string src = std::string(kChurnSrc) +
        "main(R) :- true | consume(S, 0, R), feed(60, S).\n"
        "feed(0, S) :- true | S = [].\n"
        "feed(K, S) :- K > 0 | build(100, L), sum(L, 0, V),\n"
        "    put(V, K, S).\n"
        "put(V, K, S) :- integer(V) | S = [V|S1], K1 := K - 1,\n"
        "    feed(K1, S1).\n"
        "consume([], Acc, R) :- true | R = Acc.\n"
        "consume([X|Xs], Acc, R) :- true | A1 := Acc + X,\n"
        "    consume(Xs, A1, R).\n";
    Module module = compileProgram(parseProgram(src));
    Emulator emu(std::move(module), gcConfig(1));
    const RunStats stats = emu.run("main(R).");
    EXPECT_GT(stats.gc.collections, 0u);
    EXPECT_GT(stats.suspensions, 0u);
    for (const auto& [name, value] : emu.queryBindings())
        EXPECT_EQ(value, "303000") << name; // 60 x sum(1..100)
}

TEST(Kl1Gc, MultiPeCollection)
{
    const std::string src = std::string(kChurnSrc) +
        "tree(0, R) :- true | build(60, L), sum(L, 0, R).\n"
        "tree(N, R) :- N > 0 | N1 := N - 1, tree(N1, A), tree(N1, B),\n"
        "    add(A, B, R).\n"
        "add(A, B, R) :- integer(A), integer(B) | R := A + B.\n";
    Module module = compileProgram(parseProgram(src));
    Emulator emu(std::move(module), gcConfig(4, 13));
    const RunStats stats = emu.run("tree(9, R).");
    EXPECT_GT(stats.gc.collections, 0u);
    for (const auto& [name, value] : emu.queryBindings())
        EXPECT_EQ(value, "936960") << name; // 512 x sum(1..60)
}

TEST(Kl1Gc, BenchmarksRunUnderGc)
{
    using namespace bench;
    Kl1Config config = paperConfig(4);
    config.enableGc = true;
    config.layout.heapWordsPerPe = 1 << 16;
    config.gcSlackWords = 2048;
    for (const char* name : {"Puzzle", "Pascal"}) {
        const BenchResult result =
            runBenchmark(benchmarkByName(name), 1, config);
        EXPECT_EQ(result.answer, result.expected) << name;
    }
}

TEST(Kl1Gc, SoakTriUnderGcOnEightPes)
{
    // The full Tri benchmark with a tight heap on 8 PEs: collections,
    // stealing, suspensions and locks all interleave; the answer must
    // still match the host mirror (checked inside runBenchmark).
    using namespace bench;
    Kl1Config config = paperConfig(8);
    config.enableGc = true;
    config.layout.heapWordsPerPe = 1 << 15;
    config.gcSlackWords = 2048;
    const BenchResult result =
        runBenchmark(benchmarkByName("Tri"), 2, config);
    EXPECT_EQ(result.answer, result.expected);
    EXPECT_EQ(result.bus.staleFetches, 0u);
}

TEST(Kl1GcDeath, ExhaustionWithoutGcIsFatal)
{
    Kl1Config config = smallConfig(1);
    config.layout.heapWordsPerPe = 1 << 12;
    Module module = compileProgram(parseProgram(kChurnSrc));
    Emulator emu(std::move(module), config);
    EXPECT_SIM_FAULT(emu.run("loop(400, 0, R)."), SimFaultKind::Config,
                     "heap semispace exhausted");
}

TEST(Kl1Gc, StatsAccumulateAcrossCollections)
{
    Module module = compileProgram(parseProgram(kChurnSrc));
    Emulator emu(std::move(module), gcConfig(1, 13));
    const RunStats stats = emu.run("loop(500, 0, R).");
    EXPECT_GT(stats.gc.collections, 2u);
    EXPECT_GT(stats.gc.wordsCopied, 0u);
    EXPECT_GT(stats.gc.cellsCopied, 0u);
}

} // namespace
} // namespace pim::kl1
