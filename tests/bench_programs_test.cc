/**
 * @file
 * Tests for the four synthesized benchmark programs: correct answers
 * (checked against host-side mirror computations) and the qualitative
 * workload shapes the paper attributes to each benchmark.
 */

#include <gtest/gtest.h>

#include "bench_kl1/programs.h"
#include "bench_kl1/workload.h"
#include "fault_test_util.h"
#include "kl1/compiler.h"
#include "kl1/parser.h"
#include "verify/coherence_auditor.h"
#include "verify/lock_watchdog.h"

namespace pim::kl1::bench {
namespace {

Kl1Config
testConfig(std::uint32_t pes = 8)
{
    Kl1Config config = paperConfig(pes);
    // Keep the test heaps small so the fixture stays light.
    config.layout.heapWordsPerPe = 1 << 21;
    return config;
}

TEST(BenchPrograms, AllFourHaveDistinctSources)
{
    const auto& all = allBenchmarks();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].name, "Tri");
    EXPECT_EQ(all[1].name, "Semi");
    EXPECT_EQ(all[2].name, "Puzzle");
    EXPECT_EQ(all[3].name, "Pascal");
    for (const auto& bench : all) {
        EXPECT_FALSE(bench.source.empty());
        EXPECT_FALSE(bench.query(1).empty());
    }
}

TEST(BenchPrograms, ByNameLookup)
{
    EXPECT_EQ(benchmarkByName("Semi").name, "Semi");
    EXPECT_SIM_FAULT(benchmarkByName("Nope"), SimFaultKind::Config,
                     "unknown benchmark");
}

TEST(BenchPrograms, TriMatchesMirrorAtSmallScale)
{
    const BenchResult result =
        runBenchmark(benchmarkByName("Tri"), 1, testConfig());
    EXPECT_EQ(result.answer, result.expected); // runBenchmark enforces too
    EXPECT_GT(result.run.reductions, 1000u);
    // A wide irregular tree: work must actually be distributed.
    EXPECT_GT(result.run.steals, 0u);
}

TEST(BenchPrograms, SemiMatchesMirrorAndSuspends)
{
    const BenchResult result =
        runBenchmark(benchmarkByName("Semi"), 1, testConfig());
    EXPECT_EQ(result.answer, result.expected);
    // The stream-merge manager suspends pervasively (paper: Semi has the
    // largest suspension count relative to its size).
    EXPECT_GT(result.run.suspensions, 50u);
}

TEST(BenchPrograms, PuzzleMatchesMirror)
{
    const BenchResult result =
        runBenchmark(benchmarkByName("Puzzle"), 1, testConfig());
    EXPECT_EQ(result.answer, result.expected);
    EXPECT_EQ(result.answer, "95"); // domino tilings of the 4x5 board
    // Heavy dynamic structure creation: plentiful heap writes.
    EXPECT_GT(result.refs.count(Area::Heap, MemOp::DW) +
                  result.refs.count(Area::Heap, MemOp::W),
              result.run.reductions / 2);
}

TEST(BenchPrograms, PascalMatchesMirrorAndPipelines)
{
    const BenchResult result =
        runBenchmark(benchmarkByName("Pascal"), 1, testConfig());
    EXPECT_EQ(result.answer, result.expected);
    // Producer/consumer pipeline: many suspensions.
    EXPECT_GT(result.run.suspensions, 20u);
}

TEST(BenchPrograms, ScaleGrowsWork)
{
    const BenchResult small =
        runBenchmark(benchmarkByName("Puzzle"), 1, testConfig());
    const BenchResult large =
        runBenchmark(benchmarkByName("Puzzle"), 2, testConfig());
    EXPECT_GT(large.run.reductions, small.run.reductions * 2);
}

TEST(BenchPrograms, AnswersIndependentOfPeCount)
{
    for (const BenchProgram& bench : allBenchmarks()) {
        const BenchResult one = runBenchmark(bench, 1, testConfig(1));
        const BenchResult eight = runBenchmark(bench, 1, testConfig(8));
        EXPECT_EQ(one.answer, eight.answer) << bench.name;
        // Semi's nondeterministic stream merge makes the candidate order
        // (and hence membership-scan lengths) scheduling-dependent; only
        // the result is confluent. The other three reduce identically.
        if (bench.name != "Semi") {
            EXPECT_EQ(one.run.reductions, eight.run.reductions)
                << bench.name;
        }
    }
}

TEST(BenchPrograms, AnswersIndependentOfPolicy)
{
    for (const BenchProgram& bench : allBenchmarks()) {
        const BenchResult all_opt = runBenchmark(
            bench, 1, testConfig());
        Kl1Config none = testConfig();
        none.policy = OptPolicy::none();
        const BenchResult no_opt = runBenchmark(bench, 1, none);
        EXPECT_EQ(all_opt.answer, no_opt.answer) << bench.name;
        // And the optimizations must not cost traffic.
        EXPECT_LE(all_opt.bus.totalCycles, no_opt.bus.totalCycles)
            << bench.name;
    }
}

/**
 * The real KL1 reference streams under the coherence auditor and the
 * lock watchdog: every access of every benchmark is checked against the
 * protocol invariants and a shadow memory, including the DW/ER/RP/RI
 * software contracts, on an invalidation and an update protocol.
 */
TEST(BenchPrograms, ContractHolds)
{
    for (const ProtocolKind protocol :
         {ProtocolKind::PIM, ProtocolKind::Dragon}) {
        for (const std::uint32_t pes : {2u, 8u}) {
            Kl1Config config = testConfig(pes);
            config.cache.protocol = protocol;
            for (const BenchProgram& bench : allBenchmarks()) {
                SCOPED_TRACE(bench.name + " on " + std::to_string(pes) +
                             " PEs, " + protocolKindName(protocol));
                Emulator emu(compileProgram(parseProgram(bench.source)),
                             config);
                CoherenceAuditor auditor(emu.system());
                emu.system().addAccessObserver(&auditor);
                LockWatchdog watchdog(emu.system(), WatchdogConfig{});
                emu.system().addAccessObserver(&watchdog);

                emu.run(bench.query(1));
                auditor.auditFull();

                EXPECT_GT(auditor.checksRun(), 0u);
                EXPECT_EQ(emu.system().bus().stats().staleFetches, 0u);
                std::string answer;
                for (const auto& [name, value] : emu.queryBindings()) {
                    if (name == "R")
                        answer = value;
                }
                EXPECT_EQ(answer, bench.expected(1));
            }
        }
    }
}

} // namespace
} // namespace pim::kl1::bench
