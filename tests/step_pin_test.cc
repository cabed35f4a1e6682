/**
 * @file
 * Exact emulator pins: the four benchmarks' answers, every RunStats
 * field (the step counts included), the makespan and the BusStats at 1
 * to 1024 PEs, recorded from a build that counted every step one by one.
 * The idle-spin fast-forward (docs/PERFORMANCE.md "Idle spins") must
 * reproduce each figure exactly: it skips steps, never changes one.
 *
 * A pin moves only with a change to the simulated machine, and that
 * change says why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bench_kl1/programs.h"
#include "bench_kl1/workload.h"
#include "common/rng.h"
#include "common/sim_fault.h"

namespace pim::kl1::bench {
namespace {

/** One pinned run: the machine, then the figures it must reproduce. */
struct Pin {
    const char* bench;
    std::uint32_t pes;
    std::uint32_t clusterSize; ///< 0: the paper's single bus.
    std::uint64_t reductions;
    std::uint64_t suspensions;
    std::uint64_t resumptions;
    std::uint64_t instructions;
    std::uint64_t memoryRefs;
    std::uint64_t steals;
    Cycles makespan;
    std::uint64_t steps;
    std::uint64_t idleSteps;
    std::uint64_t spins;
    Cycles busCycles;
    std::uint64_t busFingerprint; ///< Every BusStats field, mixed.
};

/** paperConfig at @p pes, on 16-PE clusters with 2-cycle hops if asked. */
Kl1Config
pinConfig(std::uint32_t pes, std::uint32_t cluster_size)
{
    Kl1Config config = paperConfig(pes);
    if (cluster_size != 0) {
        config.cluster.clusterSize = cluster_size;
        config.cluster.hopCycles = 2;
    }
    return config;
}

std::uint64_t
fingerprint(const BusStats& bus)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < kNumBusPatterns; ++i) {
        h = hashMix(h, bus.cyclesByPattern[i]);
        h = hashMix(h, bus.transByPattern[i]);
    }
    for (int i = 0; i < kNumAreaSlots; ++i)
        h = hashMix(h, bus.cyclesByArea[i]);
    for (int i = 0; i < kNumBusCmds; ++i)
        h = hashMix(h, bus.cmdCounts[i]);
    for (std::uint64_t v :
         {bus.totalCycles, bus.memoryBusyCycles, bus.memoryReads,
          bus.memoryWrites, bus.staleFetches, bus.interClusterCycles,
          bus.interClusterHops})
        h = hashMix(h, v);
    return h;
}

/** @p pin as a table row, so a failure prints the row to paste. */
std::string
rowOf(const Pin& pin)
{
    std::ostringstream out;
    out << "{\"" << pin.bench << "\", " << pin.pes << ", "
        << pin.clusterSize << ", " << pin.reductions << ", "
        << pin.suspensions << ", " << pin.resumptions << ", "
        << pin.instructions << ", " << pin.memoryRefs << ", " << pin.steals
        << ", " << pin.makespan << ", " << pin.steps << ", "
        << pin.idleSteps << ", " << pin.spins << ", " << pin.busCycles
        << ", 0x" << std::hex << pin.busFingerprint << "ull},";
    return out.str();
}

/** Run @p pin's machine and expect every pinned figure. */
void
expectPinned(const Pin& pin)
{
    const BenchResult result = runBenchmark(
        benchmarkByName(pin.bench), 1, pinConfig(pin.pes, pin.clusterSize));
    // runBenchmark raises Corruption unless the answer is the mirror's.
    EXPECT_EQ(result.answer, result.expected);
    const RunStats& run = result.run;
    EXPECT_EQ(run.deadlockedGoals, 0u);
    EXPECT_EQ(run.gc.collections, 0u);
    EXPECT_EQ(run.gc.wordsCopied + run.gc.cellsCopied +
                  run.gc.wordsReclaimed,
              0u);
    const Pin got{pin.bench,          pin.pes,
                  pin.clusterSize,    run.reductions,
                  run.suspensions,    run.resumptions,
                  run.instructions,   run.memoryRefs,
                  run.steals,         run.makespan,
                  run.steps,          run.idleSteps,
                  run.spins,          result.bus.totalCycles,
                  fingerprint(result.bus)};
    EXPECT_EQ(rowOf(got), rowOf(pin));
}

// clang-format off
// {bench, pes, clusterSize, reductions, suspensions, resumptions,
//  instructions, memoryRefs, steals, makespan, steps, idleSteps, spins,
//  bus cycles, bus fingerprint}
constexpr Pin kNarrowPins[] = {
    {"Tri", 1, 0, 23024, 0, 0, 530487, 875348, 0, 906708, 538903, 0, 0, 37230, 0xcbd278ced70484bcull},
    {"Semi", 1, 0, 19521, 740, 740, 341315, 655315, 0, 739107, 350341, 0, 0, 99496, 0x2e43d207dfce435ull},
    {"Puzzle", 1, 0, 15370, 719, 719, 185072, 341817, 0, 366357, 192759, 0, 0, 30263, 0x6b77e3361f0baadull},
    {"Pascal", 1, 0, 5584, 1375, 1375, 130794, 300893, 0, 408605, 139416, 0, 0, 119240, 0x8ac99a66c6c215ddull},
    {"Tri", 2, 0, 23024, 46, 46, 530763, 886240, 47, 464124, 539967, 512, 89, 37587, 0xc403a48e1d77a434ull},
    {"Semi", 2, 0, 17175, 553, 553, 302010, 581866, 9, 363826, 313466, 4077, 3368, 86338, 0xf036a5414d45845cull},
    {"Puzzle", 2, 0, 15370, 719, 719, 185072, 346820, 5, 191678, 193048, 262, 143, 27143, 0x7c4eaeb189530f13ull},
    {"Pascal", 2, 0, 5584, 137, 137, 117146, 248871, 217, 165130, 121585, 1770, 424, 57822, 0x3e546eb69b1f1990ull},
    {"Tri", 8, 0, 23024, 271, 271, 532113, 901598, 426, 146447, 550839, 8437, 4310, 63234, 0xad7151f432bf2557ull},
    {"Semi", 8, 0, 14221, 249, 249, 252134, 507860, 18, 414169, 428926, 171028, 145980, 75006, 0xcba9bc7681ff3285ull},
    {"Puzzle", 8, 0, 15370, 738, 738, 185148, 349015, 53, 55700, 197110, 3950, 2552, 19540, 0xec2f42913d70d4bdull},
    {"Pascal", 8, 0, 5584, 155, 155, 117462, 266386, 632, 121474, 148169, 27119, 15333, 99580, 0x486e2931afd1e14dull},
    {"Tri", 64, 0, 23024, 519, 519, 533601, 1057768, 1002, 250667, 901471, 353864, 226733, 244081, 0xf8b06fabcbe6805bull},
    {"Semi", 64, 0, 14152, 271, 271, 251383, 759281, 18, 444419, 1930955, 1667581, 1424842, 248363, 0xe37dbdf9b24485cbull},
    {"Puzzle", 64, 0, 15370, 745, 745, 185176, 393747, 83, 79136, 380943, 186392, 148379, 74331, 0x1e9a79364750b796ull},
    {"Pascal", 64, 0, 5584, 162, 162, 117527, 388870, 396, 213978, 869809, 745671, 628115, 179516, 0xe1ac98456b3e5f65ull},
};

// The first row is perfbench's wide128 single-bus leg.
constexpr Pin kWidePins[] = {
    {"Tri", 128, 0, 23024, 749, 749, 534981, 1573320, 1593, 507448, 2153398, 1597083, 1032709, 500812, 0xe900653782acee21ull},
    {"Tri", 128, 16, 23024, 543, 543, 533745, 1493177, 1280, 434806, 1917971, 1365477, 861399, 617060, 0x411f6845a6af3ba0ull},
    {"Tri", 256, 16, 23024, 527, 527, 533649, 2277716, 1387, 540642, 4578681, 4013631, 2833945, 1187714, 0x66cb86428f227b31ull},
    {"Pascal", 128, 16, 5584, 163, 163, 117485, 645249, 475, 310692, 2311955, 2181510, 1844597, 550281, 0xac320a149239a4e8ull},
    {"Pascal", 256, 16, 5584, 164, 164, 117533, 1273367, 576, 420130, 5749191, 5603427, 4729292, 1233108, 0xb8127f3f296ace68ull},
};

constexpr Pin kPascal1024 =
    {"Pascal", 1024, 16, 5584, 160, 160, 117485, 5656110, 627, 599224, 29205741, 28955146, 24330020, 5793472, 0xae7eccf562a192a7ull};
// clang-format on

TEST(StepPins, SingleBusUpTo64Pes)
{
    for (const Pin& pin : kNarrowPins) {
        SCOPED_TRACE(rowOf(pin));
        expectPinned(pin);
    }
}

TEST(StepPins, MaxStepsBoundsTheExactCount)
{
    // Tri at 64 PEs ends with idle PEs part-way through a jump, so the
    // last of its steps are counted after the run loop.
    const Pin& pin = kNarrowPins[12];
    ASSERT_STREQ(pin.bench, "Tri");
    ASSERT_EQ(pin.pes, 64u);
    Kl1Config config = pinConfig(pin.pes, pin.clusterSize);
    config.maxSteps = pin.steps;
    const BenchResult result =
        runBenchmark(benchmarkByName(pin.bench), 1, config);
    EXPECT_EQ(result.run.steps, pin.steps);
    config.maxSteps = pin.steps - 1;
    try {
        runBenchmark(benchmarkByName(pin.bench), 1, config);
        ADD_FAILURE() << "maxSteps one below the step count did not trip";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Timeout) << fault.what();
    }
}

TEST(StepPinsWide, Tri128SingleBusAndClustered128And256)
{
    for (const Pin& pin : kWidePins) {
        SCOPED_TRACE(rowOf(pin));
        expectPinned(pin);
    }
}

TEST(StepPinsWide, Pascal1024Clustered)
{
    expectPinned(kPascal1024);
}

} // namespace
} // namespace pim::kl1::bench
