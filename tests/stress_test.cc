/**
 * @file
 * Seed-replay stress harness tests: bit-identical determinism, fault
 * class detection under injection, and a clean audited run.
 */

#include <gtest/gtest.h>

#include "common/json.h"
#include "fault_test_util.h"
#include "sim/stress.h"

namespace pim {
namespace {

StressConfig
quickConfig(std::uint64_t seed)
{
    StressConfig config;
    config.seed = seed;
    config.numPes = 4;
    config.steps = 3000;
    config.spanWords = 1024;
    return config;
}

TEST(Stress, CleanRunPassesTheAuditor)
{
    const StressResult result = runStress(quickConfig(11));
    EXPECT_FALSE(result.failed) << result.message;
    EXPECT_GE(result.completedRefs, 3000u);
    EXPECT_GT(result.auditChecks, 0u);
    EXPECT_GT(result.makespan, 0u);
}

TEST(Stress, SameConfigSameFingerprint)
{
    const StressResult a = runStress(quickConfig(42));
    const StressResult b = runStress(quickConfig(42));
    EXPECT_FALSE(a.failed) << a.message;
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.completedRefs, b.completedRefs);
    EXPECT_EQ(a.makespan, b.makespan);

    const StressResult c = runStress(quickConfig(43));
    EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(Stress, GeometryStringRoundTrips)
{
    StressConfig config;
    config.setGeometry("8x4x128");
    EXPECT_EQ(config.blockWords, 8u);
    EXPECT_EQ(config.ways, 4u);
    EXPECT_EQ(config.sets, 128u);
    EXPECT_EQ(config.geometryString(), "8x4x128");
    EXPECT_THROW(config.setGeometry("8x4"), SimFault);
    EXPECT_THROW(config.setGeometry("axbxc"), SimFault);
}

TEST(Stress, CorruptionIsDetectedAndReplays)
{
    StressConfig config = quickConfig(7);
    config.planSpec = "corrupt_word:p=0.01";
    const StressResult first = runStress(config);
    ASSERT_TRUE(first.failed);
    EXPECT_TRUE(first.kind == SimFaultKind::Corruption ||
                first.kind == SimFaultKind::Protocol)
        << first.message;
    EXPECT_NE(first.replayLine.find("--seed=7"), std::string::npos)
        << first.replayLine;
    EXPECT_NE(first.replayLine.find("--plan=corrupt_word"),
              std::string::npos);

    // The replay line's content is the config itself: rerunning the
    // same config must reproduce the identical failure.
    const StressResult again = runStress(config);
    ASSERT_TRUE(again.failed);
    EXPECT_EQ(again.kind, first.kind);
    EXPECT_EQ(again.message, first.message);
    EXPECT_EQ(again.completedRefs, first.completedRefs);
}

TEST(Stress, LostUnlockIsDetectedAsDeadlockOrStarvation)
{
    StressConfig config = quickConfig(5);
    config.planSpec = "lost_ul:p=1";
    config.lockPct = 40;
    const StressResult result = runStress(config);
    ASSERT_TRUE(result.failed);
    EXPECT_TRUE(result.kind == SimFaultKind::Deadlock ||
                result.kind == SimFaultKind::Starvation)
        << result.message;

    const StressResult again = runStress(config);
    EXPECT_EQ(again.kind, result.kind);
    EXPECT_EQ(again.message, result.message);
}

TEST(Stress, StuckLwaitIsDetectedAsLivelock)
{
    StressConfig config = quickConfig(9);
    config.planSpec = "stuck_lwait:p=1,spurious_wakeup:p=0.5";
    config.lockPct = 40;
    config.watchdog.livelockRetries = 50;
    const StressResult result = runStress(config);
    ASSERT_TRUE(result.failed);
    EXPECT_TRUE(result.kind == SimFaultKind::Livelock ||
                result.kind == SimFaultKind::Deadlock ||
                result.kind == SimFaultKind::Starvation)
        << result.message;
    EXPECT_FALSE(result.replayLine.empty());

    const StressResult again = runStress(config);
    EXPECT_EQ(again.kind, result.kind);
    EXPECT_EQ(again.message, result.message);
}

TEST(Stress, ImpossibleMachineIsAConfigFault)
{
    // A zero block size must be refused before the address map divides
    // by it (pim_stress --geometry=0x2x64).
    StressConfig config = quickConfig(1);
    config.setGeometry("0x2x64");
    EXPECT_SIM_FAULT(runStress(config), SimFaultKind::Config, "blockWords");
}

TEST(Stress, ForcedMissDroppingDirtyDataIsCaught)
{
    // A forced miss silently drops the copy without copy-back, so the
    // first one that hits a dirty block is a detectable corruption.
    StressConfig config = quickConfig(3);
    config.planSpec = "forced_miss:p=0.05";
    const StressResult result = runStress(config);
    ASSERT_TRUE(result.failed);
    EXPECT_TRUE(result.kind == SimFaultKind::Corruption ||
                result.kind == SimFaultKind::Protocol)
        << result.message;
}

TEST(Stress, TimelineDumpedOnInjectedFault)
{
    // --timeline-out must leave a parseable Chrome trace-event document
    // behind even when the run dies on an injected fault, so the cycles
    // leading up to the failure can be inspected in Perfetto.
    StressConfig config = quickConfig(7);
    config.planSpec = "corrupt_word:p=0.01";
    config.timelineOut = ::testing::TempDir() + "stress_fault_timeline.json";
    const StressResult result = runStress(config);
    ASSERT_TRUE(result.failed);
    EXPECT_EQ(result.timelinePath, config.timelineOut);
    EXPECT_GT(result.timelineEvents, 0u);

    const JsonValue doc = JsonValue::parseFile(result.timelinePath);
    ASSERT_TRUE(doc.has("traceEvents"));
    EXPECT_GT(doc.at("traceEvents").size(), 0u);
    // write() auto-closes whatever the fault left open, so begins and
    // ends balance even for the aborted run.
    std::uint64_t begins = 0;
    std::uint64_t ends = 0;
    for (const JsonValue& event : doc.at("traceEvents").asArray()) {
        if (event.at("ph").asString() == "B")
            ++begins;
        else if (event.at("ph").asString() == "E")
            ++ends;
    }
    EXPECT_EQ(begins, ends);
}

TEST(Stress, TimelineWrittenForCleanRunToo)
{
    StressConfig config = quickConfig(11);
    config.timelineOut = ::testing::TempDir() + "stress_clean_timeline.json";
    const StressResult result = runStress(config);
    EXPECT_FALSE(result.failed) << result.message;
    EXPECT_EQ(result.timelinePath, config.timelineOut);
    EXPECT_GT(result.timelineEvents, 0u);
    EXPECT_TRUE(
        JsonValue::parseFile(result.timelinePath).has("traceEvents"));
}

TEST(Stress, InjectorSummaryIsReported)
{
    StressConfig config = quickConfig(3);
    // An armed-but-never-fired rule still counts its opportunities.
    config.planSpec = "forced_miss:after=999999999";
    const StressResult result = runStress(config);
    EXPECT_FALSE(result.failed) << result.message;
    EXPECT_NE(result.injectorSummary.find("forced_miss=0/"),
              std::string::npos)
        << result.injectorSummary;
}

} // namespace
} // namespace pim
