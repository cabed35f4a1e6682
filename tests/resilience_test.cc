// Resilient sweep execution (docs/ROBUSTNESS.md): the config hash
// gating checkpoints, checkpoint/resume byte-identity of the SWEEP
// document, and timeout rows draining instead of wedging the grid.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/sim_fault.h"
#include "sweep/sweep_runner.h"

namespace pim::sweep {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
tempDir(const char* leaf)
{
    const fs::path dir = fs::path(::testing::TempDir()) / leaf;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

// ------------------------------------------------------ config hash --

TEST(ConfigHash, StableAndSensitiveToDeterministicInputsOnly)
{
    const SweepSpec spec = SweepSpec::smokeGrid();
    SweepOptions options;
    const std::string base = sweepConfigHash(spec, options);
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(base, sweepConfigHash(spec, options));

    // Execution knobs do not change the hash (same grid, same results).
    SweepOptions execution = options;
    execution.jobs = 7;
    execution.timeoutSeconds = 3;
    execution.maxTasks = 1;
    execution.resume = true;
    EXPECT_EQ(base, sweepConfigHash(spec, execution));

    // The scale override changes the kl1 grid, so it changes the hash.
    SweepOptions scaled = options;
    scaled.scale = 3;
    EXPECT_NE(base, sweepConfigHash(spec, scaled));

    // So does any spec change.
    SweepSpec reseeded = spec;
    reseeded.seed = 2;
    EXPECT_NE(base, sweepConfigHash(reseeded, options));
}

// -------------------------------------------------- interrupt/resume --

TEST(Resume, InterruptedThenResumedSweepIsByteIdentical)
{
    const SweepSpec spec = SweepSpec::smokeGrid();

    SweepOptions uninterrupted;
    uninterrupted.jobs = 2;
    uninterrupted.outDir = tempDir("resume_full");
    const SweepOutcome full = runSweep(spec, uninterrupted);
    ASSERT_TRUE(full.complete);
    ASSERT_TRUE(writeSweepFiles(full, uninterrupted));

    // Interrupt after 2 of 4 tasks: no SWEEP.json, a checkpoint instead.
    SweepOptions sliced;
    sliced.jobs = 2;
    sliced.outDir = tempDir("resume_sliced");
    sliced.maxTasks = 2;
    const SweepOutcome partial = runSweep(spec, sliced);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.completedRows, 2u);
    EXPECT_TRUE(partial.sweepJson.empty());
    ASSERT_TRUE(writeSweepFiles(partial, sliced));
    const fs::path ckpt = fs::path(sliced.outDir) / sweepCheckpointName();
    ASSERT_TRUE(fs::exists(ckpt));
    EXPECT_FALSE(
        fs::exists(fs::path(sliced.outDir) / "SWEEP.json"));

    // Resume: restores the 2 checkpointed slots, runs the other 2.
    SweepOptions resumed = sliced;
    resumed.maxTasks = 0;
    resumed.resume = true;
    const SweepOutcome rest = runSweep(spec, resumed);
    EXPECT_TRUE(rest.complete);
    EXPECT_EQ(rest.resumedRows, 2u);
    ASSERT_TRUE(writeSweepFiles(rest, resumed));

    // The acceptance bar: byte-identical SWEEP.json, and the checkpoint
    // cleaned up after publication.
    EXPECT_EQ(rest.sweepJson, full.sweepJson);
    EXPECT_EQ(readFile(sliced.outDir + "/SWEEP.json"),
              readFile(uninterrupted.outDir + "/SWEEP.json"));
    EXPECT_EQ(rest.fingerprint, full.fingerprint);
    EXPECT_FALSE(fs::exists(ckpt));
}

TEST(Resume, ForeignCheckpointIsRejectedAsConfigFault)
{
    const SweepSpec spec = SweepSpec::smokeGrid();
    SweepOptions options;
    options.outDir = tempDir("resume_foreign");
    options.maxTasks = 1;
    const SweepOutcome partial = runSweep(spec, options);
    ASSERT_FALSE(partial.complete);

    // Same checkpoint, different grid (scale override): must refuse.
    SweepOptions other = options;
    other.maxTasks = 0;
    other.resume = true;
    other.scale = 3;
    try {
        runSweep(spec, other);
        FAIL() << "expected SimFault(Config)";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Config);
    }
}

TEST(Resume, MissingCheckpointMeansFreshRun)
{
    const SweepSpec spec = SweepSpec::smokeGrid();
    SweepOptions options;
    options.outDir = tempDir("resume_fresh");
    options.resume = true;
    const SweepOutcome outcome = runSweep(spec, options);
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.resumedRows, 0u);
}

TEST(Resume, CheckpointRoundTripsFailedRows)
{
    // A grid whose stress points all detect an injected deadlock: the
    // failed rows (kind + message) must survive the checkpoint so the
    // resumed SWEEP.json is still byte-identical.
    SweepSpec spec;
    spec.name = "faulty";
    spec.seed = 5;
    SweepExperiment stress;
    stress.id = "lost_ul";
    stress.kind = TaskKind::Stress;
    stress.seeds = 2;
    stress.base.set("steps", ParamValue::ofNumber(5000));
    stress.base.set("pes", ParamValue::ofNumber(4));
    stress.base.set("lockPct", ParamValue::ofNumber(40));
    stress.base.set("plan", ParamValue::ofText("lost_ul:p=1"));
    spec.experiments.push_back(std::move(stress));

    SweepOptions full_options;
    full_options.outDir = tempDir("resume_faulty_full");
    const SweepOutcome full = runSweep(spec, full_options);
    ASSERT_TRUE(full.complete);
    EXPECT_EQ(full.failedRows, 2u);

    SweepOptions sliced = full_options;
    sliced.outDir = tempDir("resume_faulty_sliced");
    sliced.maxTasks = 1;
    const SweepOutcome partial = runSweep(spec, sliced);
    ASSERT_FALSE(partial.complete);

    SweepOptions resumed = sliced;
    resumed.maxTasks = 0;
    resumed.resume = true;
    const SweepOutcome rest = runSweep(spec, resumed);
    ASSERT_TRUE(rest.complete);
    EXPECT_EQ(rest.resumedRows, 1u);
    EXPECT_EQ(rest.failedRows, 2u);
    EXPECT_EQ(rest.sweepJson, full.sweepJson);
}

// ----------------------------------------------------------- timeout --

TEST(Timeout, HungPointBecomesTimeoutRowAndGridDrains)
{
    // An unreachable wall-clock budget turns every point into one
    // SimFault(Timeout) result row; the grid still completes.
    const SweepSpec spec = SweepSpec::smokeGrid();
    SweepOptions options;
    options.jobs = 2;
    options.timeoutSeconds = 1e-9;
    const SweepOutcome outcome = runSweep(spec, options);
    ASSERT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.failedRows, outcome.rows.size());
    for (const SweepRow& row : outcome.rows) {
        EXPECT_TRUE(row.failed);
        EXPECT_EQ(row.faultKind,
                  simFaultKindName(SimFaultKind::Timeout));
    }
}

TEST(Timeout, DeterministicFaultsAreNotRetried)
{
    // Every point runs once: an injected deadlock, a pure function of
    // the point's parameters and seed, is one failed row.
    SweepSpec spec;
    spec.name = "deterministic";
    spec.seed = 5;
    SweepExperiment stress;
    stress.id = "lost_ul";
    stress.kind = TaskKind::Stress;
    stress.seeds = 1;
    stress.base.set("steps", ParamValue::ofNumber(5000));
    stress.base.set("pes", ParamValue::ofNumber(4));
    stress.base.set("lockPct", ParamValue::ofNumber(40));
    stress.base.set("plan", ParamValue::ofText("lost_ul:p=1"));
    spec.experiments.push_back(std::move(stress));

    const SweepOutcome outcome = runSweep(spec, SweepOptions{});
    ASSERT_TRUE(outcome.complete);
    ASSERT_EQ(outcome.failedRows, 1u);
    EXPECT_EQ(outcome.rows[0].faultKind,
              simFaultKindName(SimFaultKind::Deadlock));
}

} // namespace
} // namespace pim::sweep
