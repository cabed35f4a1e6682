// Resilient sweep execution (docs/ROBUSTNESS.md): retry/backoff
// accounting, the config hash gating checkpoints, checkpoint/resume
// byte-identity of the SWEEP document, and timeout rows draining
// instead of wedging the grid.

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

// ------------------------------------------------------------ retry --

TEST(RetryBackoff, DoublesFromBaseAndCaps)
{
    RetryPolicy policy;
    policy.backoffBaseMs = 100;
    EXPECT_EQ(retryBackoffMs(policy, 0), 0u);
    EXPECT_EQ(retryBackoffMs(policy, 1), 100u);
    EXPECT_EQ(retryBackoffMs(policy, 2), 200u);
    EXPECT_EQ(retryBackoffMs(policy, 3), 400u);
    EXPECT_EQ(retryBackoffMs(policy, 7), 5000u); // 6400 capped
    EXPECT_EQ(retryBackoffMs(policy, 30), 5000u);
}

TEST(RunWithRetry, SuccessRunsOnce)
{
    RetryPolicy policy;
    policy.retries = 5;
    RetryAccounting accounting;
    int calls = 0;
    runWithRetry(
        policy,
        [&] {
            ++calls;
            return false; // success / non-transient
        },
        &accounting, [](std::uint32_t) { FAIL() << "no sleep expected"; });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(accounting.attempts, 1u);
    EXPECT_TRUE(accounting.backoffsMs.empty());
}

TEST(RunWithRetry, TransientFailureRetriesWithBackoffThenSucceeds)
{
    RetryPolicy policy;
    policy.retries = 4;
    policy.backoffBaseMs = 10;
    RetryAccounting accounting;
    std::vector<std::uint32_t> slept;
    int calls = 0;
    runWithRetry(
        policy,
        [&] {
            ++calls;
            return calls < 3; // transient twice, then success
        },
        &accounting, [&](std::uint32_t ms) { slept.push_back(ms); });
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(accounting.attempts, 3u);
    ASSERT_EQ(accounting.backoffsMs.size(), 2u);
    EXPECT_EQ(accounting.backoffsMs[0], 10u);
    EXPECT_EQ(accounting.backoffsMs[1], 20u);
    EXPECT_EQ(slept, accounting.backoffsMs);
}

TEST(RunWithRetry, AttemptsAreBounded)
{
    RetryPolicy policy;
    policy.retries = 2;
    policy.backoffBaseMs = 1;
    RetryAccounting accounting;
    int calls = 0;
    runWithRetry(
        policy,
        [&] {
            ++calls;
            return true; // transient forever
        },
        &accounting, [](std::uint32_t) {});
    EXPECT_EQ(calls, 3); // first attempt + 2 retries
    EXPECT_EQ(accounting.attempts, 3u);
    EXPECT_EQ(accounting.backoffsMs.size(), 2u);
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
    execution.retry.retries = 9;
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
    ASSERT_TRUE(writeSweepFiles(spec, full, uninterrupted));

    // Interrupt after 2 of 4 tasks: no SWEEP.json, a checkpoint instead.
    SweepOptions sliced;
    sliced.jobs = 2;
    sliced.outDir = tempDir("resume_sliced");
    sliced.maxTasks = 2;
    const SweepOutcome partial = runSweep(spec, sliced);
    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.completedRows, 2u);
    EXPECT_TRUE(partial.sweepJson.empty());
    ASSERT_TRUE(writeSweepFiles(spec, partial, sliced));
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
    ASSERT_TRUE(writeSweepFiles(spec, rest, resumed));

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
    // An unreachable wall-clock budget turns every point into a
    // SimFault(Timeout) result row; the grid still completes and the
    // rows carry the retry accounting (attempts = retries + 1).
    const SweepSpec spec = SweepSpec::smokeGrid();
    SweepOptions options;
    options.jobs = 2;
    options.timeoutSeconds = 1e-9;
    options.retry.retries = 1;
    options.retry.backoffBaseMs = 1;
    const SweepOutcome outcome = runSweep(spec, options);
    ASSERT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.failedRows, outcome.rows.size());
    EXPECT_EQ(outcome.retriedRows, outcome.rows.size());
    for (const SweepRow& row : outcome.rows) {
        EXPECT_TRUE(row.failed);
        EXPECT_EQ(row.faultKind,
                  simFaultKindName(SimFaultKind::Timeout));
        EXPECT_EQ(row.attempts, 2u);
        ASSERT_EQ(row.retriedKinds.size(), 1u);
        EXPECT_EQ(row.retriedKinds[0],
                  simFaultKindName(SimFaultKind::Timeout));
    }
}

TEST(Timeout, DeterministicFaultsAreNotRetried)
{
    // Injected deadlocks are deterministic: re-running reproduces the
    // identical fault, so the runner must not waste attempts on them.
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

    SweepOptions options;
    options.retry.retries = 3;
    const SweepOutcome outcome = runSweep(spec, options);
    ASSERT_TRUE(outcome.complete);
    ASSERT_EQ(outcome.failedRows, 1u);
    EXPECT_EQ(outcome.retriedRows, 0u);
    EXPECT_EQ(outcome.rows[0].attempts, 1u);
}

} // namespace
} // namespace pim::sweep
