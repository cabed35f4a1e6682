// Resilient sweep execution (docs/ROBUSTNESS.md): timeout rows
// draining instead of wedging the grid, and deterministic faults run
// once.

#include <gtest/gtest.h>

#include "common/sim_fault.h"
#include "sweep/sweep_runner.h"

namespace pim::sweep {
namespace {

TEST(Timeout, HungPointBecomesTimeoutRowAndGridDrains)
{
    // An unreachable wall-clock budget turns every point into one
    // SimFault(Timeout) result row; the grid still completes.
    const SweepSpec spec = SweepSpec::smokeGrid();
    SweepOptions options;
    options.jobs = 2;
    options.timeoutSeconds = 1e-9;
    const SweepOutcome outcome = runSweep(spec, options);
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
    ASSERT_EQ(outcome.failedRows, 1u);
    EXPECT_EQ(outcome.rows[0].faultKind,
              simFaultKindName(SimFaultKind::Deadlock));
}

} // namespace
} // namespace pim::sweep
