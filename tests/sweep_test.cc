/**
 * @file
 * Sweep engine tests (ctest label `sweep`): grid expansion order, spec
 * parsing, cross---jobs byte-identity of the SWEEP document,
 * SimFault-throwing tasks landing as failed rows without stopping the
 * other workers, and points a task would misread, or a grid too big to
 * expand, refused before any task runs.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/sim_fault.h"
#include "sweep/sweep_runner.h"
#include "sweep/sweep_spec.h"

using namespace pim;
using namespace pim::sweep;

namespace {

TEST(SweepSpecTest, ExpandIsCartesianLastAxisFastest)
{
    SweepExperiment exp;
    exp.id = "grid";
    exp.base.set("pes", ParamValue::ofNumber(8));
    exp.axes.push_back({"block", {ParamValue::ofNumber(2),
                                  ParamValue::ofNumber(4)}});
    exp.axes.push_back({"bench", {ParamValue::ofText("Tri"),
                                  ParamValue::ofText("Pascal"),
                                  ParamValue::ofText("Primes")}});

    EXPECT_EQ(exp.pointCount(), 6u);
    auto points = exp.expand();
    ASSERT_EQ(points.size(), 6u);
    // Document order: first axis slowest, last axis fastest.
    EXPECT_EQ(points[0].toString(), "pes=8 block=2 bench=Tri");
    EXPECT_EQ(points[1].toString(), "pes=8 block=2 bench=Pascal");
    EXPECT_EQ(points[2].toString(), "pes=8 block=2 bench=Primes");
    EXPECT_EQ(points[3].toString(), "pes=8 block=4 bench=Tri");
    EXPECT_EQ(points[5].toString(), "pes=8 block=4 bench=Primes");
}

TEST(SweepSpecTest, ExpandWithNoAxesIsTheBasePoint)
{
    SweepExperiment exp;
    exp.base.set("steps", ParamValue::ofNumber(100));
    auto points = exp.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].toString(), "steps=100");
}

TEST(SweepSpecTest, StressSeedsAreAnImplicitSlowestAxis)
{
    SweepExperiment exp;
    exp.kind = TaskKind::Stress;
    exp.seeds = 3;
    exp.axes.push_back({"pes", {ParamValue::ofNumber(2),
                                ParamValue::ofNumber(4)}});
    EXPECT_EQ(exp.pointCount(), 6u);
    auto points = exp.expand();
    ASSERT_EQ(points.size(), 6u);
    // The implicit seed axis is the slowest of all.
    EXPECT_EQ(points[0].toString(), "seed_slot=0 pes=2");
    EXPECT_EQ(points[1].toString(), "seed_slot=0 pes=4");
    EXPECT_EQ(points[2].toString(), "seed_slot=1 pes=2");
    EXPECT_EQ(points[5].toString(), "seed_slot=2 pes=4");
}

TEST(SweepSpecTest, DerivedSeedsFitIn32BitsAndDiffer)
{
    // 32-bit fit is what lets a seed round-trip exactly through the
    // JSON double representation and `pim_stress --seed=` replay.
    std::uint64_t a = deriveSeed(1, 0);
    std::uint64_t b = deriveSeed(1, 1);
    std::uint64_t c = deriveSeed(2, 0);
    EXPECT_LE(a, 0xffffffffULL);
    EXPECT_LE(b, 0xffffffffULL);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a, deriveSeed(1, 0)) << "must be a pure function";
}

TEST(SweepSpecTest, ParsesAJsonSpec)
{
    const std::string text = R"({
        "name": "mini",
        "seed": 42,
        "experiments": [
            {
                "id": "cap",
                "kind": "kl1",
                "base": {"benchmark": "Tri", "scale": 1},
                "axes": {"capacityWords": [512, 1024]},
                "paper": {"miss_pct": 12.5}
            },
            {
                "id": "st",
                "kind": "stress",
                "seeds": 4,
                "base": {"steps": 1000}
            }
        ]
    })";
    SweepSpec spec = SweepSpec::parse(JsonValue::parse(text));
    EXPECT_EQ(spec.name, "mini");
    EXPECT_EQ(spec.seed, 42u);
    ASSERT_EQ(spec.experiments.size(), 2u);
    EXPECT_EQ(spec.experiments[0].id, "cap");
    EXPECT_EQ(spec.experiments[0].kind, TaskKind::Kl1);
    EXPECT_EQ(spec.experiments[0].pointCount(), 2u);
    ASSERT_EQ(spec.experiments[0].paper.size(), 1u);
    EXPECT_EQ(spec.experiments[0].paper[0].first, "miss_pct");
    EXPECT_EQ(spec.experiments[1].kind, TaskKind::Stress);
    EXPECT_EQ(spec.experiments[1].seeds, 4u);
    EXPECT_EQ(spec.totalTasks(), 6u);
}

TEST(SweepSpecTest, RejectsBadSpecs)
{
    auto parse = [](const std::string& text) {
        return SweepSpec::parse(JsonValue::parse(text));
    };
    // Unknown kind.
    EXPECT_THROW(parse(R"({"experiments":[{"id":"x","kind":"bogus"}]})"),
                 SimFault);
    // Duplicate experiment ids.
    EXPECT_THROW(parse(R"({"experiments":[
        {"id":"x","kind":"kl1","base":{"benchmark":"Tri"}},
        {"id":"x","kind":"kl1","base":{"benchmark":"Tri"}}]})"),
                 SimFault);
    // seeds only makes sense for stress experiments.
    EXPECT_THROW(parse(R"({"experiments":[
        {"id":"x","kind":"kl1","seeds":2,
         "base":{"benchmark":"Tri"}}]})"),
                 SimFault);
    // An axis must be a non-empty array.
    EXPECT_THROW(parse(R"({"experiments":[
        {"id":"x","kind":"kl1","base":{"benchmark":"Tri"},
         "axes":{"pes":[]}}]})"),
                 SimFault);
    // A seed count or base seed is a whole number >= 0: the cast to an
    // unsigned type would wrap -1 and truncate 2.5 to 2 seeds.
    for (const char* seeds : {"-1", "2.5", "1e20"}) {
        try {
            parse(std::string(R"({"experiments":[
                {"id":"x","kind":"stress","seeds":)") + seeds + "}]}");
            ADD_FAILURE() << "seeds " << seeds << " was accepted";
        } catch (const SimFault& fault) {
            EXPECT_EQ(fault.kind(), SimFaultKind::Parse) << fault.message();
        }
    }
    EXPECT_THROW(parse(R"({"seed":-1,"experiments":[
        {"id":"x","kind":"stress"}]})"),
                 SimFault);
}

TEST(SweepSpecTest, BuiltInGridsExpand)
{
    SweepSpec paper = SweepSpec::paperGrid();
    EXPECT_GE(paper.experiments.size(), 8u);
    EXPECT_GT(paper.totalTasks(), 50u);
    SweepSpec smoke = SweepSpec::smokeGrid();
    EXPECT_EQ(smoke.totalTasks(), 4u);
}

/** A small deterministic spec used by the runner tests below. */
SweepSpec
miniSpec()
{
    SweepSpec spec;
    spec.name = "mini";
    spec.seed = 7;

    SweepExperiment kl1;
    kl1.id = "kl1_pair";
    kl1.kind = TaskKind::Kl1;
    kl1.base.set("scale", ParamValue::ofNumber(1));
    kl1.base.set("pes", ParamValue::ofNumber(2));
    kl1.axes.push_back({"benchmark", {ParamValue::ofText("Tri"),
                                      ParamValue::ofText("Pascal")}});
    kl1.paper.push_back({"miss_pct", 10.0});
    spec.experiments.push_back(kl1);

    SweepExperiment st;
    st.id = "stress_pair";
    st.kind = TaskKind::Stress;
    st.seeds = 2;
    st.base.set("steps", ParamValue::ofNumber(2000));
    st.base.set("pes", ParamValue::ofNumber(4));
    spec.experiments.push_back(st);
    return spec;
}

TEST(SweepRunnerTest, SweepDocumentIsByteIdenticalAcrossJobs)
{
    SweepSpec spec = miniSpec();
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions wide;
    wide.jobs = 8;

    SweepOutcome a = runSweep(spec, serial);
    SweepOutcome b = runSweep(spec, wide);

    EXPECT_EQ(a.rows.size(), 4u);
    EXPECT_EQ(a.failedRows, 0u);
    EXPECT_EQ(b.failedRows, 0u);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.sweepJson, b.sweepJson) << "--jobs must not leak into "
                                           "the deterministic document";
    EXPECT_EQ(b.jobs, 4u) << "one worker per task, not the 8 asked for";
}

TEST(SweepRunnerTest, SweepDocumentIsWellFormedJson)
{
    SweepOptions options;
    options.jobs = 2;
    SweepOutcome outcome = runSweep(miniSpec(), options);
    JsonValue doc = JsonValue::parse(outcome.sweepJson);
    EXPECT_EQ(doc.at("name").asString(), "mini");
    EXPECT_EQ(doc.at("tasks").asNumber(), 4);
    EXPECT_EQ(doc.at("failed_rows").asNumber(), 0);
    ASSERT_EQ(doc.at("experiments").size(), 2u);

    const JsonValue& kl1 = doc.at("experiments").at(std::size_t{0});
    EXPECT_EQ(kl1.at("id").asString(), "kl1_pair");
    ASSERT_EQ(kl1.at("rows").size(), 2u);
    const JsonValue& row = kl1.at("rows").at(std::size_t{0});
    EXPECT_EQ(row.at("benchmark").asString(), "Tri");
    EXPECT_TRUE(row.has("miss_pct"));
    EXPECT_FALSE(row.at("failed").asBool());
    // Paper reference produces an aggregate with a delta.
    ASSERT_TRUE(kl1.at("aggregate").has("miss_pct"));
    EXPECT_TRUE(kl1.at("aggregate").at("miss_pct").has("paper"));
    EXPECT_TRUE(kl1.at("aggregate").at("miss_pct").has("delta_pct"));

    // Stress rows carry exact integral replay seeds.
    const JsonValue& st = doc.at("experiments").at(std::size_t{1});
    ASSERT_EQ(st.at("rows").size(), 2u);
    double seed = st.at("rows").at(std::size_t{0}).at("seed").asNumber();
    EXPECT_EQ(seed, static_cast<double>(static_cast<std::uint32_t>(seed)))
        << "seeds must survive the JSON double round-trip";

    // No wall-clock contamination anywhere in the deterministic doc.
    EXPECT_EQ(outcome.sweepJson.find("seconds"), std::string::npos);
    EXPECT_FALSE(doc.has("perf"));
}

TEST(SweepRunnerTest, FaultingTaskBecomesFailedRowWithoutPoolTeardown)
{
    SweepSpec spec;
    spec.name = "faulty";
    SweepExperiment exp;
    exp.id = "mixed";
    exp.kind = TaskKind::Kl1;
    exp.base.set("benchmark", ParamValue::ofText("Tri"));
    exp.base.set("scale", ParamValue::ofNumber(1));
    exp.base.set("pes", ParamValue::ofNumber(2));
    // "Bogus" is not an OptPolicy: that task throws SimFault(Config).
    exp.axes.push_back({"policy", {ParamValue::ofText("None"),
                                   ParamValue::ofText("Bogus"),
                                   ParamValue::ofText("All")}});
    spec.experiments.push_back(exp);

    SweepOptions options;
    options.jobs = 4;
    SweepOutcome outcome = runSweep(spec, options);

    ASSERT_EQ(outcome.rows.size(), 3u);
    EXPECT_EQ(outcome.failedRows, 1u);
    EXPECT_FALSE(outcome.rows[0].failed);
    EXPECT_TRUE(outcome.rows[1].failed);
    EXPECT_EQ(outcome.rows[1].faultKind, "config");
    EXPECT_FALSE(outcome.rows[1].message.empty());
    // The workers survived: the task after the fault still produced
    // metrics.
    EXPECT_FALSE(outcome.rows[2].failed);
    EXPECT_FALSE(outcome.rows[2].metrics.empty());

    JsonValue doc = JsonValue::parse(outcome.sweepJson);
    const JsonValue& row =
        doc.at("experiments").at(std::size_t{0}).at("rows")
           .at(std::size_t{1});
    EXPECT_TRUE(row.at("failed").asBool());
    EXPECT_EQ(row.at("fault_kind").asString(), "config");
}

TEST(SweepRunnerTest, OutgrownLockDirectoryIsOneFailedConfigRow)
{
    // Semi nests two locks, so a one-entry lock directory is a size the
    // run outgrows, even on one PE. Only its own row may fail.
    SweepSpec spec;
    spec.name = "locks";
    SweepExperiment good;
    good.id = "good";
    good.base.set("scale", ParamValue::ofNumber(1));
    good.base.set("pes", ParamValue::ofNumber(4));
    good.axes.push_back({"benchmark", {ParamValue::ofText("Tri"),
                                       ParamValue::ofText("Puzzle")}});
    spec.experiments.push_back(good);
    SweepExperiment tight;
    tight.id = "tight";
    tight.base.set("benchmark", ParamValue::ofText("Semi"));
    tight.base.set("scale", ParamValue::ofNumber(1));
    tight.base.set("pes", ParamValue::ofNumber(1));
    tight.base.set("lockEntries", ParamValue::ofNumber(1));
    spec.experiments.push_back(tight);

    SweepOptions options;
    options.jobs = 3;
    const SweepOutcome outcome = runSweep(spec, options);
    ASSERT_EQ(outcome.rows.size(), 3u);
    EXPECT_EQ(outcome.failedRows, 1u);
    EXPECT_FALSE(outcome.rows[0].failed);
    EXPECT_FALSE(outcome.rows[1].failed);
    EXPECT_TRUE(outcome.rows[2].failed);
    EXPECT_EQ(outcome.rows[2].faultKind, "config");
    EXPECT_NE(outcome.rows[2].message.find("lockEntries"), std::string::npos)
        << outcome.rows[2].message;
}

TEST(SweepRunnerTest, ImpossibleMachinesAreFailedConfigRows)
{
    // Each point names a machine that cannot be built; each is one
    // failed row, and the sweep itself completes.
    const std::pair<const char*, double> points[] = {
        {"capacityWords", 1000}, // not a multiple of 4-word blocks x 4 ways
        {"pes", 0},
        {"busWidthWords", 0},
    };
    SweepSpec spec;
    spec.name = "impossible";
    for (const auto& [param, value] : points) {
        SweepExperiment exp;
        exp.id = param;
        exp.base.set("benchmark", ParamValue::ofText("Tri"));
        exp.base.set("scale", ParamValue::ofNumber(1));
        exp.base.set("pes", ParamValue::ofNumber(2));
        exp.base.set(param, ParamValue::ofNumber(value));
        spec.experiments.push_back(exp);
    }

    SweepOptions options;
    options.jobs = 3;
    const SweepOutcome outcome = runSweep(spec, options);
    ASSERT_EQ(outcome.rows.size(), 3u);
    EXPECT_EQ(outcome.failedRows, 3u);
    for (const SweepRow& row : outcome.rows) {
        EXPECT_TRUE(row.failed) << row.params.toString();
        EXPECT_EQ(row.faultKind, "config") << row.message;
    }
}

/**
 * Run @p spec and expect SimFault(Config) naming @p what, thrown before
 * any task ran. The witness is a valid stress point put first in the
 * grid, too long to finish, that a wall-clock budget stops after
 * kSlowSeconds: had any task run, the refusal could not come back in a
 * small fraction of that budget.
 */
void
expectRejectedBeforeAnyTaskRuns(SweepSpec spec, const std::string& what)
{
    using Clock = std::chrono::steady_clock;
    constexpr double kSlowSeconds = 5;
    SweepExperiment slow;
    slow.id = "slow";
    slow.kind = TaskKind::Stress;
    slow.seeds = 1;
    slow.base.set("steps", ParamValue::ofNumber(1e9));
    spec.experiments.insert(spec.experiments.begin(), std::move(slow));

    SweepOptions options;
    options.jobs = 2;
    options.timeoutSeconds = kSlowSeconds;
    const Clock::time_point start = Clock::now();
    try {
        runSweep(spec, options);
        ADD_FAILURE() << "expected SimFault(Config) naming " << what;
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Config);
        EXPECT_NE(fault.message().find(what), std::string::npos)
            << fault.message();
    }
    EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(),
              kSlowSeconds / 10)
        << "a task ran before the spec was checked";
}

TEST(SweepRunnerTest, UnreadParameterIsRejectedBeforeAnyTaskRuns)
{
    // "lockpct" misspells lockPct: no stress point reads it, so the
    // point would silently run at the default lock share.
    SweepSpec stress = miniSpec();
    SweepExperiment misspelt;
    misspelt.id = "misspelt";
    misspelt.kind = TaskKind::Stress;
    misspelt.seeds = 1;
    misspelt.base.set("lockpct", ParamValue::ofNumber(40));
    stress.experiments.push_back(misspelt);
    expectRejectedBeforeAnyTaskRuns(stress, "'lockpct'");

    // lockPct is a stress parameter; no KL1 point reads it.
    SweepSpec kl1 = miniSpec();
    SweepExperiment locks;
    locks.id = "kl1_locks";
    locks.base.set("benchmark", ParamValue::ofText("Tri"));
    locks.base.set("lockPct", ParamValue::ofNumber(40));
    kl1.experiments.push_back(locks);
    expectRejectedBeforeAnyTaskRuns(kl1, "'lockPct'");
}

TEST(SweepRunnerTest, NegativeNumberIsRejectedBeforeAnyTaskRuns)
{
    // Cast to the unsigned step count, -1 would wrap the stress record
    // region and abort the whole sweep.
    SweepSpec spec = miniSpec();
    SweepExperiment negative;
    negative.id = "negative";
    negative.kind = TaskKind::Stress;
    negative.seeds = 1;
    negative.base.set("steps", ParamValue::ofNumber(-1));
    spec.experiments.push_back(negative);
    expectRejectedBeforeAnyTaskRuns(spec, "'steps' must be >= 0");
}

TEST(SweepRunnerTest, UnknownBenchmarkIsRejectedBeforeAnyTaskRuns)
{
    // Unchecked, every point of the experiment would fail the same way.
    SweepSpec spec = miniSpec();
    SweepExperiment typo;
    typo.id = "typo";
    typo.base.set("benchmark", ParamValue::ofText("Pascall"));
    spec.experiments.push_back(typo);
    expectRejectedBeforeAnyTaskRuns(spec, "'Pascall'");

    // A KL1 point naming no benchmark at all is refused the same way.
    SweepSpec missing = miniSpec();
    SweepExperiment none;
    none.id = "none";
    none.base.set("scale", ParamValue::ofNumber(1));
    missing.experiments.push_back(none);
    expectRejectedBeforeAnyTaskRuns(missing, "'benchmark'");
}

TEST(SweepRunnerTest, GridPastTheTaskCapIsRejectedBeforeAnyTaskRuns)
{
    // Expanded, four billion seeds would exhaust memory.
    SweepSpec seeds = miniSpec();
    SweepExperiment many;
    many.id = "many";
    many.kind = TaskKind::Stress;
    many.seeds = 4000000000;
    seeds.experiments.push_back(many);
    expectRejectedBeforeAnyTaskRuns(seeds, "more than 100000 tasks");

    // Four axes of 2^16 values make 2^64 points, which a wrapping count
    // reads as an empty grid.
    std::vector<ParamValue> values;
    for (int v = 0; v < 1 << 16; ++v)
        values.push_back(ParamValue::ofNumber(v));
    SweepSpec axes = miniSpec();
    SweepExperiment wide;
    wide.id = "wide";
    wide.kind = TaskKind::Stress;
    for (const char* axis : {"pes", "ways", "sets", "steps"})
        wide.axes.push_back({axis, values});
    axes.experiments.push_back(std::move(wide));
    EXPECT_EQ(axes.totalTasks(), SIZE_MAX);
    expectRejectedBeforeAnyTaskRuns(axes, "more than 100000 tasks");
}

TEST(SweepRunnerTest, ScaleOverrideAppliesToKl1Tasks)
{
    SweepSpec spec = miniSpec();
    SweepOptions one;
    one.jobs = 1;
    SweepOptions big = one;
    big.scale = 2;
    SweepOutcome a = runSweep(spec, one);
    SweepOutcome b = runSweep(spec, big);
    // A larger scale changes the KL1 rows (more reductions), so the
    // fingerprints must differ.
    EXPECT_NE(a.fingerprint, b.fingerprint);
    EXPECT_EQ(b.rows[0].params.number("scale", 0), 2);
}

} // namespace
