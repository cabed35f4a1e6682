/**
 * @file
 * Sweep engine tests (ctest label `sweep`): grid expansion order, spec
 * parsing, cross---jobs byte-identity of the SWEEP document, and
 * SimFault-throwing tasks landing as failed rows without tearing the
 * pool down.
 */

#include <cstdint>
#include <string>
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
    // The pool survived: the task after the fault still produced metrics.
    EXPECT_FALSE(outcome.rows[2].failed);
    EXPECT_FALSE(outcome.rows[2].metrics.empty());

    JsonValue doc = JsonValue::parse(outcome.sweepJson);
    const JsonValue& row =
        doc.at("experiments").at(std::size_t{0}).at("rows")
           .at(std::size_t{1});
    EXPECT_TRUE(row.at("failed").asBool());
    EXPECT_EQ(row.at("fault_kind").asString(), "config");
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
