#include "sweep/sweep_spec.h"

#include <cmath>
#include <set>
#include <sstream>

#include "common/json.h"
#include "common/sim_fault.h"

namespace pim::sweep {

// -------------------------------------------------------------- ParamValue

ParamValue
ParamValue::ofNumber(double v)
{
    ParamValue value;
    value.isNumber = true;
    value.number = v;
    return value;
}

ParamValue
ParamValue::ofText(std::string v)
{
    ParamValue value;
    value.text = std::move(v);
    return value;
}

std::string
ParamValue::toString() const
{
    if (!isNumber)
        return text;
    // Integers render without a decimal point so "4" never becomes "4.0"
    // (row keys and fingerprints depend on a canonical form).
    if (number == std::floor(number) && std::abs(number) < 1e15) {
        std::ostringstream os;
        os << static_cast<std::int64_t>(number);
        return os.str();
    }
    std::ostringstream os;
    os << number;
    return os.str();
}

// -------------------------------------------------------------- SweepPoint

const ParamValue*
SweepPoint::find(const std::string& name) const
{
    for (const auto& [key, value] : params) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

void
SweepPoint::set(const std::string& name, ParamValue value)
{
    for (auto& [key, existing] : params) {
        if (key == name) {
            existing = std::move(value);
            return;
        }
    }
    params.emplace_back(name, std::move(value));
}

double
SweepPoint::number(const std::string& name, double fallback) const
{
    const ParamValue* value = find(name);
    if (value == nullptr)
        return fallback;
    if (!value->isNumber) {
        throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep parameter '", name,
                            "' must be a number, got '", value->text, "'");
    }
    return value->number;
}

std::string
SweepPoint::text(const std::string& name, const std::string& fallback) const
{
    const ParamValue* value = find(name);
    if (value == nullptr)
        return fallback;
    return value->toString();
}

std::string
SweepPoint::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i != 0)
            os << " ";
        os << params[i].first << "=" << params[i].second.toString();
    }
    return os.str();
}

// --------------------------------------------------------- SweepExperiment

const char*
taskKindName(TaskKind kind)
{
    switch (kind) {
      case TaskKind::Kl1:    return "kl1";
      case TaskKind::Stress: return "stress";
    }
    return "?";
}

std::size_t
SweepExperiment::pointCount() const
{
    std::size_t count = seeds == 0 ? 1 : seeds;
    for (const auto& [name, values] : axes)
        count *= values.size();
    return count;
}

std::vector<SweepPoint>
SweepExperiment::expand() const
{
    // First axis slowest, last fastest; the implicit stress seed axis
    // (when present) is the slowest of all. Points are decoded from a
    // linear index so the order is obviously stable.
    std::vector<SweepPoint> points;
    points.reserve(pointCount());
    const std::size_t seed_count = seeds == 0 ? 1 : seeds;
    std::size_t per_seed = 1;
    for (const auto& [name, values] : axes)
        per_seed *= values.size();
    std::vector<std::size_t> digit(axes.size(), 0);
    for (std::size_t s = 0; s < seed_count; ++s) {
        for (std::size_t index = 0; index < per_seed; ++index) {
            std::size_t rem = index;
            for (std::size_t a = axes.size(); a-- > 0;) {
                digit[a] = rem % axes[a].second.size();
                rem /= axes[a].second.size();
            }
            SweepPoint point = base;
            if (seeds != 0)
                point.set("seed_slot", ParamValue::ofNumber(
                                           static_cast<double>(s)));
            for (std::size_t a = 0; a < axes.size(); ++a)
                point.set(axes[a].first, axes[a].second[digit[a]]);
            points.push_back(std::move(point));
        }
    }
    return points;
}

// --------------------------------------------------------------- SweepSpec

std::size_t
SweepSpec::totalTasks() const
{
    std::size_t count = 0;
    for (const SweepExperiment& experiment : experiments)
        count += experiment.pointCount();
    return count;
}

namespace {

ParamValue
paramFromJson(const std::string& where, const JsonValue& value)
{
    if (value.isNumber())
        return ParamValue::ofNumber(value.asNumber());
    if (value.isString())
        return ParamValue::ofText(value.asString());
    if (value.isBool())
        return ParamValue::ofNumber(value.asBool() ? 1 : 0);
    throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ", where,
                        " must be a number, string or bool");
}

SweepPoint
pointFromJson(const std::string& where, const JsonValue& object)
{
    if (!object.isObject()) {
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ", where,
                            " must be an object");
    }
    SweepPoint point;
    for (const auto& [key, value] : object.members())
        point.set(key, paramFromJson(where + "." + key, value));
    return point;
}

} // namespace

SweepSpec
SweepSpec::parse(const JsonValue& doc)
{
    if (!doc.isObject()) {
        throw PIM_SIM_FAULT(SimFaultKind::Parse,
                            "sweep spec: top level must be an object");
    }
    SweepSpec spec;
    if (const JsonValue* name = doc.find("name"))
        spec.name = name->asString();
    if (const JsonValue* seed = doc.find("seed"))
        spec.seed = static_cast<std::uint64_t>(seed->asNumber());

    const JsonValue* experiments = doc.find("experiments");
    if (experiments == nullptr || !experiments->isArray() ||
        experiments->size() == 0) {
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: requires a "
                            "non-empty 'experiments' array");
    }

    std::set<std::string> ids;
    for (std::size_t i = 0; i < experiments->size(); ++i) {
        const JsonValue& doc_exp = experiments->at(i);
        const std::string where = "experiments." + std::to_string(i);
        SweepExperiment experiment;

        const JsonValue* id = doc_exp.find("id");
        if (id == nullptr || !id->isString() || id->asString().empty()) {
            throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ", where,
                                " needs a non-empty string 'id'");
        }
        experiment.id = id->asString();
        if (!ids.insert(experiment.id).second) {
            throw PIM_SIM_FAULT(SimFaultKind::Parse,
                                "sweep spec: duplicate experiment id '",
                                experiment.id, "'");
        }

        const std::string kind =
            doc_exp.find("kind") ? doc_exp.at("kind").asString() : "kl1";
        if (kind == "kl1") {
            experiment.kind = TaskKind::Kl1;
        } else if (kind == "stress") {
            experiment.kind = TaskKind::Stress;
        } else {
            throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ", where,
                                ".kind '", kind,
                                "' (want 'kl1' or 'stress')");
        }

        if (const JsonValue* base = doc_exp.find("base"))
            experiment.base = pointFromJson(where + ".base", *base);

        if (const JsonValue* axes = doc_exp.find("axes")) {
            if (!axes->isObject()) {
                throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ",
                                    where, ".axes must be an object");
            }
            for (const auto& [axis, values] : axes->members()) {
                if (!values.isArray() || values.size() == 0) {
                    throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ",
                                        where, ".axes.", axis,
                                        " must be a non-empty array");
                }
                std::vector<ParamValue> axis_values;
                for (std::size_t v = 0; v < values.size(); ++v) {
                    axis_values.push_back(paramFromJson(
                        where + ".axes." + axis, values.at(v)));
                }
                experiment.axes.emplace_back(axis, std::move(axis_values));
            }
        }

        if (const JsonValue* seeds = doc_exp.find("seeds")) {
            if (experiment.kind != TaskKind::Stress) {
                throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ",
                                    where, ".seeds is only valid for "
                                    "stress experiments");
            }
            experiment.seeds =
                static_cast<std::uint32_t>(seeds->asNumber());
        }

        if (const JsonValue* paper = doc_exp.find("paper")) {
            if (!paper->isObject()) {
                throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ",
                                    where, ".paper must be an object");
            }
            for (const auto& [metric, value] : paper->members())
                experiment.paper.emplace_back(metric, value.asNumber());
        }

        if (experiment.pointCount() == 0) {
            throw PIM_SIM_FAULT(SimFaultKind::Parse, "sweep spec: ", where,
                                " expands to zero points");
        }
        spec.experiments.push_back(std::move(experiment));
    }
    return spec;
}

SweepSpec
SweepSpec::parseFile(const std::string& path)
{
    return parse(JsonValue::parseFile(path));
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t task_index)
{
    // One splitmix64 step over a mix of base and index: adjacent task
    // indices land on statistically independent streams. Folded to 32
    // bits so a derived seed survives the JSON number path (exact in
    // double, and short enough for the writer's %.10g) and can be fed
    // back to `pim_stress --seed=` verbatim.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (task_index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return (z >> 32) ^ (z & 0xffffffffULL);
}

// ---------------------------------------------------------- built-in specs

namespace {

std::vector<ParamValue>
numbers(std::initializer_list<double> values)
{
    std::vector<ParamValue> out;
    for (double v : values)
        out.push_back(ParamValue::ofNumber(v));
    return out;
}

std::vector<ParamValue>
texts(std::initializer_list<const char*> values)
{
    std::vector<ParamValue> out;
    for (const char* v : values)
        out.push_back(ParamValue::ofText(v));
    return out;
}

std::vector<ParamValue>
allBenchmarkNames()
{
    return texts({"Tri", "Semi", "Puzzle", "Pascal"});
}

} // namespace

SweepSpec
SweepSpec::paperGrid()
{
    // DESIGN.md section 5: one experiment per paper table/figure, the
    // dedicated bench binaries remain the detail view (per-area and
    // per-operation splits). All kl1 experiments default to scale 1 so
    // the full grid runs in seconds; pim_sweep --scale scales every
    // experiment up.
    SweepSpec spec;
    spec.name = "paper_grid";
    spec.seed = 1;

    SweepExperiment table1;
    table1.id = "table1_benchmarks";
    table1.base.set("scale", ParamValue::ofNumber(1));
    table1.axes.emplace_back("benchmark", allBenchmarkNames());
    table1.paper = {{"reductions", (666233.0 + 268820 + 849539 + 302432) / 4},
                    {"suspensions", (1.0 + 23487 + 3069 + 17681) / 4}};
    spec.experiments.push_back(std::move(table1));

    // Tables 2 and 3 measure the same runs (area and operation splits of
    // the unoptimized-command machine); the grid holds the runs once.
    SweepExperiment table23;
    table23.id = "table2_3_no_opt";
    table23.base.set("scale", ParamValue::ofNumber(1));
    table23.base.set("policy", ParamValue::ofText("None"));
    table23.axes.emplace_back("benchmark", allBenchmarkNames());
    spec.experiments.push_back(std::move(table23));

    SweepExperiment table4;
    table4.id = "table4_optimizations";
    table4.base.set("scale", ParamValue::ofNumber(1));
    table4.axes.emplace_back(
        "policy", texts({"None", "Heap", "Goal", "Comm", "All"}));
    table4.axes.emplace_back("benchmark", allBenchmarkNames());
    spec.experiments.push_back(std::move(table4));

    SweepExperiment table5;
    table5.id = "table5_locks";
    table5.base.set("scale", ParamValue::ofNumber(1));
    table5.axes.emplace_back("benchmark", allBenchmarkNames());
    spec.experiments.push_back(std::move(table5));

    SweepExperiment fig1;
    fig1.id = "fig1_block_size";
    fig1.base.set("scale", ParamValue::ofNumber(1));
    fig1.base.set("capacityWords", ParamValue::ofNumber(4096));
    fig1.axes.emplace_back("blockWords", numbers({1, 2, 4, 8, 16}));
    fig1.axes.emplace_back("benchmark", allBenchmarkNames());
    spec.experiments.push_back(std::move(fig1));

    SweepExperiment fig2;
    fig2.id = "fig2_capacity";
    fig2.base.set("scale", ParamValue::ofNumber(1));
    fig2.axes.emplace_back(
        "capacityWords", numbers({512, 1024, 2048, 4096, 8192, 16384}));
    fig2.axes.emplace_back("benchmark", allBenchmarkNames());
    spec.experiments.push_back(std::move(fig2));

    SweepExperiment fig2_bus;
    fig2_bus.id = "fig2_bus_width";
    fig2_bus.base.set("scale", ParamValue::ofNumber(1));
    fig2_bus.axes.emplace_back("busWidthWords", numbers({1, 2}));
    fig2_bus.axes.emplace_back("benchmark", allBenchmarkNames());
    spec.experiments.push_back(std::move(fig2_bus));

    SweepExperiment fig3;
    fig3.id = "fig3_pes";
    fig3.base.set("scale", ParamValue::ofNumber(1));
    fig3.axes.emplace_back("pes", numbers({1, 2, 4, 8}));
    fig3.axes.emplace_back("benchmark", allBenchmarkNames());
    spec.experiments.push_back(std::move(fig3));

    // A randomized coherence/lock batch rides along so every full-grid
    // run also exercises the auditor (docs/ROBUSTNESS.md).
    SweepExperiment stress;
    stress.id = "stress_batch";
    stress.kind = TaskKind::Stress;
    stress.seeds = 8;
    stress.base.set("steps", ParamValue::ofNumber(20000));
    stress.base.set("pes", ParamValue::ofNumber(4));
    spec.experiments.push_back(std::move(stress));

    return spec;
}

SweepSpec
SweepSpec::clustersGrid()
{
    // Beyond-the-paper scaling grid (docs/ARCHITECTURE.md,
    // docs/EXPERIMENTS.md "Beyond the paper"): a clustered stress
    // batch so the auditor sees the wide multi-word masks, the single
    // bus measured up to its saturation point, and the clustered
    // topology (16 PEs per snooping bus, 2-cycle hops) from 128 to
    // 1024 PEs. The single-bus branch deliberately stops at 128 PEs
    // (as fig3_pes --clusters does): the bus is already ~99% busy
    // there, and past saturation the emulator's idle-PE steal traffic
    // feeds back into the one global queue, so Pascal at 256 PEs
    // reaches the 4*10^9-step limit to measure a machine whose
    // behavior is already known (every added PE just queues). The
    // whole grid takes about 5 s at --jobs=4 on a 4-core container;
    // the `cluster` ctest label runs it.
    SweepSpec spec;
    spec.name = "clusters";
    spec.seed = 1;

    // First so a `--max-tasks=4` run validates the stress batch alone.
    SweepExperiment stress;
    stress.id = "clustered_stress";
    stress.kind = TaskKind::Stress;
    stress.seeds = 4;
    stress.base.set("steps", ParamValue::ofNumber(20000));
    stress.base.set("pes", ParamValue::ofNumber(96));
    stress.base.set("clusterSize", ParamValue::ofNumber(8));
    stress.base.set("hopCycles", ParamValue::ofNumber(2));
    // No lock traffic: the generator acquires locks in random order
    // (hold-and-wait), and at 96 uncoordinated PEs that builds a
    // genuine deadlock cycle for any nonzero share — every PE parked,
    // watchdog correctly reporting it. This batch's job is the wide
    // multi-word masks and inter-cluster routing under the auditor;
    // clustered *lock* coverage lives at tractable PE counts in the
    // ctest `cluster` label (stress smoke, conformance fuzz,
    // attribution cross-check).
    stress.base.set("lockPct", ParamValue::ofNumber(0));
    spec.experiments.push_back(std::move(stress));

    SweepExperiment single;
    single.id = "single_bus_saturation";
    single.base.set("scale", ParamValue::ofNumber(1));
    single.base.set("benchmark", ParamValue::ofText("Pascal"));
    single.axes.emplace_back("pes", numbers({64, 96, 128}));
    spec.experiments.push_back(std::move(single));

    SweepExperiment clustered;
    clustered.id = "clustered_scaling";
    clustered.base.set("scale", ParamValue::ofNumber(1));
    clustered.base.set("benchmark", ParamValue::ofText("Pascal"));
    clustered.base.set("clusterSize", ParamValue::ofNumber(16));
    clustered.base.set("hopCycles", ParamValue::ofNumber(2));
    clustered.axes.emplace_back("pes", numbers({128, 256, 512, 1024}));
    spec.experiments.push_back(std::move(clustered));

    return spec;
}

SweepSpec
SweepSpec::smokeGrid()
{
    // Tiny 4-point grid for CI (tier-1 `sweep` label): two KL1 runs and
    // two stress seeds, seconds on one core.
    SweepSpec spec;
    spec.name = "smoke";
    spec.seed = 1;

    SweepExperiment kl1;
    kl1.id = "kl1_smoke";
    kl1.base.set("scale", ParamValue::ofNumber(1));
    kl1.base.set("pes", ParamValue::ofNumber(2));
    kl1.axes.emplace_back("benchmark", texts({"Tri", "Pascal"}));
    spec.experiments.push_back(std::move(kl1));

    SweepExperiment stress;
    stress.id = "stress_smoke";
    stress.kind = TaskKind::Stress;
    stress.seeds = 2;
    stress.base.set("steps", ParamValue::ofNumber(5000));
    stress.base.set("pes", ParamValue::ofNumber(4));
    spec.experiments.push_back(std::move(stress));

    return spec;
}

} // namespace pim::sweep
