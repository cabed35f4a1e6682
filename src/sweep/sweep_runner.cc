#include "sweep/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <span>
#include <sstream>

#include "bench_kl1/programs.h"
#include "bench_kl1/workload.h"
#include "common/fs_util.h"
#include "common/json.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/sim_fault.h"
#include "sim/stress.h"

namespace pim::sweep {

namespace {

namespace bench = pim::kl1::bench;

/**
 * Per-task cost in CPU seconds of the calling thread, not wall time:
 * when workers outnumber cores a descheduled task accrues no cost, so
 * the serial-time estimate (the sum of task costs) stays honest.
 */
double
threadSeconds()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
#endif
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch()).count();
}

std::uint64_t
mixString(std::uint64_t h, const std::string& text)
{
    for (char c : text)
        h = hashMix(h, static_cast<unsigned char>(c));
    return h;
}

std::string
hex16(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

OptPolicy
parsePolicy(const std::string& name)
{
    if (name == "All")
        return OptPolicy::all();
    if (name == "None")
        return OptPolicy::none();
    if (name == "Heap")
        return OptPolicy::heapOnly();
    if (name == "Goal")
        return OptPolicy::goalOnly();
    if (name == "Comm")
        return OptPolicy::commOnly();
    throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: unknown policy '",
                        name, "' (want None/Heap/Goal/Comm/All)");
}

void
metric(SweepRow& row, const std::string& name, double value)
{
    row.metrics.emplace_back(name, ParamValue::ofNumber(value));
}

void
metricText(SweepRow& row, const std::string& name, std::string value)
{
    row.metrics.emplace_back(name, ParamValue::ofText(std::move(value)));
}

/** Every parameter runKl1Task reads. */
constexpr const char* kKl1Params[] = {
    "benchmark", "scale", "pes", "policy", "blockWords", "ways",
    "capacityWords", "sets", "lockEntries", "busWidthWords",
    "clusterSize", "hopCycles", "enableGc",
};

/** Run one KL1 benchmark point and fill the row's metrics. */
void
runKl1Task(SweepRow& row, double timeout_seconds)
{
    const SweepPoint& point = row.params;
    const std::string bench_name = point.text("benchmark", "");
    const std::uint32_t scale =
        static_cast<std::uint32_t>(point.number("scale", 1));
    const std::uint32_t pes =
        static_cast<std::uint32_t>(point.number("pes", 8));

    kl1::Kl1Config config = bench::paperConfig(
        pes, parsePolicy(point.text("policy", "All")));
    const std::uint32_t block_words =
        static_cast<std::uint32_t>(point.number("blockWords", 4));
    const std::uint32_t ways =
        static_cast<std::uint32_t>(point.number("ways", 4));
    if (point.has("capacityWords")) {
        config.cache.geometry = CacheGeometry::forCapacity(
            static_cast<std::uint64_t>(point.number("capacityWords", 0)),
            block_words, ways);
    } else {
        config.cache.geometry.blockWords = block_words;
        config.cache.geometry.ways = ways;
        config.cache.geometry.sets =
            static_cast<std::uint32_t>(point.number("sets", 256));
    }
    config.cache.lockEntries =
        static_cast<std::uint32_t>(point.number("lockEntries", 2));
    config.timing.widthWords =
        static_cast<std::uint32_t>(point.number("busWidthWords", 1));
    config.cluster.clusterSize =
        static_cast<std::uint32_t>(point.number("clusterSize", 0));
    config.cluster.hopCycles =
        static_cast<std::uint32_t>(point.number("hopCycles", 4));
    config.enableGc = point.number("enableGc", 0) != 0;
    config.timeoutSeconds = timeout_seconds;

    const bench::BenchResult result = bench::runBenchmark(
        bench::benchmarkByName(bench_name), scale, config);

    metric(row, "makespan", static_cast<double>(result.run.makespan));
    metric(row, "bus_cycles", static_cast<double>(result.bus.totalCycles));
    metric(row, "miss_pct", result.cache.missRatio() * 100);
    metric(row, "reductions", static_cast<double>(result.run.reductions));
    metric(row, "suspensions",
           static_cast<double>(result.run.suspensions));
    metric(row, "instructions",
           static_cast<double>(result.run.instructions));
    metric(row, "memory_refs", static_cast<double>(result.refs.total()));
    metric(row, "steals", static_cast<double>(result.run.steals));
    // Emitted only on clustered points so single-bus sweep outputs stay
    // byte-identical to the pre-cluster simulator.
    if (config.cluster.clustered()) {
        metric(row, "inter_cluster_cycles",
               static_cast<double>(result.bus.interClusterCycles));
    }
}

/** Every parameter runStressTask reads, plus the expansion's seed_slot. */
constexpr const char* kStressParams[] = {
    "seed", "seed_slot", "pes", "blockWords", "ways", "sets", "steps",
    "spanWords", "writePct", "lockPct", "optPct", "plan", "clusterSize",
    "hopCycles", "starvationBound", "livelockRetries",
};

/** Run one stress point; a detected fault becomes a failed row. */
void
runStressTask(SweepRow& row, std::uint64_t derived_seed,
              double timeout_seconds)
{
    const SweepPoint& point = row.params;
    StressConfig config;
    config.seed = point.has("seed")
                      ? static_cast<std::uint64_t>(point.number("seed", 0))
                      : derived_seed;
    config.numPes = static_cast<std::uint32_t>(point.number("pes", 4));
    config.blockWords =
        static_cast<std::uint32_t>(point.number("blockWords", 4));
    config.ways = static_cast<std::uint32_t>(point.number("ways", 2));
    config.sets = static_cast<std::uint32_t>(point.number("sets", 64));
    config.steps =
        static_cast<std::uint64_t>(point.number("steps", 20000));
    config.spanWords =
        static_cast<std::uint64_t>(point.number("spanWords", 4096));
    config.writePct =
        static_cast<std::uint32_t>(point.number("writePct", 30));
    config.lockPct =
        static_cast<std::uint32_t>(point.number("lockPct", 10));
    config.optPct =
        static_cast<std::uint32_t>(point.number("optPct", 15));
    config.planSpec = point.text("plan", "");
    config.clusterSize =
        static_cast<std::uint32_t>(point.number("clusterSize", 0));
    config.hopCycles =
        static_cast<std::uint32_t>(point.number("hopCycles", 4));
    config.timeoutSeconds = timeout_seconds;
    if (point.has("starvationBound")) {
        config.watchdog.starvationBound = static_cast<std::uint64_t>(
            point.number("starvationBound", 100000));
    }
    if (point.has("livelockRetries")) {
        config.watchdog.livelockRetries = static_cast<std::uint32_t>(
            point.number("livelockRetries", 1000));
    }

    const StressResult result = runStress(config);
    metric(row, "seed", static_cast<double>(config.seed));
    metric(row, "completed_refs",
           static_cast<double>(result.completedRefs));
    metric(row, "audit_checks", static_cast<double>(result.auditChecks));
    metric(row, "injector_fires",
           static_cast<double>(result.injectorFires));
    metric(row, "makespan", static_cast<double>(result.makespan));
    metricText(row, "fingerprint", hex16(result.fingerprint));
    if (result.failed) {
        row.failed = true;
        row.faultKind = simFaultKindName(result.kind);
        row.message = result.message;
    }
}

/**
 * The numbers a task stores in 64 bits; it casts every other number it
 * reads to 32 bits.
 */
constexpr const char* k64BitParams[] = {
    "capacityWords", "seed", "steps", "spanWords", "starvationBound",
};

/**
 * checkSpec for one point of @p experiment. An unknown benchmark is
 * refused here, before any task runs: a misspelt name is a wrong spec,
 * not one failed row per point.
 */
void
checkPoint(const SweepPoint& point, const SweepExperiment& experiment)
{
    const bool kl1 = experiment.kind == TaskKind::Kl1;
    const std::span<const char* const> reads =
        kl1 ? std::span<const char* const>(kKl1Params)
            : std::span<const char* const>(kStressParams);
    for (const auto& [name, value] : point.params) {
        if (std::find(reads.begin(), reads.end(), name) == reads.end()) {
            throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: experiment '",
                                experiment.id, "': ",
                                taskKindName(experiment.kind),
                                " points have no parameter '", name, "'");
        }
        // Every number a task reads is a size, count or seed, cast to
        // an unsigned type: a negative one would wrap, a fraction would
        // truncate, and so would a number past the type's range (past
        // 2^64 the cast is undefined).
        if (!value.isNumber)
            continue;
        if (value.number < 0) {
            throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: experiment '",
                                experiment.id, "': parameter '", name,
                                "' must be >= 0");
        }
        const bool wide = std::find(std::begin(k64BitParams),
                                    std::end(k64BitParams),
                                    name) != std::end(k64BitParams);
        if (value.number != std::floor(value.number) ||
            value.number >= (wide ? 0x1p64 : 0x1p32)) {
            throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: experiment '",
                                experiment.id, "': parameter '", name,
                                "' must be a whole number below 2^",
                                wide ? 64 : 32);
        }
    }
    if (!kl1)
        return;
    if (!point.has("benchmark")) {
        throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: experiment '",
                            experiment.id,
                            "': kl1 points need a 'benchmark' parameter");
    }
    const std::string name = point.text("benchmark", "");
    for (const bench::BenchProgram& program : bench::allBenchmarks()) {
        if (program.name == name)
            return;
    }
    throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: experiment '",
                        experiment.id, "': unknown benchmark '", name,
                        "' (want Tri, Semi, Puzzle or Pascal)");
}

void
writeParamValue(JsonWriter& json, const ParamValue& value)
{
    if (value.isNumber)
        json.value(value.number);
    else
        json.value(value.text);
}

/** The flat key/value body of one SWEEP row. */
void
writeRowFields(JsonWriter& json, const SweepRow& row)
{
    json.field("task", static_cast<std::uint64_t>(row.taskIndex));
    for (const auto& [name, value] : row.params.params) {
        json.key(name);
        writeParamValue(json, value);
    }
    for (const auto& [name, value] : row.metrics) {
        json.key(name);
        writeParamValue(json, value);
    }
    json.field("failed", row.failed);
    if (row.failed) {
        json.field("fault_kind", row.faultKind);
        json.field("message", row.message);
    }
}

/** Per-experiment aggregate: mean/min/max per numeric metric, paper deltas. */
void
writeAggregate(JsonWriter& json, const SweepExperiment& experiment,
               const std::vector<const SweepRow*>& rows)
{
    // Metric names in first-appearance order.
    std::vector<std::string> names;
    for (const SweepRow* row : rows) {
        for (const auto& [name, value] : row->metrics) {
            if (!value.isNumber)
                continue;
            bool known = false;
            for (const std::string& existing : names)
                known = known || existing == name;
            if (!known)
                names.push_back(name);
        }
    }

    json.key("aggregate");
    json.beginObject();
    for (const std::string& name : names) {
        double sum = 0, lo = 0, hi = 0;
        std::uint64_t count = 0;
        for (const SweepRow* row : rows) {
            if (row->failed)
                continue;
            for (const auto& [metric_name, value] : row->metrics) {
                if (metric_name != name || !value.isNumber)
                    continue;
                if (count == 0) {
                    lo = hi = value.number;
                } else {
                    lo = std::min(lo, value.number);
                    hi = std::max(hi, value.number);
                }
                sum += value.number;
                ++count;
            }
        }
        if (count == 0)
            continue;
        json.key(name);
        json.beginObject();
        const double mean = sum / static_cast<double>(count);
        json.field("mean", mean);
        json.field("min", lo);
        json.field("max", hi);
        for (const auto& [paper_name, paper_value] : experiment.paper) {
            if (paper_name != name || paper_value == 0)
                continue;
            json.field("paper", paper_value);
            json.field("delta_pct",
                       100.0 * (mean - paper_value) / paper_value);
        }
        json.endObject();
    }
    json.endObject();
}

std::string
renderSweepJson(const SweepSpec& spec, const SweepOutcome& outcome)
{
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("name", spec.name);
    json.field("spec_seed", spec.seed);
    json.field("tasks", static_cast<std::uint64_t>(outcome.rows.size()));
    json.field("failed_rows",
               static_cast<std::uint64_t>(outcome.failedRows));
    json.key("experiments");
    json.beginArray();
    for (std::size_t e = 0; e < spec.experiments.size(); ++e) {
        const SweepExperiment& experiment = spec.experiments[e];
        std::vector<const SweepRow*> rows;
        for (const SweepRow& row : outcome.rows) {
            if (row.experiment == e)
                rows.push_back(&row);
        }
        json.beginObject();
        json.field("id", experiment.id);
        json.field("kind", taskKindName(experiment.kind));
        json.key("rows");
        json.beginArray();
        for (const SweepRow* row : rows) {
            json.beginObject();
            writeRowFields(json, *row);
            json.endObject();
        }
        json.endArray();
        writeAggregate(json, experiment, rows);
        json.endObject();
    }
    json.endArray();
    json.field("fingerprint", hex16(outcome.fingerprint));
    json.endObject();
    os << "\n";
    return os.str();
}

} // namespace

void
checkSpec(const SweepSpec& spec)
{
    // Counted before anything is expanded: expanding a grid too big
    // for memory would abort the process.
    if (spec.totalTasks() > kMaxSweepTasks) {
        throw PIM_SIM_FAULT(SimFaultKind::Config, "sweep: the grid has more "
                            "than ", kMaxSweepTasks, " tasks");
    }
    for (const SweepExperiment& experiment : spec.experiments) {
        for (const SweepPoint& point : experiment.expand())
            checkPoint(point, experiment);
    }
}

std::vector<SweepRow>
expandGrid(const SweepSpec& spec, const SweepOptions& options)
{
    std::vector<SweepRow> rows;
    for (std::size_t e = 0; e < spec.experiments.size(); ++e) {
        const SweepExperiment& experiment = spec.experiments[e];
        for (SweepPoint& point : experiment.expand()) {
            SweepRow row;
            row.taskIndex = rows.size();
            row.experiment = e;
            row.params = std::move(point);
            if (options.scale != 0 && experiment.kind == TaskKind::Kl1) {
                row.params.set("scale", ParamValue::ofNumber(
                                            options.scale));
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

SweepOutcome
runSweep(const SweepSpec& spec, const SweepOptions& options)
{
    using Clock = std::chrono::steady_clock;

    checkSpec(spec);
    SweepOutcome outcome;

    // Expand the grid up front: rows[i] is task i's pre-assigned slot,
    // so workers never contend and completion order cannot matter.
    outcome.rows = expandGrid(spec, options);

    // No more workers than tasks, and at least one.
    outcome.jobs = parallelForThreads(outcome.rows.size(), options.jobs);

    const Clock::time_point wall_start = Clock::now();
    parallelFor(outcome.rows.size(), outcome.jobs, [&](std::size_t i) {
        // A faulting point is a result, not a crash: its SimFault
        // becomes the row's failure. Each worker writes only its own
        // row.
        SweepRow& row = outcome.rows[i];
        const double start = threadSeconds();
        try {
            if (spec.experiments[row.experiment].kind == TaskKind::Kl1) {
                runKl1Task(row, options.timeoutSeconds);
            } else {
                runStressTask(row, deriveSeed(spec.seed, row.taskIndex),
                              options.timeoutSeconds);
            }
        } catch (const SimFault& fault) {
            row.failed = true;
            row.faultKind = simFaultKindName(fault.kind());
            row.message = fault.message();
        }
        row.seconds = threadSeconds() - start;
    });
    outcome.wallSeconds =
        std::chrono::duration<double>(Clock::now() - wall_start).count();

    // Single-threaded aggregation in task order (determinism barrier).
    for (const SweepRow& row : outcome.rows) {
        outcome.taskSecondsSum += row.seconds;
        if (row.failed)
            ++outcome.failedRows;
        std::uint64_t h = hashMix(0, row.taskIndex);
        h = mixString(h, row.params.toString());
        for (const auto& [name, value] : row.metrics) {
            h = mixString(h, name);
            h = mixString(h, value.toString());
        }
        h = hashMix(h, row.failed ? 1 : 0);
        outcome.fingerprint = hashMix(outcome.fingerprint, h);
    }
    outcome.sweepJson = renderSweepJson(spec, outcome);
    return outcome;
}

bool
writeSweepFiles(const SweepOutcome& outcome, const SweepOptions& options)
{
    if (options.outDir.empty())
        return true;
    std::string error;
    if (!writeFileAtomic(
            (std::filesystem::path(options.outDir) / "SWEEP.json").string(),
            outcome.sweepJson, &error)) {
        std::fprintf(stderr, "pim_sweep: %s\n", error.c_str());
        return false;
    }
    return true;
}

} // namespace pim::sweep
