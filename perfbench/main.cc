/**
 * @file
 * perfbench: host throughput of the simulator's end-to-end path, FGHC
 * source -> KL1 emulator -> caches -> bus, plus a synthetic stream driven
 * straight into System::access. See README.md beside this file for the
 * workloads and the metric -> layer -> workload map.
 *
 *   perfbench --workload paper8|wide128|synth_bus --seed N --seconds S
 *             --trace 0|1 [--tiny]
 *
 * One process, one thread. Every simulation is bounded by a wall-clock
 * deadline, its answer is checked against the host-side mirror and its
 * exact counts against the workload's reference run; a mismatch, a
 * SimFault or a deadline counts as a failed simulation. The last line of
 * standard output is one JSON object: the end-to-end metrics untraced
 * (--trace 0) or the per-layer metrics of the traced runs (--trace 1).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_kl1/workload.h"
#include "common/sim_fault.h"
#include "kl1/compiler.h"
#include "kl1/parser.h"
#include "perfbench.h"

using namespace pim;
using namespace pim::kl1;
using namespace pim::kl1::bench;
using namespace perfbench;

namespace {

/**
 * Wall-clock bound of one simulation (each takes about 2 s or less);
 * a run past it is a failure.
 */
constexpr double kSimTimeoutSeconds = 10;
/**
 * Whole-workload setups timed before the first pass; one more is timed
 * before every pass, so the samples span the run. setup_s is their
 * median.
 */
constexpr int kSetupReps = 8;
/** No new pass starts this long after the process started. */
constexpr double kHardCapSeconds = 120;
/**
 * The sampled spans must project the traced wall time to within this
 * share; outside it the per-layer split is not trusted and the run
 * reports correct=false.
 */
constexpr double kAccountTolerance = 0.15;

/** One simulation of a workload: a KL1 program or the synthetic stream. */
struct Leg {
    std::string name;
    const BenchProgram* program = nullptr; ///< nullptr: synthetic stream.
    Kl1Config config;
    std::string query;
    std::string expected;
};

struct Workload {
    std::vector<Leg> legs;
    SynthShape synth;          ///< The synthetic leg's shape.
    SynthStream stream;        ///< Generated once from the seed.
};

Leg
kl1Leg(const std::string& program, std::uint32_t scale, Kl1Config config,
       const std::string& label)
{
    Leg leg;
    leg.program = &benchmarkByName(program);
    leg.name = program + "/" + std::to_string(scale) + "@" + label;
    config.timeoutSeconds = kSimTimeoutSeconds;
    // A goal left suspended is reported as a failed simulation, not a
    // process exit.
    config.failOnDeadlock = false;
    leg.config = config;
    leg.query = leg.program->query(scale);
    leg.expected = leg.program->expected(scale);
    return leg;
}

/**
 * The workloads. Sizes are the program scales and PE counts; README.md
 * gives the reason for each. --tiny shrinks them for the self-test.
 */
bool
makeWorkload(const std::string& name, bool tiny, std::uint64_t seed,
             Workload& w)
{
    if (name == "paper8") {
        const Kl1Config base = paperConfig(8);
        const std::uint32_t s = tiny ? 1 : 0;
        w.legs.push_back(kl1Leg("Tri", s ? s : 3, base, "8"));
        w.legs.push_back(kl1Leg("Semi", s ? s : 2, base, "8"));
        w.legs.push_back(kl1Leg("Puzzle", s ? s : 3, base, "8"));
        w.legs.push_back(kl1Leg("Pascal", s ? s : 3, base, "8"));
    } else if (name == "wide128") {
        const std::uint32_t pes = tiny ? 32 : 128;
        const ClusterConfig clusters{pes / 8, 4};
        Kl1Config single = paperConfig(pes);
        Kl1Config clustered = paperConfig(pes);
        clustered.cluster = clusters;
        const std::string label = std::to_string(pes);
        w.legs.push_back(kl1Leg("Tri", 1, single, label));
        w.legs.push_back(
            kl1Leg("Tri", 1, clustered,
                   label + "/" + std::to_string(clusters.clusterSize) +
                       "x" + std::to_string(clusters.hopCycles)));
    } else if (name == "synth_bus") {
        if (tiny)
            w.synth.refsPerPe = 2000;
        w.stream = makeSynthStream(w.synth, seed);
        Leg leg;
        leg.name = "synth/" + std::to_string(w.synth.refsPerPe) + "@" +
                   std::to_string(w.synth.pes);
        w.legs.push_back(leg);
    } else {
        return false;
    }
    // The seed fixes the order the legs run in within every pass; the
    // KL1 programs themselves are fixed inputs.
    std::rotate(w.legs.begin(),
                w.legs.begin() + static_cast<long>(seed % w.legs.size()),
                w.legs.end());
    return true;
}

std::uint64_t
hashString(const std::string& s)
{
    std::uint64_t h = 0;
    for (unsigned char c : s)
        h = mix(h, c);
    return h;
}

/** Host seconds of one whole-workload setup, and its compile share. */
struct SetupTime {
    double seconds = 0;
    double compileSeconds = 0;
};

SetupTime
setupOnce(const Workload& w, std::uint64_t seed)
{
    SetupTime t;
    for (const Leg& leg : w.legs) {
        const Clock::time_point start = Clock::now();
        if (leg.program != nullptr) {
            Module module = compileProgram(parseProgram(leg.program->source));
            const Clock::time_point compiled = Clock::now();
            Emulator emu(std::move(module), leg.config);
            const Clock::time_point built = Clock::now();
            t.compileSeconds += secondsBetween(start, compiled);
            t.seconds += secondsBetween(start, built);
        } else {
            const SynthStream stream = makeSynthStream(w.synth, seed);
            System system(synthSystemConfig(stream));
            t.seconds += secondsBetween(start, Clock::now());
        }
    }
    return t;
}

/** The outcome of one simulation. */
struct LegRun {
    bool ok = false;
    std::string error;
    double wall = 0; ///< Host seconds inside the timed call.
    Counts counts;
};

LegRun
runKl1Leg(const Leg& leg, bool traced, const TickClock& clock,
          std::unique_ptr<LayerTracer>& tracer)
{
    LegRun run;
    Module module = compileProgram(parseProgram(leg.program->source));
    Emulator emu(std::move(module), leg.config);
    if (traced) {
        tracer = std::make_unique<LayerTracer>(emu.system(), clock);
        emu.system().addAccessObserver(tracer.get());
        emu.system().addEventSink(tracer.get());
    }
    const Clock::time_point start = Clock::now();
    const RunStats stats = emu.run(leg.query);
    run.wall = secondsBetween(start, Clock::now());

    std::string answer;
    for (const auto& [name, value] : emu.queryBindings()) {
        if (name == "R")
            answer = value;
    }
    run.counts = systemCounts(emu.system());
    run.counts.reductions = stats.reductions;
    run.counts.instructions = stats.instructions;
    run.counts.suspensions = stats.suspensions;
    run.counts.steals = stats.steals;
    run.counts.fingerprint = hashString(answer);
    if (stats.deadlockedGoals != 0) {
        run.error = std::to_string(stats.deadlockedGoals) +
                    " goal(s) left suspended";
    } else if (!leg.expected.empty() && answer != leg.expected) {
        run.error = "computed " + answer + ", expected " + leg.expected;
    } else {
        run.ok = true;
    }
    return run;
}

LegRun
runSynthLeg(const SynthStream& stream, bool traced, const TickClock& clock,
            std::unique_ptr<LayerTracer>& tracer)
{
    LegRun run;
    RunGuard guard(Deadline::afterSeconds(kSimTimeoutSeconds));
    System system(synthSystemConfig(stream));
    system.setRunGuard(&guard);
    if (traced) {
        tracer = std::make_unique<LayerTracer>(system, clock);
        system.addAccessObserver(tracer.get());
        system.addEventSink(tracer.get());
    }
    const Clock::time_point start = Clock::now();
    const std::uint64_t fingerprint = driveSynth(system, stream);
    run.wall = secondsBetween(start, Clock::now());
    run.counts = systemCounts(system);
    run.counts.fingerprint = fingerprint;
    run.ok = true;
    return run;
}

/**
 * Run one leg, optionally traced (its tracer totals merged into
 * @p totals). Faults are caught here: a SimFault is a failed simulation.
 */
LegRun
runLeg(const Workload& w, const Leg& leg, bool traced, const TickClock& clock,
       TraceTotals& totals)
{
    // Declared before the System it observes, so it outlives it.
    std::unique_ptr<LayerTracer> tracer;
    LegRun run;
    try {
        if (leg.program != nullptr)
            run = runKl1Leg(leg, traced, clock, tracer);
        else
            run = runSynthLeg(w.stream, traced, clock, tracer);
    } catch (const SimFault& fault) {
        run.ok = false;
        run.error = fault.what();
    }
    if (tracer != nullptr && run.ok)
        totals.merge(tracer->totals());
    return run;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** A number with all its digits; integers print without exponent. */
std::string
formatNumber(double v)
{
    char buf[64];
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        v < 9.0e15 && v > -9.0e15) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    return buf;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (i != 0)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + formatNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
};

bool
parseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            if (*end != '\0')
                return false;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(args.seconds > 0))
                return false;
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return false;
            args.trace = value[0] == '1';
        } else {
            return false;
        }
    }
    return !args.workload.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    const Clock::time_point process_start = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload paper8|wide128|synth_bus "
                     "--seed N --seconds S --trace 0|1 [--tiny]\n");
        return 2;
    }

    const HostInfo host = probeHost();
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s%s\n",
                host.nproc, host.cpu.c_str(), host.compiler.c_str(),
                host.buildType.c_str(), host.sanitized ? " sanitized" : "");
    if (host.sanitized || host.buildType == "Debug" ||
        host.buildType.empty()) {
        std::fprintf(stderr,
                     "perfbench: warning: %s build; host timings are not "
                     "representative\n",
                     host.sanitized ? "sanitized" : "unoptimized");
    }

    Workload w;
    if (!makeWorkload(args.workload, args.tiny, args.seed, w)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    std::vector<double> setups;
    std::vector<double> compiles;
    auto time_setup = [&] {
        const SetupTime t = setupOnce(w, args.seed);
        setups.push_back(t.seconds);
        compiles.push_back(t.compileSeconds);
    };
    for (int r = 0; r < kSetupReps; ++r)
        time_setup();

    const TickClock ticks = TickClock::calibrate();
    std::printf("span clock: %.3f ticks/ns\n", ticks.ticksPerNs);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    TraceTotals totals;

    // The reference pass fixes every exact count the timed passes must
    // reproduce, traced or not.
    std::vector<Counts> reference(w.legs.size());
    std::vector<bool> have_reference(w.legs.size(), false);
    auto run_pass = [&](bool traced) {
        double wall = 0;
        for (std::size_t i = 0; i < w.legs.size(); ++i) {
            const Leg& leg = w.legs[i];
            LegRun run = runLeg(w, leg, traced, ticks, totals);
            ++attempted;
            if (run.ok && have_reference[i] && !(run.counts == reference[i]))
                run.error = "exact counts differ from the reference run";
            else if (run.ok && !have_reference[i]) {
                reference[i] = run.counts;
                have_reference[i] = true;
                std::printf("leg %s: %llu refs, %llu cycles, %llu bus "
                            "cycles, %.3f s\n",
                            leg.name.c_str(),
                            static_cast<unsigned long long>(run.counts.refs),
                            static_cast<unsigned long long>(
                                run.counts.makespan),
                            static_cast<unsigned long long>(
                                run.counts.busCycles),
                            run.wall);
            }
            if (!run.error.empty()) {
                ++failed;
                std::printf("FAILED %s%s: %s\n", leg.name.c_str(),
                            traced ? " (traced)" : "", run.error.c_str());
            }
            wall += run.wall;
        }
        return wall;
    };
    run_pass(false);

    // Timed passes, unless the reference pass already failed.
    std::vector<double> walls;
    std::vector<double> traced_walls;
    const Clock::time_point measure_start = Clock::now();
    while (failed == 0 &&
           (walls.empty() ||
            (secondsBetween(measure_start, Clock::now()) < args.seconds &&
             secondsBetween(process_start, Clock::now()) < kHardCapSeconds))) {
        time_setup();
        walls.push_back(run_pass(false));
        if (args.trace)
            traced_walls.push_back(run_pass(true));
    }

    Counts sum;
    for (const Counts& c : reference)
        sum += c;
    const double wall = median(walls);
    std::printf("%zu passes of %zu legs, median %.4f s per pass:",
                walls.size(), w.legs.size(), wall);
    for (double t : walls)
        std::printf(" %.4f", t);
    std::printf("\n");

    std::vector<Metric> metrics;
    bool correct = failed == 0;
    if (!args.trace) {
        metrics = {
            {"wall_s", wall, "s"},
            {"refs_per_s", ratio(static_cast<double>(sum.refs), wall),
             "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
            {"sim_makespan_cycles", static_cast<double>(sum.makespan),
             "cycles"},
            {"sim_bus_cycles", static_cast<double>(sum.busCycles), "cycles"},
        };
    } else {
        double traced_total = 0;
        for (double t : traced_walls)
            traced_total += t;
        const double accounted =
            ratio(totals.projectedNs(ticks), traced_total * 1e9);
        if (std::abs(accounted - 1.0) > kAccountTolerance) {
            std::printf("FAILED trace accounting: sampled spans project "
                        "%.3f of the traced wall time (tolerance %.2f)\n",
                        accounted, kAccountTolerance);
            correct = false;
        }
        const double hit_ns =
            totals.meanNs(Span::Hit, ticks);
        const double bus_ns =
            totals.meanNs(Span::Bus, ticks);
        const double hit_time =
            hit_ns * static_cast<double>(totals.hitAccesses());
        const double bus_time =
            bus_ns * static_cast<double>(totals.busAccesses);
        const double d_reductions = static_cast<double>(sum.reductions);
        metrics = {
            {"kl1.compile_s", median(compiles), "s"},
            {"kl1.gap_ns_per_ref",
             totals.meanNs(Span::Gap, ticks), "ns"},
            {"kl1.reductions", d_reductions, "count"},
            {"kl1.instructions", static_cast<double>(sum.instructions),
             "count"},
            {"kl1.suspensions", static_cast<double>(sum.suspensions),
             "count"},
            {"kl1.steals", static_cast<double>(sum.steals), "count"},
            {"kl1.refs_per_reduction",
             ratio(static_cast<double>(sum.refs), d_reductions), "ratio"},
            {"sim.sched.scan_ns",
             totals.meanNs(Span::Scan, ticks) /
                 LayerTracer::kScanCalls,
             "ns"},
            {"sim.access_ns",
             ratio(hit_time + bus_time, static_cast<double>(totals.accesses)),
             "ns"},
            {"sim.access_hit_ns", hit_ns, "ns"},
            {"sim.access_bus_ns", bus_ns, "ns"},
            {"sim.access_bus_time_frac",
             ratio(bus_time, bus_time + hit_time), "ratio"},
            {"cache.accesses", static_cast<double>(sum.cacheAccesses),
             "count"},
            {"cache.miss_ratio",
             ratio(static_cast<double>(sum.cacheMisses),
                   static_cast<double>(sum.cacheAccesses)),
             "ratio"},
            {"cache.swap_outs", static_cast<double>(sum.swapOuts), "count"},
            {"cache.purges", static_cast<double>(sum.purges), "count"},
            {"bus.transactions", static_cast<double>(sum.busTransactions),
             "count"},
            {"bus.busy_cycles", static_cast<double>(sum.busCycles),
             "cycles"},
            {"bus.c2c_supply_frac",
             ratio(static_cast<double>(totals.supplied),
                   static_cast<double>(totals.dataTxns)),
             "ratio"},
            {"bus.wait_cycles",
             ratio(static_cast<double>(totals.waitCycles),
                   static_cast<double>(traced_walls.size())),
             "cycles"},
            {"bus.intercluster_cycles",
             static_cast<double>(sum.interClusterCycles), "cycles"},
            {"lock.lr", static_cast<double>(sum.lr), "count"},
            {"lock.lr_exclusive_hit_frac",
             ratio(static_cast<double>(sum.lrHitExclusive),
                   static_cast<double>(sum.lr)),
             "ratio"},
            {"lock.parks",
             ratio(static_cast<double>(totals.parks),
                   static_cast<double>(traced_walls.size())),
             "count"},
            {"lock.retry_frac",
             ratio(static_cast<double>(totals.lockRejects),
                   static_cast<double>(sum.lockOps) *
                       static_cast<double>(traced_walls.size())),
             "ratio"},
            {"mem.pages", static_cast<double>(sum.pages), "count"},
            {"trace.overhead_frac",
             ratio(median(traced_walls) - wall, wall), "ratio"},
            {"trace.accounted_frac", accounted, "ratio"},
        };
    }
    printResult(correct, attempted, failed, metrics);
    return 0;
}
