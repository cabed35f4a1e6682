/**
 * @file
 * Seed-replay stress harness: randomized multi-PE traffic under an
 * optional fault plan, with the coherence auditor and lock watchdog
 * attached (docs/ROBUSTNESS.md).
 *
 * Exit codes: 0 = run finished with no fault detected; 2 = a fault was
 * detected (auditor or watchdog); 1 = bad usage. With --expect-fault the
 * meaning of 0 and 2 is inverted, so CI can assert both directions.
 *
 * On a detected fault the harness prints a one-line replay command that
 * reproduces the failure deterministically, and (with --trace-out) dumps
 * the completed-reference trace in PIMTRACE format.
 *
 * One invocation runs one seed; many seeds run as a `stress` experiment
 * under pim_sweep (docs/EXPERIMENTS.md) or pim_soak.
 */

#include <cstdio>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "sim/stress.h"

using namespace pim;

namespace {

void
usage()
{
    std::printf(
        "pim_stress: randomized coherence/lock stress with seed replay\n"
        "  --seed=N            RNG seed (default 1)\n"
        "  --pes=N             number of PEs (default 4)\n"
        "  --geometry=BxWxS    cache block words x ways x sets "
        "(default 4x2x64)\n"
        "  --steps=N           references to complete (default 20000)\n"
        "  --span=N            shared region size in words (default 4096)\n"
        "  --write-pct=N       write share of plain refs (default 30)\n"
        "  --lock-pct=N        lock-protocol share (default 10)\n"
        "  --opt-pct=N         DW/ER/RP producer-consumer share "
        "(default 15)\n"
        "  --plan=SPEC         fault plan, e.g. "
        "'corrupt_word:p=0.001,lost_ul:after=50'\n"
        "  --starvation-bound=N  watchdog starvation bound "
        "(default 100000)\n"
        "  --livelock-retries=N  watchdog livelock bound (default 1000)\n"
        "  --trace-out=PATH    dump completed refs on failure (PIMTRACE)\n"
        "  --timeline-out=PATH dump Chrome trace-event timeline (always;\n"
        "                      with --trace-out only, dumped on failure\n"
        "                      as <trace-out>.timeline.json)\n"
        "  --attribution-out=PATH  dump the miss/cycle attribution report\n"
        "                      as JSON (schema `attribution`, always;\n"
        "                      docs/OBSERVABILITY.md)\n"
        "  --cluster-size=N    PEs per snooping-bus cluster (0 = single\n"
        "                      bus; docs/ARCHITECTURE.md)\n"
        "  --hop-cycles=N      one-way inter-cluster hop cost (default 4)\n"
        "  --timeout=SECS      wall-clock budget; exceeding it is a\n"
        "                      detected Timeout fault (not in replay\n"
        "                      lines: wall-clock, not simulation state)\n"
        "  --expect-fault      exit 0 iff a fault was detected\n");
}

const Flag kFlags[] = {
    {"seed", Flag::Count},               {"pes", Flag::Count32},
    {"geometry", Flag::String},          {"steps", Flag::Count},
    {"span", Flag::Count},               {"write-pct", Flag::Count32},
    {"lock-pct", Flag::Count32},         {"opt-pct", Flag::Count32},
    {"plan", Flag::String},              {"trace-out", Flag::String},
    {"timeline-out", Flag::String},      {"attribution-out", Flag::String},
    {"expect-fault", Flag::Bool},        {"help", Flag::Bool},
    {"starvation-bound", Flag::Count},   {"livelock-retries", Flag::Count32},
    {"timeout", Flag::Double},           {"cluster-size", Flag::Count32},
    {"hop-cycles", Flag::Count32},
};

/** Run the one seed @p opts names and print its outcome. */
int
run(const Options& opts)
{
    StressConfig config;
    config.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
    config.numPes =
        static_cast<std::uint32_t>(opts.getInt("pes", 4));
    config.setGeometry(opts.getString("geometry", "4x2x64"));
    config.steps =
        static_cast<std::uint64_t>(opts.getInt("steps", 20000));
    config.spanWords =
        static_cast<std::uint64_t>(opts.getInt("span", 4096));
    config.writePct =
        static_cast<std::uint32_t>(opts.getInt("write-pct", 30));
    config.lockPct =
        static_cast<std::uint32_t>(opts.getInt("lock-pct", 10));
    config.optPct =
        static_cast<std::uint32_t>(opts.getInt("opt-pct", 15));
    config.planSpec = opts.getString("plan", "");
    config.traceOut = opts.getString("trace-out", "");
    config.timelineOut = opts.getString("timeline-out", "");
    config.attributionOut = opts.getString("attribution-out", "");
    config.clusterSize =
        static_cast<std::uint32_t>(opts.getInt("cluster-size", 0));
    config.hopCycles =
        static_cast<std::uint32_t>(opts.getInt("hop-cycles", 4));
    config.timeoutSeconds = opts.getDouble("timeout", 0);
    config.watchdog.starvationBound = static_cast<std::uint64_t>(
        opts.getInt("starvation-bound", 100000));
    config.watchdog.livelockRetries = static_cast<std::uint32_t>(
        opts.getInt("livelock-retries", 1000));

    const StressResult result = runStress(config);

    if (result.failed) {
        std::printf("FAULT (%s) after %llu completed references:\n  %s\n",
                    simFaultKindName(result.kind),
                    static_cast<unsigned long long>(result.completedRefs),
                    result.message.c_str());
        std::printf("replay: %s\n", result.replayLine.c_str());
        if (result.traceRecords != 0) {
            std::printf("trace: %llu records -> %s\n",
                        static_cast<unsigned long long>(result.traceRecords),
                        config.traceOut.c_str());
        }
    } else {
        std::printf("OK: %llu references, %llu audit checks, "
                    "fingerprint %016llx, makespan %llu cycles\n",
                    static_cast<unsigned long long>(result.completedRefs),
                    static_cast<unsigned long long>(result.auditChecks),
                    static_cast<unsigned long long>(result.fingerprint),
                    static_cast<unsigned long long>(result.makespan));
    }
    if (!result.timelinePath.empty()) {
        std::printf("timeline: %llu events -> %s\n",
                    static_cast<unsigned long long>(result.timelineEvents),
                    result.timelinePath.c_str());
    }
    if (!result.attributionPath.empty()) {
        std::printf("attribution: %llu classified misses -> %s\n",
                    static_cast<unsigned long long>(result.classifiedMisses),
                    result.attributionPath.c_str());
    }
    if (!result.injectorSummary.empty())
        std::printf("faults injected: %s\n", result.injectorSummary.c_str());

    const bool expect_fault = opts.has("expect-fault");
    if (result.failed == expect_fault)
        return 0;
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::optional<Options> parsed = Options::parse(argc, argv, kFlags);
    if (!parsed) {
        usage();
        return 1;
    }
    const Options& opts = *parsed;
    if (opts.has("help")) {
        usage();
        return 0;
    }

    // Detected faults inside runStress are result rows, not throws; a
    // SimFault escaping run() is a usage or configuration problem.
    return runMain("pim_stress", [&] { return run(opts); });
}
