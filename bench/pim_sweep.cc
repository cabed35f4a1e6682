/**
 * @file
 * Parallel experiment engine CLI (docs/EXPERIMENTS.md): expands a
 * declarative sweep spec into independent simulation tasks, runs each
 * once on --jobs worker threads, and aggregates the rows into one
 * deterministic SWEEP.json. Wall time and throughput go to stdout only
 * (the `throughput:` line), since they vary run to run.
 *
 * `--spec=paper` reproduces the entire Table 1-5 / Figure 1-3 grid in
 * one invocation; SWEEP.json is byte-identical for any --jobs value
 * (docs/EXPERIMENTS.md).
 *
 * Exit codes: 0 = every task ran (failed rows are results, reported in
 * SWEEP.json); 1 = bad usage or unwritable output; else a SimFault per
 * simFaultExitCode's families (10 config, 11 parse, ...), e.g. a
 * parameter the task kind never reads, an unknown benchmark or a grid
 * of more than kMaxSweepTasks tasks exits 10, before any task runs.
 */

#include <cstdio>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "common/parallel_for.h"
#include "common/strutil.h"
#include "sweep/sweep_runner.h"

using namespace pim;
using namespace pim::sweep;

namespace {

void
usage()
{
    std::printf(
        "pim_sweep: parallel sweep over simulation parameter grids\n"
        "  --spec=FILE|paper|smoke|clusters  sweep spec: a JSON file,\n"
        "                      the built-in full paper grid, the 4-point\n"
        "                      CI smoke, or the 128-1024 PE clustered\n"
        "                      scaling grid (docs/ARCHITECTURE.md)\n"
        "  --jobs=N            worker threads (default: hardware)\n"
        "  --out=DIR           write SWEEP.json here\n"
        "                      (created if missing; default: no files,\n"
        "                      stdout only)\n"
        "  --scale=N           override every kl1 task's workload scale\n"
        "  --list              print the expanded grid and exit\n"
        "  --timeout=SECS      per-task wall-clock budget; an overrunning\n"
        "                      point is one failed Timeout row instead of\n"
        "                      wedging its worker (default: none)\n");
}

const Flag kFlags[] = {
    {"spec", Flag::String},    {"jobs", Flag::Count32},
    {"out", Flag::String},     {"scale", Flag::Count32},
    {"list", Flag::Bool},      {"timeout", Flag::Double},
    {"help", Flag::Bool},
};

SweepSpec
loadSpec(const std::string& spec_arg)
{
    if (spec_arg == "paper")
        return SweepSpec::paperGrid();
    if (spec_arg == "smoke")
        return SweepSpec::smokeGrid();
    if (spec_arg == "clusters")
        return SweepSpec::clustersGrid();
    return SweepSpec::parseFile(spec_arg);
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

    return runMain("pim_sweep", [&] {
        const SweepSpec spec = loadSpec(opts.getString("spec", "paper"));

        SweepOptions options;
        options.jobs = static_cast<unsigned>(opts.getInt("jobs", 0));
        options.outDir = opts.getString("out", "");
        options.scale =
            static_cast<std::uint32_t>(opts.getInt("scale", 0));
        options.timeoutSeconds = opts.getDouble("timeout", 0);

        checkSpec(spec);
        if (opts.has("list")) {
            const std::vector<SweepRow> rows = expandGrid(spec, options);
            for (const SweepRow& row : rows) {
                std::printf("%4zu %-24s %s\n", row.taskIndex,
                            spec.experiments[row.experiment].id.c_str(),
                            row.params.toString().c_str());
            }
            std::printf("%zu tasks\n", rows.size());
            return 0;
        }

        std::printf("== sweep %s: %zu tasks on up to %u workers ==\n",
                    spec.name.c_str(), spec.totalTasks(),
                    parallelForThreads(spec.totalTasks(), options.jobs));

        const SweepOutcome outcome = runSweep(spec, options);

        for (const SweepExperiment& experiment : spec.experiments)
            std::printf("  %-24s %zu points\n", experiment.id.c_str(),
                        experiment.pointCount());
        std::printf("tasks: %zu total, %zu completed, %zu failed rows\n",
                    outcome.rows.size(), outcome.rows.size(),
                    outcome.failedRows);
        for (const SweepRow& row : outcome.rows) {
            if (row.failed) {
                std::printf("  FAILED task %zu (%s): %s: %s\n",
                            row.taskIndex,
                            spec.experiments[row.experiment].id.c_str(),
                            row.faultKind.c_str(), row.message.c_str());
            }
        }
        std::printf("fingerprint: %016llx\n",
                    static_cast<unsigned long long>(outcome.fingerprint));
        std::printf("throughput: %.1f s wall, %.2f sims/sec, "
                    "speedup vs --jobs=1 (est.): %.2fx on %u workers\n",
                    outcome.wallSeconds,
                    outcome.wallSeconds == 0
                        ? 0.0
                        : static_cast<double>(outcome.rows.size()) /
                              outcome.wallSeconds,
                    outcome.wallSeconds == 0
                        ? 1.0
                        : outcome.taskSecondsSum / outcome.wallSeconds,
                    outcome.jobs);

        if (!writeSweepFiles(outcome, options))
            return 1;
        if (!options.outDir.empty())
            std::printf("wrote %s/SWEEP.json\n", options.outDir.c_str());
        return 0;
    });
}
