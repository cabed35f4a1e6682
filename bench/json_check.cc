/**
 * @file
 * Schema validator for the simulator's JSON outputs (SWEEP.json,
 * CAMPAIGN.json, attribution documents, timelines). Parses each
 * positional file and checks every --require=PATH dotted path resolves
 * to a value (numeric segments index arrays, e.g.
 * "experiments.0.aggregate").
 *
 * --schema=NAME prepends a built-in required-path set for the
 * repository's standard documents: `sweep` (pim_sweep's SWEEP.json,
 * docs/EXPERIMENTS.md), `campaign` (pim_soak's CAMPAIGN.json,
 * docs/ROBUSTNESS.md) and `attribution` (the miss/cycle attribution
 * document, docs/OBSERVABILITY.md). Explicit --require paths are
 * checked in addition.
 *
 * Exit codes: 0 = all files parse and all required paths resolve;
 * 1 = a parse failure or a missing path. Used by the ctest `obs` and
 * `sweep` labels to validate schemas without a Python dependency.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/options.h"
#include "common/sim_fault.h"

using namespace pim;

namespace {

void
usage()
{
    std::printf(
        "json_check FILE... [--schema=NAME] [--require=PATH ...]\n"
        "  Parses each FILE as JSON and verifies every --require dotted\n"
        "  path resolves (numeric segments index arrays).\n"
        "  --schema adds a built-in path set: sweep, campaign,\n"
        "  attribution.\n");
}

/** Built-in required paths for @p schema; false if unknown. */
bool
schemaPaths(const std::string& schema, std::vector<std::string>* out)
{
    if (schema == "sweep") {
        // pim_sweep's SWEEP.json (docs/EXPERIMENTS.md).
        *out = {"name",
                "spec_seed",
                "tasks",
                "failed_rows",
                "fingerprint",
                "experiments.0.id",
                "experiments.0.kind",
                "experiments.0.rows.0.task",
                "experiments.0.rows.0.benchmark",
                "experiments.0.rows.0.makespan",
                "experiments.0.rows.0.bus_cycles",
                "experiments.0.rows.0.failed",
                "experiments.0.aggregate.makespan.mean",
                "experiments.0.aggregate.makespan.min",
                "experiments.0.aggregate.makespan.max"};
        return true;
    }
    if (schema == "campaign") {
        // pim_soak's CAMPAIGN.json (docs/ROBUSTNESS.md).
        *out = {"name",
                "seeds_per_plan",
                "cells_total",
                "cells.0.plan",
                "cells.0.seed_slot",
                "cells.0.outcome",
                "cells.0.fires",
                "totals.clean",
                "totals.detected_auditor",
                "totals.detected_watchdog",
                "totals.timed_out",
                "totals.escaped",
                "escaped"};
        return true;
    }
    if (schema == "attribution") {
        // The attribution engine's document (docs/OBSERVABILITY.md).
        *out = {"name",
                "pes",
                "miss_classes.total",
                "miss_classes.cold",
                "miss_classes.capacity",
                "miss_classes.conflict",
                "miss_classes.invalidation",
                "miss_classes.lock_purge",
                "miss_classes.flush",
                "buckets.0.bucket",
                "buckets.0.cycles",
                "buckets.0.transactions",
                "by_op",
                "by_pe.0.pe",
                "hot_blocks",
                "locks",
                "waits",
                "cross_check.bus_total_cycles",
                "cross_check.attributed_cycles",
                "cross_check.match"};
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char** argv)
{
    const Flag flags[] = {{"schema", Flag::String},
                          {"require", Flag::String},
                          {"help", Flag::Bool}};
    // Every positional argument is a file to check.
    const std::optional<Options> parsed =
        Options::parse(argc, argv, flags, SIZE_MAX);
    if (!parsed || parsed->has("help") || parsed->positional().empty()) {
        usage();
        return parsed && parsed->has("help") ? 0 : 1;
    }
    const Options& opts = *parsed;

    std::vector<std::string> required;
    if (opts.has("schema")) {
        const std::string schema = opts.getString("schema");
        if (!schemaPaths(schema, &required)) {
            std::fprintf(stderr,
                         "json_check: unknown schema '%s' (expected "
                         "sweep, campaign or attribution)\n",
                         schema.c_str());
            return 1;
        }
    }
    for (const std::string& path : opts.getAll("require"))
        required.push_back(path);

    int failures = 0;
    for (const std::string& path : opts.positional()) {
        JsonValue doc;
        try {
            doc = JsonValue::parseFile(path);
        } catch (const SimFault& fault) {
            std::fprintf(stderr, "json_check: %s: %s\n", path.c_str(),
                         fault.what());
            ++failures;
            continue;
        }
        int missing = 0;
        for (const std::string& req : required) {
            if (doc.findPath(req) == nullptr) {
                std::fprintf(stderr,
                             "json_check: %s: missing required path "
                             "'%s'\n",
                             path.c_str(), req.c_str());
                ++missing;
            }
        }
        failures += missing;
        if (missing == 0) {
            std::printf("json_check: %s: ok (%zu top-level members)\n",
                        path.c_str(), doc.size());
        }
    }
    return failures == 0 ? 0 : 1;
}
