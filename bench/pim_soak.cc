/**
 * @file
 * Chaos soak campaign (docs/ROBUSTNESS.md): fans a fault-plan x seed
 * grid over the sweep engine and classifies every cell's outcome —
 *
 *   clean                injection never fired / benign by design
 *   detected-auditor     CoherenceAuditor caught it (Corruption/Protocol)
 *   detected-watchdog    LockWatchdog caught it (Deadlock/Livelock/
 *                        Starvation)
 *   timed-out            the per-cell wall-clock budget expired
 *   escaped              a must-detect plan fired and nothing noticed
 *
 * The campaign FAILS (exit 1) if any injected fault escapes: every
 * detector hole is a bug in either the detectors or the plan taxonomy.
 * It fails too when no cell of a must-detect plan fired: such a plan
 * tested nothing, so its clean cells prove nothing.
 * Results land in CAMPAIGN.json (validated by
 * `json_check --schema=campaign`); `--smoke` runs the small
 * deterministic grid wired into scripts/ci.sh (ctest label `soak`).
 *
 * Exit codes: 0 = campaign ran, zero escapes, every must-detect plan
 * fired; 1 = escapes, a must-detect plan that never fired, or
 * unwritable output; on a SimFault, simFaultExitCode's families (10
 * config, ...).
 */

#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/json.h"
#include "common/options.h"
#include "common/parallel_for.h"
#include "common/sim_fault.h"
#include "sweep/sweep_runner.h"

using namespace pim;
using namespace pim::sweep;

namespace {

/** One fault plan of the campaign grid. */
struct SoakPlan {
    const char* name;  ///< Experiment id / CAMPAIGN.json plan name.
    const char* spec;  ///< FaultPlan spec ("" = clean control).
    /**
     * True when any fire MUST be detected (auditor or watchdog): a
     * surviving fire is an `escaped` cell and fails the campaign.
     * False for benign-by-design sites (e.g. spurious_inv only costs
     * performance) and observe-only sites whose detection is load
     * dependent.
     */
    bool mustDetect;
    std::uint32_t lockPct;          ///< Lock-protocol traffic share.
    std::uint32_t livelockRetries;  ///< Watchdog override (0 = default).
};

/**
 * The smoke grid: plans whose detection is deterministic for the wired
 * seeds (everything is seeded, so a passing grid passes forever).
 */
const SoakPlan kSmokePlans[] = {
    {"clean", "", false, 10, 0},
    {"corrupt_word", "corrupt_word:p=0.01", true, 10, 0},
    {"forced_miss", "forced_miss:p=0.05", true, 10, 0},
    {"lost_ul", "lost_ul:p=1", true, 40, 0},
    {"stuck_lwait", "stuck_lwait:p=1,spurious_wakeup:p=0.5", true, 40, 50},
    {"spurious_inv", "spurious_inv:p=0.01", false, 10, 0},
};

/** The full grid adds the observe-only bus/cache/system sites. */
const SoakPlan kFullPlans[] = {
    {"clean", "", false, 10, 0},
    {"corrupt_word", "corrupt_word:p=0.01", true, 10, 0},
    {"bit_flip", "bit_flip:p=0.01", true, 10, 0},
    {"forced_miss", "forced_miss:p=0.05", true, 10, 0},
    {"lost_ul", "lost_ul:p=1", true, 40, 0},
    {"stuck_lwait", "stuck_lwait:p=1,spurious_wakeup:p=0.5", true, 40, 50},
    {"spurious_inv", "spurious_inv:p=0.01", false, 10, 0},
    {"spurious_wakeup", "spurious_wakeup:p=0.125", false, 40, 0},
    {"drop_snoop", "drop_snoop:p=0.005", false, 10, 0},
    {"dup_snoop", "dup_snoop:p=0.005", false, 10, 0},
};

/** Classified outcome of one campaign cell. */
struct SoakCell {
    std::string plan;
    std::string spec;
    std::uint64_t seedSlot = 0;
    std::string outcome;
    std::string faultKind; ///< "" when the cell did not fail.
    std::uint64_t fires = 0;
};

double
rowNumber(const SweepRow& row, const std::string& name)
{
    for (const auto& [metric_name, value] : row.metrics) {
        if (metric_name == name && value.isNumber)
            return value.number;
    }
    return 0;
}

std::string
classify(const SweepRow& row, bool must_detect, std::uint64_t fires)
{
    if (row.failed) {
        if (row.faultKind == simFaultKindName(SimFaultKind::Corruption) ||
            row.faultKind == simFaultKindName(SimFaultKind::Protocol))
            return "detected-auditor";
        if (row.faultKind == simFaultKindName(SimFaultKind::Deadlock) ||
            row.faultKind == simFaultKindName(SimFaultKind::Livelock) ||
            row.faultKind == simFaultKindName(SimFaultKind::Starvation))
            return "detected-watchdog";
        if (row.faultKind == simFaultKindName(SimFaultKind::Timeout))
            return "timed-out";
        // Config/Parse from inside a cell is a harness bug, not a
        // detector outcome; surface it as an escape so the campaign
        // fails loudly instead of counting it clean.
        return "escaped";
    }
    if (fires > 0 && must_detect)
        return "escaped";
    return "clean";
}

void
usage()
{
    std::printf(
        "pim_soak: chaos soak campaign over the fault-injection plans\n"
        "  --smoke             small deterministic grid (CI; default is\n"
        "                      the full plan set)\n"
        "  --seeds=N           seeds per plan, at least 1 (default: smoke\n"
        "                      3, full 8)\n"
        "  --steps=N           references per cell (default: smoke 6000,\n"
        "                      full 20000)\n"
        "  --pes=N             PEs per cell (default: 4)\n"
        "  --seed=N            campaign base seed (default: 1)\n"
        "  --jobs=N            worker threads (default: hardware)\n"
        "  --timeout=SECS      per-cell wall-clock budget (default: 60)\n"
        "  --out=DIR           write CAMPAIGN.json here (default: none)\n"
        "  --list              print the plan grid and exit\n");
}

const Flag kFlags[] = {
    {"smoke", Flag::Bool},     {"seeds", Flag::Count32},
    {"steps", Flag::Count},    {"pes", Flag::Count32},
    {"seed", Flag::Count},     {"jobs", Flag::Count32},
    {"timeout", Flag::Double}, {"out", Flag::String},
    {"list", Flag::Bool},      {"help", Flag::Bool},
};

std::string
renderCampaignJson(const std::string& name, std::uint64_t seeds,
                   const std::vector<SoakCell>& cells)
{
    std::size_t clean = 0, auditor = 0, watchdog = 0, timed = 0,
                escaped = 0;
    for (const SoakCell& cell : cells) {
        if (cell.outcome == "clean")
            ++clean;
        else if (cell.outcome == "detected-auditor")
            ++auditor;
        else if (cell.outcome == "detected-watchdog")
            ++watchdog;
        else if (cell.outcome == "timed-out")
            ++timed;
        else
            ++escaped;
    }

    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("name", name);
    json.field("seeds_per_plan", seeds);
    json.field("cells_total", static_cast<std::uint64_t>(cells.size()));
    json.key("cells");
    json.beginArray();
    for (const SoakCell& cell : cells) {
        json.beginObject();
        json.field("plan", cell.plan);
        json.field("spec", cell.spec);
        json.field("seed_slot", cell.seedSlot);
        json.field("outcome", cell.outcome);
        if (!cell.faultKind.empty())
            json.field("fault_kind", cell.faultKind);
        json.field("fires", cell.fires);
        json.endObject();
    }
    json.endArray();
    json.key("totals");
    json.beginObject();
    json.field("clean", static_cast<std::uint64_t>(clean));
    json.field("detected_auditor", static_cast<std::uint64_t>(auditor));
    json.field("detected_watchdog", static_cast<std::uint64_t>(watchdog));
    json.field("timed_out", static_cast<std::uint64_t>(timed));
    json.field("escaped", static_cast<std::uint64_t>(escaped));
    json.endObject();
    json.field("escaped", static_cast<std::uint64_t>(escaped));
    json.endObject();
    os << "\n";
    return os.str();
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
    // To the sweep engine 0 seeds means no seed axis: one cell a plan,
    // not none.
    if (opts.getInt("seeds", 1) == 0) {
        std::fprintf(stderr, "pim_soak: --seeds must be at least 1\n");
        usage();
        return 1;
    }

    return runMain("pim_soak", [&] {
        const bool smoke = opts.has("smoke");
        const SoakPlan* plans = smoke ? kSmokePlans : kFullPlans;
        const std::size_t num_plans =
            smoke ? std::size(kSmokePlans) : std::size(kFullPlans);
        const auto seeds = static_cast<std::uint32_t>(
            opts.getInt("seeds", smoke ? 3 : 8));
        const auto steps = static_cast<std::uint64_t>(
            opts.getInt("steps", smoke ? 6000 : 20000));
        const auto pes =
            static_cast<std::uint32_t>(opts.getInt("pes", 4));

        // Build the campaign as a sweep: one stress experiment per
        // plan, the seeds as the engine's implicit seed axis. Rides the
        // whole resilient execution plane for free — per-cell
        // timeouts, parallel fan-out, failed cells as result rows.
        SweepSpec spec;
        spec.name = smoke ? "soak_smoke" : "soak";
        spec.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
        for (std::size_t p = 0; p < num_plans; ++p) {
            SweepExperiment experiment;
            experiment.id = plans[p].name;
            experiment.kind = TaskKind::Stress;
            experiment.seeds = seeds;
            experiment.base.set("steps", ParamValue::ofNumber(
                                             static_cast<double>(steps)));
            experiment.base.set("pes", ParamValue::ofNumber(pes));
            experiment.base.set("lockPct",
                                ParamValue::ofNumber(plans[p].lockPct));
            if (plans[p].spec[0] != '\0')
                experiment.base.set("plan",
                                    ParamValue::ofText(plans[p].spec));
            if (plans[p].livelockRetries != 0) {
                experiment.base.set(
                    "livelockRetries",
                    ParamValue::ofNumber(plans[p].livelockRetries));
            }
            spec.experiments.push_back(std::move(experiment));
        }

        SweepOptions options;
        options.jobs = static_cast<unsigned>(opts.getInt("jobs", 0));
        options.timeoutSeconds = opts.getDouble("timeout", 60);

        checkSpec(spec);
        if (opts.has("list")) {
            for (std::size_t p = 0; p < num_plans; ++p) {
                std::printf("%-16s %-12s %s\n", plans[p].name,
                            plans[p].mustDetect ? "must-detect"
                                                : "observe",
                            plans[p].spec[0] == '\0' ? "(clean control)"
                                                     : plans[p].spec);
            }
            std::printf("%zu plans x %u seeds = %zu cells\n", num_plans,
                        seeds, spec.totalTasks());
            return 0;
        }
        std::printf("== soak %s: %zu plans x %u seeds = %zu cells on "
                    "up to %u workers ==\n",
                    spec.name.c_str(), num_plans, seeds,
                    spec.totalTasks(),
                    parallelForThreads(spec.totalTasks(), options.jobs));

        const SweepOutcome outcome = runSweep(spec, options);

        std::vector<SoakCell> cells;
        cells.reserve(outcome.rows.size());
        std::size_t escaped = 0;
        std::vector<std::uint64_t> plan_fires(num_plans, 0);
        for (const SweepRow& row : outcome.rows) {
            const SoakPlan& plan = plans[row.experiment];
            SoakCell cell;
            cell.plan = plan.name;
            cell.spec = plan.spec;
            cell.seedSlot = static_cast<std::uint64_t>(
                row.params.number("seed_slot", 0));
            cell.fires = static_cast<std::uint64_t>(
                rowNumber(row, "injector_fires"));
            cell.faultKind = row.failed ? row.faultKind : "";
            cell.outcome = classify(row, plan.mustDetect, cell.fires);
            plan_fires[row.experiment] += cell.fires;
            if (cell.outcome == "escaped") {
                ++escaped;
                std::printf("  ESCAPED %s seed_slot=%llu: %llu fires, "
                            "no detector noticed\n",
                            cell.plan.c_str(),
                            static_cast<unsigned long long>(cell.seedSlot),
                            static_cast<unsigned long long>(cell.fires));
            }
            cells.push_back(std::move(cell));
        }

        const std::string doc =
            renderCampaignJson(spec.name, seeds, cells);

        std::size_t clean = 0, detected = 0, timed = 0;
        for (const SoakCell& cell : cells) {
            if (cell.outcome == "clean")
                ++clean;
            else if (cell.outcome == "timed-out")
                ++timed;
            else if (cell.outcome != "escaped")
                ++detected;
        }
        std::printf("cells: %zu total, %zu clean, %zu detected, "
                    "%zu timed-out, %zu escaped\n",
                    cells.size(), clean, detected, timed, escaped);

        const std::string out_dir = opts.getString("out", "");
        if (!out_dir.empty()) {
            const std::string path = out_dir + "/CAMPAIGN.json";
            std::string error;
            if (!writeFileAtomic(path, doc, &error)) {
                std::fprintf(stderr, "pim_soak: %s\n", error.c_str());
                return 1;
            }
            std::printf("wrote %s\n", path.c_str());
        }

        bool failed = false;
        if (escaped != 0) {
            std::fprintf(stderr,
                         "pim_soak: %zu injected fault(s) ESCAPED every "
                         "detector — campaign FAILED\n",
                         escaped);
            failed = true;
        }
        for (std::size_t p = 0; p < num_plans; ++p) {
            if (plans[p].mustDetect && plan_fires[p] == 0) {
                std::fprintf(stderr,
                             "pim_soak: must-detect plan %s never fired, "
                             "so it tested nothing — campaign FAILED\n",
                             plans[p].name);
                failed = true;
            }
        }
        if (failed)
            return 1;
        std::printf("zero escapes: every must-detect injection was "
                    "caught\n");
        return 0;
    });
}
