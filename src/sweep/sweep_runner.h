/**
 * @file
 * Parallel sweep execution: runs each independent simulation task of a
 * SweepSpec exactly once through parallelFor and aggregates the
 * per-task rows into one deterministic SWEEP document
 * (docs/EXPERIMENTS.md). This is the one way to run many simulations.
 *
 * Determinism contract: every task owns its whole simulation stack
 * (System/Emulator, event sinks, RNG derived from the task's grid
 * index), results land in a slot pre-assigned by task index, and all
 * aggregation runs single-threaded after the workers join — so the
 * SWEEP document is byte-identical for any --jobs value. Wall-clock
 * measurements are intentionally kept out of it (pim_sweep prints them
 * on its `throughput:` line).
 */

#ifndef PIMCACHE_SWEEP_SWEEP_RUNNER_H_
#define PIMCACHE_SWEEP_SWEEP_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/sweep_spec.h"

namespace pim::sweep {

/** Result of one grid point (one simulation task). */
struct SweepRow {
    std::size_t taskIndex = 0;  ///< Stable index in the expanded grid.
    std::size_t experiment = 0; ///< Index into SweepSpec::experiments.
    SweepPoint params;          ///< The grid point (post-expansion).
    /** Measured values, in emission order (numbers and text). */
    std::vector<std::pair<std::string, ParamValue>> metrics;
    bool failed = false;        ///< Task threw / detected a SimFault.
    std::string faultKind;      ///< simFaultKindName when failed.
    std::string message;        ///< Fault message when failed.
    double seconds = 0;         ///< Thread CPU time (never in SWEEP).
};

/** Execution options (the pim_sweep CLI surface). */
struct SweepOptions {
    unsigned jobs = 1;       ///< Worker threads (0 = hardware).
    std::string outDir;      ///< Output directory ("" = don't write files).
    std::uint32_t scale = 0; ///< Override every kl1 task's scale (0 = spec).
    /**
     * Per-task wall-clock budget in seconds (0 = none). A point that
     * exceeds it is one failed row of kind Timeout, never rerun: the
     * simulation is a pure function of its parameters, so a rerun could
     * only pass on a faster host. The rest of the grid keeps draining.
     */
    double timeoutSeconds = 0;
};

/** Everything a sweep run produced. */
struct SweepOutcome {
    std::vector<SweepRow> rows; ///< Task-index order.
    std::size_t failedRows = 0;
    double wallSeconds = 0;     ///< Whole-grid wall time.
    double taskSecondsSum = 0;  ///< Serial-time estimate (sum of per-task
                                ///< thread CPU times).
    unsigned jobs = 1;          ///< Workers actually used.
    std::uint64_t fingerprint = 0; ///< Hash of all deterministic rows.
    std::string sweepJson;      ///< Rendered SWEEP document.
};

/**
 * Largest grid a sweep runs: far above the largest built-in grid (the
 * paper grid's 108 tasks), and small enough that the expanded grid
 * fits in memory.
 */
inline constexpr std::size_t kMaxSweepTasks = 100000;

/**
 * Refuse a spec whose points its tasks would misread: a grid of more
 * than kMaxSweepTasks tasks (counted before anything is expanded), a
 * parameter the task kind never reads (it would silently run at the
 * default), a negative or fractional number, a number past the 32 or 64
 * bits the task stores it in, or a kl1 point with a missing or unknown
 * benchmark.
 *
 * @throws SimFault(Config) naming the experiment and the parameter.
 */
void checkSpec(const SweepSpec& spec);

/**
 * The grid @p spec runs under @p options: one row per task, in task
 * order, with options.scale set on every kl1 point. runSweep runs these
 * rows and `pim_sweep --list` prints them.
 */
std::vector<SweepRow> expandGrid(const SweepSpec& spec,
                                 const SweepOptions& options);

/**
 * Expand @p spec and run every task once on @p options.jobs workers (at
 * most one per task).
 *
 * @throws SimFault(Config) before any task runs when checkSpec refuses
 *         @p spec.
 */
SweepOutcome runSweep(const SweepSpec& spec, const SweepOptions& options);

/**
 * Publish the run's SWEEP.json into options.outDir (created, parents
 * included, when missing), atomically: a killed process leaves the
 * previous document or none, never a torn one.
 * @return false if SWEEP.json cannot be written.
 */
bool writeSweepFiles(const SweepOutcome& outcome,
                     const SweepOptions& options);

} // namespace pim::sweep

#endif // PIMCACHE_SWEEP_SWEEP_RUNNER_H_
