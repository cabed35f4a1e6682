/**
 * @file
 * Parallel sweep execution: fans the independent simulation tasks of a
 * SweepSpec out across a work-stealing ThreadPool and aggregates the
 * per-task rows into one deterministic SWEEP document
 * (docs/EXPERIMENTS.md).
 *
 * Determinism contract: every task owns its whole simulation stack
 * (System/Emulator, event sinks, RNG derived from the task's grid
 * index), results land in a slot pre-assigned by task index, and all
 * aggregation runs single-threaded after the pool joins — so the SWEEP
 * document is byte-identical for any --jobs value. Wall-clock
 * measurements are intentionally kept out of it (SWEEP.perf.json).
 */

#ifndef PIMCACHE_SWEEP_SWEEP_RUNNER_H_
#define PIMCACHE_SWEEP_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
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
    double seconds = 0;         ///< Thread CPU time (perf only, not in SWEEP).
    // Execution bookkeeping (perf sidecar / checkpoint only — never in
    // SWEEP.json, which must be byte-identical for any retry history).
    bool done = false;          ///< The slot holds a final result.
    bool resumed = false;       ///< Result restored from SWEEP.ckpt.json.
    std::uint32_t attempts = 0; ///< Executions of the task (>= 1 when run).
    /** Fault kind of each failed-then-retried attempt, in order. */
    std::vector<std::string> retriedKinds;
};

/**
 * Retry policy for transient task faults (simFaultKindTransient —
 * today: Timeout). Deterministic fault kinds are never retried: the
 * simulation is a pure function of its config, so re-running could only
 * reproduce the same fault.
 */
struct RetryPolicy {
    std::uint32_t retries = 2;      ///< Extra attempts after the first.
    std::uint32_t backoffBaseMs = 100; ///< First backoff; doubles per retry.
};

/**
 * Backoff before retry @p retry_index (1-based): base * 2^(i-1), capped
 * at 5000 ms.
 */
std::uint32_t retryBackoffMs(const RetryPolicy& policy,
                             std::uint32_t retry_index);

/** One task's retry history (perf sidecar, tests). */
struct RetryAccounting {
    std::uint32_t attempts = 0;           ///< Executions performed.
    std::vector<std::uint32_t> backoffsMs; ///< Sleep before each retry.
};

/**
 * Run @p attempt up to policy.retries+1 times. @p attempt returns true
 * when its failure was transient and worth retrying; any other outcome
 * (success, or a deterministic fault recorded by the attempt itself)
 * stops the loop. @p sleep_ms receives each backoff — the runner passes
 * a real sleep, tests a recorder.
 */
void runWithRetry(const RetryPolicy& policy,
                  const std::function<bool()>& attempt,
                  RetryAccounting* accounting,
                  const std::function<void(std::uint32_t)>& sleep_ms);

/** Execution options (the pim_sweep CLI surface). */
struct SweepOptions {
    unsigned jobs = 1;       ///< Worker threads (0 = hardware).
    std::string outDir;      ///< Output directory ("" = don't write files).
    std::uint32_t scale = 0; ///< Override every kl1 task's scale (0 = spec).
    RetryPolicy retry;       ///< Transient-fault retry policy.
    /**
     * Per-task wall-clock budget in seconds (0 = none). A point that
     * exceeds it fails with SimFault(Timeout) — a result row, retried
     * per the policy — while the rest of the grid keeps draining.
     */
    double timeoutSeconds = 0;
    /**
     * Resume from outDir/SWEEP.ckpt.json: slots whose results were
     * checkpointed by an earlier (interrupted) run of the *same*
     * spec+options (verified by config hash) are restored, not re-run.
     * The final SWEEP.json is byte-identical to an uninterrupted run.
     * With outDir set, the runner rewrites the checkpoint after every
     * completed task, atomically (temp + rename), so a kill leaves a
     * valid previous checkpoint.
     */
    bool resume = false;
    /**
     * Stop after this many tasks have completed this invocation,
     * leaving the checkpoint behind (0 = run everything). The
     * deterministic way to "interrupt" a sweep — the resume ctest and
     * operators draining a grid in slices both use it.
     */
    std::size_t maxTasks = 0;
};

/** Everything a sweep run produced. */
struct SweepOutcome {
    std::vector<SweepRow> rows; ///< Task-index order.
    std::size_t failedRows = 0;
    std::size_t completedRows = 0; ///< Slots holding final results.
    std::size_t resumedRows = 0;   ///< Restored from the checkpoint.
    std::size_t retriedRows = 0;   ///< Rows that needed > 1 attempt.
    bool complete = false;      ///< Every slot is done (SWEEP.json valid).
    double wallSeconds = 0;     ///< Whole-grid wall time.
    double taskSecondsSum = 0;  ///< Serial-time estimate (sum of per-task
                                ///< thread CPU times).
    unsigned jobs = 1;          ///< Workers actually used.
    std::uint64_t fingerprint = 0; ///< Hash of all deterministic rows.
    std::string sweepJson;      ///< Rendered SWEEP document ("" if partial).
};

/**
 * Expand @p spec and run every task on @p options.jobs workers (at most
 * one per pending task).
 */
SweepOutcome runSweep(const SweepSpec& spec, const SweepOptions& options);

/**
 * Hash identifying the deterministic inputs of a sweep: the spec (name,
 * seed, every expanded task's experiment/kind/params, post scale
 * override) — and nothing execution-related (jobs, retries, timeouts,
 * output paths). A checkpoint is only resumable into a run with the
 * same hash. Rendered as 16 hex digits.
 */
std::string sweepConfigHash(const SweepSpec& spec,
                            const SweepOptions& options);

/** Checkpoint file name inside SweepOptions::outDir. */
inline const char* sweepCheckpointName() { return "SWEEP.ckpt.json"; }

/**
 * Render the perf sidecar (jobs, wall seconds, sims/sec, speedup
 * estimate = task-seconds-sum / wall). Lives outside SWEEP.json so the
 * deterministic document stays byte-identical across --jobs values.
 */
std::string renderPerfJson(const SweepOutcome& outcome);

/**
 * Write SWEEP.json, SWEEP.perf.json and one BENCH_sweep_<id>.json per
 * experiment into options.outDir (created, parents included, when
 * missing). @return false if any file cannot be written.
 */
bool writeSweepFiles(const SweepSpec& spec, const SweepOutcome& outcome,
                     const SweepOptions& options);

} // namespace pim::sweep

#endif // PIMCACHE_SWEEP_SWEEP_RUNNER_H_
