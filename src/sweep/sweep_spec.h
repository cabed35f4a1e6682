/**
 * @file
 * Declarative sweep specification: a parameter grid over System/KL1
 * configurations and stress seed batches, parsed from JSON
 * (docs/EXPERIMENTS.md has the schema and a worked example).
 *
 * A spec is a list of experiments; each experiment is a base parameter
 * set plus axes whose cartesian product (axes in document order, the
 * last axis varying fastest) yields one simulation task per point. The
 * expansion assigns every task a stable index, and all randomness is
 * derived from (spec seed, task index), so a sweep's results are a pure
 * function of the spec — independent of worker count and scheduling
 * order (see DESIGN.md "Threading model").
 */

#ifndef PIMCACHE_SWEEP_SWEEP_SPEC_H_
#define PIMCACHE_SWEEP_SWEEP_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pim {

class JsonValue;

namespace sweep {

/** One scalar parameter value: a number or a piece of text. */
struct ParamValue {
    bool isNumber = false;
    double number = 0;
    std::string text;

    static ParamValue ofNumber(double v);
    static ParamValue ofText(std::string v);

    /** Canonical rendering ("4", "2.5", "Tri") used in rows and keys. */
    std::string toString() const;
};

/** An ordered parameter assignment (one grid point, or a base set). */
struct SweepPoint {
    std::vector<std::pair<std::string, ParamValue>> params;

    const ParamValue* find(const std::string& name) const;
    bool has(const std::string& name) const { return find(name) != nullptr; }

    /** Set or overwrite @p name (overwrite keeps the original position). */
    void set(const std::string& name, ParamValue value);

    double number(const std::string& name, double fallback) const;
    std::string text(const std::string& name,
                     const std::string& fallback) const;

    /** "a=1 b=Tri ..." (replay/debug rendering). */
    std::string toString() const;
};

/** What a task simulates. */
enum class TaskKind : std::uint8_t {
    Kl1,    ///< One KL1 benchmark run (runBenchmark).
    Stress, ///< One randomized stress run (runStress).
};

const char* taskKindName(TaskKind kind);

/** One experiment: base parameters x axes, plus paper reference values. */
struct SweepExperiment {
    std::string id;
    TaskKind kind = TaskKind::Kl1;
    SweepPoint base;
    /** Axes in document order; each axis is a name and its values. */
    std::vector<std::pair<std::string, std::vector<ParamValue>>> axes;
    /**
     * Stress only: adds an implicit leading "seed" axis of this many
     * per-task derived seeds (deriveSeed of the spec seed and the task
     * index). 0 = no implicit axis.
     */
    std::uint64_t seeds = 0;
    /** Paper reference values: metric name -> expected mean over rows. */
    std::vector<std::pair<std::string, double>> paper;

    /** Cartesian product of the axes over the base point. */
    std::vector<SweepPoint> expand() const;

    /**
     * Number of grid points without materializing them, SIZE_MAX when
     * that does not fit in a size_t.
     */
    std::size_t pointCount() const;
};

/** A whole sweep: named list of experiments with a base seed. */
struct SweepSpec {
    std::string name = "sweep";
    std::uint64_t seed = 1;
    std::vector<SweepExperiment> experiments;

    /** Total task count across experiments, saturating at SIZE_MAX. */
    std::size_t totalTasks() const;

    /** Parse a spec document. @throws SimFault (Parse/Config). */
    static SweepSpec parse(const JsonValue& doc);

    /** Read, parse and validate @p path. @throws SimFault. */
    static SweepSpec parseFile(const std::string& path);

    /**
     * The built-in full paper grid: every Table 1-5 and Figure 1-3
     * parameter point (DESIGN.md section 5) as one sweep
     * (`pim_sweep --spec=paper`).
     */
    static SweepSpec paperGrid();

    /** Built-in tiny 4-point spec for CI smokes (`--spec=smoke`). */
    static SweepSpec smokeGrid();

    /**
     * Built-in beyond-the-paper scaling grid (`--spec=clusters`,
     * docs/ARCHITECTURE.md): a clustered stress batch, the single bus
     * up to its 128-PE saturation point, and the clustered topology
     * from 128 to 1024 PEs.
     */
    static SweepSpec clustersGrid();
};

/**
 * Stable per-task seed: a splitmix64 step over (base, task_index),
 * folded to 32 bits so it round-trips exactly through JSON rows and
 * `pim_stress --seed=`. Tasks derive their RNG stream from their grid
 * index, never from a worker id or submission order, which is what
 * makes sweep results bit-identical across --jobs values.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t task_index);

} // namespace sweep
} // namespace pim

#endif // PIMCACHE_SWEEP_SWEEP_SPEC_H_
