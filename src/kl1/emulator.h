/**
 * @file
 * The multi-PE KL1 emulator: couples N reduction engines to the
 * multiprocessor cache/bus model (paper Section 4: "Each PE runs a
 * reduction engine for the abstract machine, dynamically feeding memory
 * requests to a local cache simulator").
 *
 * The run loop always steps the PE with the smallest local clock among
 * PEs that are not busy-waiting on a lock, so bus requests are served in
 * global time order. It reads that PE off the System's scheduler
 * (System::earliestRunnable, O(1)) and keeps a count of busy machines
 * around each Machine::step (the only place a machine's quiescence
 * changes), so a step costs no scan over the PEs.
 */

#ifndef PIMCACHE_KL1_EMULATOR_H_
#define PIMCACHE_KL1_EMULATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "kl1/ast.h"
#include "kl1/gc.h"
#include "kl1/machine.h"
#include "kl1/module.h"
#include "mem/layout.h"
#include "sim/system.h"

namespace pim::kl1 {

/** Emulator configuration. */
struct Kl1Config {
    std::uint32_t numPes = 8;
    CacheConfig cache;              ///< Paper base: 4Kw, 4-way, 4w blocks.
    BusTiming timing;               ///< Paper base: 1-word bus, 8-cycle mem.
    OptPolicy policy = OptPolicy::all();
    /** Clustered bus topology (docs/ARCHITECTURE.md); 0 = single bus. */
    ClusterConfig cluster;
    LayoutConfig layout;            ///< Area sizes (numPes is overridden).
    std::uint64_t maxSteps = 0;     ///< Step limit; exceeding it raises
                                    ///< SimFault(Timeout). 0 = unlimited.
    /**
     * Wall-clock budget in seconds (0 = unlimited). Checked cheaply in
     * the run loop and on every memory reference (System's RunGuard);
     * exceeding it raises SimFault(Timeout), so a non-terminating or
     * pathologically slow program becomes a classified, recoverable
     * fault instead of a wedged worker (docs/ROBUSTNESS.md).
     */
    double timeoutSeconds = 0;
    /**
     * Goals left suspended with no producer are SimFault(Program); when
     * false, RunStats::deadlockedGoals counts them instead.
     */
    bool failOnDeadlock = true;
    /**
     * Stop-and-copy heap GC: each PE's heap segment becomes two
     * semispaces and a global collection runs when a segment's active
     * half fills to within gcSlackWords of its end. GC references are
     * not charged to the caches (the paper's measurement model), but
     * every cache is flushed cold around a collection.
     */
    bool enableGc = false;
    std::uint32_t gcSlackWords = 2048;
};

/** Aggregated run statistics (the rows of the paper's Table 1). */
struct RunStats {
    std::uint64_t reductions = 0;
    std::uint64_t suspensions = 0;
    std::uint64_t resumptions = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memoryRefs = 0;
    std::uint64_t steals = 0;
    Cycles makespan = 0;
    std::uint64_t deadlockedGoals = 0;
    GcStats gc;
};

/** The whole simulated machine: engines + caches + bus + memory. */
class Emulator : public TermReader
{
  public:
    Emulator(Module module, const Kl1Config& config);
    ~Emulator() override;

    /**
     * Run a query goal, e.g. "main(12,R)". Blocks until the program
     * terminates; returns statistics. A program or configuration error,
     * a deadlock or an exceeded bound is a SimFault, after which the
     * Emulator can only be destroyed.
     */
    RunStats run(const std::string& query);

    /** Results recorded by kl1_result/1, formatted, in emission order. */
    const std::vector<std::string>& results() const { return results_; }

    /** Bindings of the named query variables after the run. */
    std::vector<std::pair<std::string, std::string>> queryBindings() const;

    System& system() { return *sys_; }
    const System& system() const { return *sys_; }
    const Module& module() const { return module_; }
    const Layout& layout() const { return layout_; }
    const Kl1Config& config() const { return config_; }
    Machine& machine(PeId pe) { return *machines_[pe]; }

    // TermReader: coherent, side-effect-free memory peek.
    Word peek(Addr addr) const override;

    /** Format a term for humans (used by tests and the result builtin). */
    std::string format(Word w) const;

    /** Garbage-collection statistics of the last run. */
    const GcStats& gcStats() const { return gcStats_; }

  private:
    friend class Machine;
    friend class GcCollector;

    /** True when a collection can run (no PE parked, no lock held). */
    bool gcQuiescent() const;

    /** Build a parsed query term directly into memory (pre-run). */
    Word buildQueryTerm(const PTerm& term,
                        std::vector<std::pair<std::string, Addr>>& vars);

    Kl1Config config_;
    Module module_;
    Layout layout_;
    std::unique_ptr<System> sys_;
    std::vector<std::unique_ptr<Machine>> machines_;

    // Global schedule/termination state (host-side bookkeeping).
    std::int64_t floatingGoals_ = 0;
    std::int64_t goalsInTransit_ = 0;
    bool gcRequested_ = false;
    GcStats gcStats_;

    std::vector<std::string> results_;
    std::vector<std::pair<std::string, Addr>> queryVars_;
};

} // namespace pim::kl1

#endif // PIMCACHE_KL1_EMULATOR_H_
