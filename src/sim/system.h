/**
 * @file
 * The multiprocessor system model: N PEs with private PIM caches and lock
 * directories on one common bus in front of shared memory.
 *
 * Drivers (the KL1 emulator, trace replay, the synthetic-stream loop in
 * sim/ref_source.h) issue memory operations per PE through
 * System::access. Each PE has a local clock; drivers are expected to
 * step the PE with the smallest clock so bus requests are served in
 * global time order — the paper's "cache simulators artificially
 * synchronize at each simulated bus request".
 *
 * The System keeps that pick itself: a min tournament tree over the
 * PEs, keyed clock << kPeBits | pe, replayed leaf to root wherever a
 * PE's clock or runnability changes (access, park, wake, advanceClock,
 * retire, abandonParkedWaiters). earliestRunnable() reads the root, so
 * a drive loop picks its next PE in O(1) and pays O(log P) per update
 * instead of scanning every PE per step (docs/PERFORMANCE.md).
 *
 * Busy-wait locking: an access inhibited by a remote lock (LH) parks the
 * PE on the block; the UL broadcast wakes it and the driver retries the
 * operation (the bus is idle during the wait, as in the paper).
 */

#ifndef PIMCACHE_SIM_SYSTEM_H_
#define PIMCACHE_SIM_SYSTEM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bus/bus.h"
#include "cache/pim_cache.h"
#include "common/deadline.h"
#include "common/xassert.h"
#include "mem/paged_store.h"
#include "obs/event_sink.h"
#include "sim/opt_policy.h"
#include "trace/ref.h"
#include "trace/ref_stats.h"

namespace pim {

/** Construction parameters for a System. */
struct SystemConfig {
    std::uint32_t numPes = 8;
    CacheConfig cache;
    BusTiming timing;
    OptPolicy policy = OptPolicy::all();
    std::uint64_t memoryWords = 1ull << 26;
    /**
     * Clustered snooping-bus topology (docs/ARCHITECTURE.md). The
     * default (clusterSize 0) keeps the paper's single shared bus;
     * clusterSize > 0 partitions the PEs into per-cluster buses joined
     * by an interconnect whose crossings cost cluster.hopCycles each
     * way. Protocol outcomes are identical on every topology — only
     * timing changes.
     */
    ClusterConfig cluster;

    /**
     * Check the configuration for construction-time errors (zero PEs,
     * non-power-of-two geometry, memory not covering a block, ...).
     * @throws SimFault (Config) with a descriptive message.
     */
    void validate() const;

    /**
     * validate(), plus: the shared memory must cover @p required_words
     * (e.g. Layout::totalWords() when driving a KL1 address-space map).
     */
    void validate(std::uint64_t required_words) const;
};

/**
 * Observer of every memory operation a System executes. Used by the
 * coherence auditor and the lock watchdog; both hooks default to no-ops.
 * Observers may throw SimFault out of System::access.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;

    /** Before the cache sees the (post-policy) operation. */
    virtual void
    beforeAccess(PeId pe, MemOp op, Addr addr, Area area)
    {
        (void)pe; (void)op; (void)addr; (void)area;
    }

    /**
     * After the operation finished or lock-waited. @p data is the value
     * read (reading operations), @p wdata the value written (writing
     * operations), @p lock_wait whether the PE parked instead.
     */
    virtual void
    afterAccess(PeId pe, MemOp op, Addr addr, Area area, Word data,
                Word wdata, bool lock_wait)
    {
        (void)pe; (void)op; (void)addr; (void)area;
        (void)data; (void)wdata; (void)lock_wait;
    }
};

/** Pages and host bytes of one per-address table (common/page_table.h). */
struct TableFootprint {
    std::uint64_t pages = 0;
    std::uint64_t bytes = 0;
};

/** Host memory of the per-address tables (docs/PERFORMANCE.md). */
struct HostFootprint {
    TableFootprint memoryWords;
    TableFootprint copyMasks;
    TableFootprint lockMasks;
    TableFootprint purgeMarks;
};

/** N PEs + caches + lock directories + bus + shared memory. */
class System : public UnlockListener
{
  public:
    /** Result of one processor memory operation. */
    struct Access {
        Word data = 0;       ///< Value read (reading operations).
        bool lockWait = false; ///< Parked; retry after the UL wakeup.
    };

    explicit System(const SystemConfig& config);

    /**
     * Panics if any PE is still parked on a lock (the driver dropped a
     * lockWait=true access without retrying it — a protocol leak), unless
     * an exception is already unwinding or abandonParkedWaiters() was
     * called to acknowledge the leak.
     */
    ~System() override;

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    /**
     * Issue one memory operation for @p pe at its current local clock.
     * The optimization policy is applied first; the reference is counted
     * once (on completion, not on lock-rejected attempts).
     *
     * On lockWait the PE is parked: the driver must not step it again
     * until parked(pe) is false, then retry the same operation.
     */
    Access access(PeId pe, MemOp op, Addr addr, Area area, Word wdata = 0);

    /** True while @p pe is busy-waiting on a remote lock. */
    bool parked(PeId pe) const { return parkedOn_[pe] != kNoAddr; }

    /** Local clock of @p pe. */
    Cycles clock(PeId pe) const { return clock_[pe]; }

    /** Advance @p pe's local clock (idle time, instruction work, ...). */
    void
    advanceClock(PeId pe, Cycles by)
    {
        clock_[pe] += by;
        reschedule(pe);
    }

    /**
     * Move @p pe's clock back to @p to (the KL1 emulator, when its run
     * ends before a fast-forwarded idle PE's jump; docs/PERFORMANCE.md
     * "Idle spins"). Nothing else changes. Out of line: it runs once per
     * PE per run, and an inline copy of the tree replay in the machine's
     * translation unit costs the hot path there its inlining.
     */
    void rewindClock(PeId pe, Cycles to);

    /**
     * The unparked, unretired PE with the smallest clock, the lowest PE
     * on ties (kNoPe when there is none).
     */
    PeId
    earliestRunnable() const
    {
        const std::uint64_t root = sched_[1];
        return root == kOffKey ? kNoPe : static_cast<PeId>(root & kPeMask);
    }

    /**
     * Take @p pe out of the schedule for good: its reference stream has
     * ended, and earliestRunnable() never returns it again. Its clock
     * still counts towards makespan(). @p pe must not be parked.
     */
    void retire(PeId pe);

    /** Largest local clock across PEs (the run's makespan). */
    Cycles makespan() const;

    /**
     * Write back and invalidate every cache without charging bus cycles
     * (used around stop-and-copy GC, which the paper's model excludes).
     */
    void flushAllCaches();

    std::uint32_t numPes() const { return config_.numPes; }
    const SystemConfig& config() const { return config_; }
    PimCache& cache(PeId pe) { return *caches_[pe]; }
    const PimCache& cache(PeId pe) const { return *caches_[pe]; }
    Bus& bus() { return *bus_; }
    const Bus& bus() const { return *bus_; }
    PagedStore& memory() { return memory_; }
    const PagedStore& memory() const { return memory_; }
    RefStats& refStats() { return refStats_; }
    const RefStats& refStats() const { return refStats_; }

    /** Aggregate cache statistics over all PEs. */
    CacheStats totalCacheStats() const;

    /** What the memory, residency and purge-mark tables hold now. */
    HostFootprint hostFootprint() const;

    /**
     * Observe every completed reference (post-policy). Used to capture
     * traces for later trace-driven replay; pass nullptr to detach.
     */
    void
    setRefObserver(std::function<void(const MemRef&)> observer)
    {
        refObserver_ = std::move(observer);
    }

    /**
     * Register an observer of every access (auditor, watchdog). Observers
     * are called in registration order and stay attached for the System's
     * lifetime; the caller keeps ownership.
     */
    void
    addAccessObserver(AccessObserver* observer)
    {
        observers_.push_back(observer);
    }

    /**
     * Attach a cooperative run guard (nullptr to detach): every access
     * polls it, so a hung or livelocked drive loop raises
     * SimFault(Timeout) out of access() instead of wedging
     * the caller forever (docs/ROBUSTNESS.md). The caller keeps
     * ownership; the guard must outlive its attachment.
     */
    void setRunGuard(RunGuard* guard) { guard_ = guard; }

    /**
     * Attach a fault injector (nullptr to detach), forwarded to the bus,
     * every cache and every lock directory. The System itself consults it
     * at SpuriousWakeup (parked PEs woken without a real UL).
     */
    void setFaultInjector(FaultInjector* injector);

    /**
     * Register an observability sink (timeline recorder, metrics
     * registry; docs/OBSERVABILITY.md). Events from the bus, every cache,
     * every lock directory and the System itself fan out to all
     * registered sinks, in registration order. Sinks stay attached for
     * the System's lifetime; the caller keeps ownership. Until the first
     * sink is registered, no component holds a sink pointer, so an
     * unobserved run pays one null compare per hook site.
     */
    void addEventSink(EventSink* sink);

    /** PEs currently parked on a lock, in PE order. */
    std::vector<PeId> pendingWaiters() const;

    /** The block address @p pe is parked on (kNoAddr when not parked). */
    Addr parkedOnBlock(PeId pe) const { return parkedOn_[pe]; }

    /**
     * Canonical protocol state over the address range [@p lo, @p hi):
     * shared-memory words, every cache's blocks/locks, the bus's purge
     * marks and which block each PE is parked on. Everything that can
     * influence *future protocol behavior* is included; local clocks,
     * bus occupancy and statistics are not — two runs reaching the same
     * protocol situation along different schedules snapshot equal, which
     * is exactly the state-merging the exhaustive explorer (src/model)
     * needs to terminate.
     */
    std::vector<std::uint64_t> protocolSnapshot(Addr lo, Addr hi) const;

    /** 64-bit mix of protocolSnapshot (splitmix64-style). */
    std::uint64_t protocolHash(Addr lo, Addr hi) const;

    /**
     * Un-park every waiting PE without a wakeup, acknowledging that their
     * lock waits will never be retried. For error paths only (e.g. a
     * stress harness tearing down after a watchdog fault); silences the
     * destructor's parked-PE leak check.
     */
    void abandonParkedWaiters();

    // UnlockListener ------------------------------------------------------
    void onUnlockBroadcast(Addr word_addr, Cycles when) override;

  private:
    /** Bits of a scheduler key holding the PE (the mask limit, 4096). */
    static constexpr unsigned kPeBits = 12;
    static constexpr std::uint64_t kPeMask = (1ull << kPeBits) - 1;
    /** Leaf key of a parked or retired PE (and of unused leaves). */
    static constexpr std::uint64_t kOffKey = ~0ull;
    /** Clocks below this fit a key that stays below kOffKey. */
    static constexpr Cycles kClockLimit = (1ull << (64 - kPeBits)) - 1;
    static_assert(ResidencyFilter::kMaxMaskWords * 64 <= 1u << kPeBits);

    /** Replay @p pe's leaf-to-root path after its clock or state changed. */
    void
    reschedule(PeId pe)
    {
        PIM_ASSERT(clock_[pe] < kClockLimit, "pe", pe, " clock ", clock_[pe],
                   " overflows the scheduler key");
        std::uint64_t key = parkedOn_[pe] != kNoAddr || retired_[pe] != 0
                                ? kOffKey
                                : clock_[pe] << kPeBits | pe;
        std::size_t node = leaves_ + pe;
        sched_[node] = key;
        // key stays in a register: each level reads only the sibling.
        for (; node > 1; node >>= 1) {
            key = std::min(key, sched_[node ^ 1]);
            sched_[node >> 1] = key;
        }
    }

    /** Park @p pe on @p block (updates the block -> waiters index). */
    void park(PeId pe, Addr block, Cycles when);

    /** Wake @p pe (the caller removes it from the waiters index). */
    void wake(PeId pe, Addr block, Cycles at_least);

    SystemConfig config_;
    PagedStore memory_;
    std::unique_ptr<Bus> bus_;
    std::vector<std::unique_ptr<PimCache>> caches_;
    std::vector<Cycles> clock_;
    std::vector<Addr> parkedOn_; ///< Block a PE busy-waits on (kNoAddr).
    std::vector<std::uint8_t> retired_; ///< Stream ended (retire()).
    /**
     * The PE scheduler: a min tournament tree over leaves_ leaves (the
     * power of two >= numPes). sched_[leaves_ + pe] is pe's key and each
     * inner node i the min of nodes 2i and 2i+1, so sched_[1] is the
     * earliest runnable PE's key.
     */
    std::size_t leaves_;
    std::vector<std::uint64_t> sched_;
    /**
     * Inverse of parkedOn_: block -> parked PEs in ascending id order,
     * so an UL broadcast wakes its waiters in O(waiters) instead of
     * scanning every PE (and wakes them in the same order the old scan
     * did). Kept exactly in sync with parkedOn_.
     */
    std::unordered_map<Addr, std::vector<PeId>> waitersByBlock_;
    RefStats refStats_;
    std::function<void(const MemRef&)> refObserver_;
    std::vector<AccessObserver*> observers_;
    FaultInjector* injector_ = nullptr;
    RunGuard* guard_ = nullptr; ///< Deadline poll (may be null).
    MultiSink sinkMux_;
    EventSink* sink_ = nullptr; ///< &sinkMux_ once a sink registered.
};

} // namespace pim

#endif // PIMCACHE_SIM_SYSTEM_H_
