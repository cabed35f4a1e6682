/**
 * @file
 * The common bus: arbitration, snoop dispatch, data movement, accounting.
 *
 * Implements the bus commands of paper Section 3.3: F (fetch), FI (fetch
 * and invalidate), I (invalidate), LK (lock, riding with FI or I), UL
 * (unlock), and the responses H (hit, i.e. a cache supplies the block)
 * and LH (lock hit, the access is inhibited by a remote lock directory).
 *
 * The bus carries real data words between caches and the shared memory,
 * and charges cycles according to BusTiming. Protocol policy (state
 * transitions) lives in the caches; the bus only dispatches snoops.
 */

#ifndef PIMCACHE_BUS_BUS_H_
#define PIMCACHE_BUS_BUS_H_

#include <cstdint>
#include <vector>

#include "bus/cluster_bus.h"
#include "bus/residency_filter.h"
#include "bus/timing.h"
#include "common/types.h"
#include "fault/fault_injector.h"
#include "mem/area.h"
#include "mem/paged_store.h"

namespace pim {

class EventSink;
struct BusTxnEvent;

/** Cache-side snoop interface. */
class BusSnooper
{
  public:
    virtual ~BusSnooper() = default;

    /** Reply to a fetch snoop. */
    struct FetchReply {
        bool present = false; ///< H response: this cache supplies data.
        bool dirty = false;   ///< Block was EM/SM before the snoop.
    };

    /**
     * F or FI observed for @p block_addr at bus time @p when. If this
     * cache holds the block it must copy it into @p data_out, then
     * downgrade to shared (F) or invalidate (FI) its copy, and report
     * whether the copy was dirty. Under the PIM protocol dirty data is
     * *not* copied back to shared memory here — that is the point of
     * the SM state; MSI and MESI (the Illinois-style baseline) copy it
     * back.
     */
    virtual FetchReply snoopFetch(Addr block_addr, bool invalidate,
                                  Word* data_out, Cycles when) = 0;

    /**
     * I (or the invalidation half of FI) observed for @p block_addr at
     * bus time @p when: drop any copy. @return true if the dropped copy
     * was dirty (EM/SM), so that dirty ownership can migrate to the
     * requester instead of being silently lost.
     */
    virtual bool snoopInvalidate(Addr block_addr, Cycles when) = 0;

    /**
     * Dragon word-update broadcast observed for @p word_addr at bus time
     * @p when: a cache holding the word's block must snarf @p value into
     * it (and, if it was the dirty owner, downgrade to clean S — dirty
     * ownership migrates to the writer). @return true iff this cache
     * holds a copy. Default: no copy (invalidation-based protocols never
     * see updates).
     */
    virtual bool
    snoopUpdate(Addr word_addr, Word value, Cycles when)
    {
        (void)word_addr;
        (void)value;
        (void)when;
        return false;
    }
};

/** Lock-directory-side snoop interface. */
class LockSnooper
{
  public:
    virtual ~LockSnooper() = default;

    /**
     * F, FI or LK observed at bus time @p when for the block
     * [block_addr, block_addr + block_words). If this directory holds a
     * lock on any word in that block it must move the entry to LWAIT and
     * return true (LH).
     */
    virtual bool snoopLockCheck(Addr block_addr, std::uint32_t block_words,
                                Cycles when) = 0;
};

/** Observer of UL broadcasts (the system uses it to wake parked PEs). */
class UnlockListener
{
  public:
    virtual ~UnlockListener() = default;

    /** UL observed for @p word_addr at bus time @p when. */
    virtual void onUnlockBroadcast(Addr word_addr, Cycles when) = 0;
};

/** Aggregate bus accounting. */
struct BusStats {
    Cycles cyclesByPattern[kNumBusPatterns] = {};
    std::uint64_t transByPattern[kNumBusPatterns] = {};
    Cycles cyclesByArea[kNumAreaSlots] = {};
    std::uint64_t cmdCounts[kNumBusCmds] = {};
    Cycles totalCycles = 0;
    /** Shared-memory module busy time (fetches + copy-backs). */
    Cycles memoryBusyCycles = 0;
    std::uint64_t memoryReads = 0;
    std::uint64_t memoryWrites = 0;
    /**
     * Fetches from shared memory of a block whose last dirty copy was
     * purged (ER/RP) and never written back: the software violated the
     * write-once/read-once contract and read stale data.
     */
    std::uint64_t staleFetches = 0;
    /**
     * Interconnect hop cycles on the clustered topology
     * (docs/ARCHITECTURE.md): charged on top of the pattern's fixed
     * cost, so cyclesByPattern keeps its transactions-times-cost
     * invariant and totalCycles = sum(cyclesByPattern) +
     * interClusterCycles. Always zero on a single bus.
     */
    Cycles interClusterCycles = 0;
    /** Transactions whose route crossed the interconnect. */
    std::uint64_t interClusterHops = 0;

    void
    account(BusPattern pattern, Cycles cycles, Area area,
            Cycles hop_cycles = 0)
    {
        cyclesByPattern[static_cast<int>(pattern)] += cycles;
        transByPattern[static_cast<int>(pattern)] += 1;
        cyclesByArea[static_cast<int>(area)] += cycles + hop_cycles;
        totalCycles += cycles + hop_cycles;
        interClusterCycles += hop_cycles;
        if (hop_cycles != 0)
            interClusterHops += 1;
    }

    void clear() { *this = BusStats{}; }
};

/** Result of an F/FI transaction. */
struct FetchResult {
    bool lockHit = false;       ///< LH: inhibited; retry after UL.
    bool supplied = false;      ///< H: data came from another cache.
    bool supplierDirty = false; ///< Supplier copy was EM/SM.
    Cycles completeAt = 0;      ///< Bus time when the transaction ends.
};

/** Result of an I transaction. */
struct InvalidateResult {
    bool lockHit = false;
    /** Some invalidated remote copy was dirty; the requester must take
     *  over dirty ownership (install EM/SM, not EC/S). */
    bool droppedDirty = false;
    Cycles completeAt = 0;
};

/** Result of a word-update broadcast (Dragon shared write). */
struct UpdateResult {
    /** Some remote cache snarfed the word: the writer must stay in a
     *  shared state (SM). False: the writer is the sole holder (EM). */
    bool sharerPresent = false;
    Cycles completeAt = 0;
};

/**
 * The common bus shared by all PEs and the memory modules.
 *
 * Single-owner resource: a transaction requested at time T starts at
 * max(T, the bus's free time) and holds the bus for its full pattern
 * cost (paper assumption 3: the bus is not freed until the operation
 * completes).
 *
 * On a clustered topology (ClusterConfig.clusterSize > 0 with 2+
 * clusters) the single resource splits into per-cluster buses joined by
 * a contention-free crossbar (ClusterTopology); a transaction reserves
 * only the buses on its route — the remote clusters whose PEs hold a
 * copy or lock of the block, read off the residency masks — and pays
 * the route's hop cycles on top of its pattern cost. The single bus is
 * the one-cluster case of the same path. Snoop semantics are identical
 * on every topology.
 */
class Bus
{
  public:
    /** Blocks one page of the purge-mark table covers (256 words). */
    static constexpr std::size_t kPurgeMarkPageBlocks =
        std::size_t{PageTable::kPageWords} * 64;

    Bus(const BusTiming& timing, PagedStore& memory,
        const ClusterConfig& cluster = ClusterConfig{});

    /**
     * Attach one PE's cache and lock directory snoopers. Each PE may be
     * attached at most once, in any order; the PE id indexes its port
     * and doubles as its bit in the residency masks.
     */
    void attach(PeId pe, BusSnooper* cache, LockSnooper* locks);

    /** Register the UL observer (at most one; typically the System). */
    void setUnlockListener(UnlockListener* listener);

    /**
     * Attach a fault injector (nullptr to detach). The bus consults it at
     * its injection sites: DropSnoop, DupSnoop, CorruptWord, SpuriousInv.
     * The snoop sites draw once per copy holder a fetch visits.
     */
    void setFaultInjector(FaultInjector* injector)
    {
        injector_ = injector;
    }

    /**
     * Attach an observability sink (nullptr to detach). Every completed
     * transaction — including LH-rejected attempts — is reported with its
     * arbitration wait, bus occupancy and response flags. An unobserved
     * bus pays one null compare per transaction.
     */
    void setEventSink(EventSink* sink) { sink_ = sink; }

    /**
     * Issue F (or FI when @p invalidate). Lock directories are checked
     * first; on LH the transaction aborts (lock-reject cycles). Otherwise
     * the block is supplied cache-to-cache or from memory into
     * @p data_out, and @p dirty_victim selects the with-swap-out timing.
     * When @p with_lock, an LK for @p lock_word rides along.
     */
    FetchResult fetch(PeId requester, Addr block_addr, bool invalidate,
                      bool with_lock, Addr lock_word, bool dirty_victim,
                      Word* data_out, Cycles when, Area area);

    /** Issue I (optionally with LK riding along). */
    InvalidateResult invalidate(PeId requester, Addr block_addr,
                                bool with_lock, Addr lock_word, Cycles when,
                                Area area);

    /**
     * Move a victim block's data to shared memory. No bus cycles are
     * charged here: the caller folds the transfer into the pattern of the
     * operation that displaced the victim (fetch / swapOutOnly).
     */
    void writeBackData(Addr block_addr, const Word* data);

    /**
     * Swap-out-only pattern: a DW allocation displaced a dirty victim and
     * no fetch follows. Charges bus cycles and writes the data back.
     */
    Cycles swapOutOnly(PeId requester, Addr victim_addr, const Word* data,
                       Cycles when, Area area);

    /** Broadcast UL for @p word_addr. */
    Cycles unlockBroadcast(PeId requester, Addr word_addr, Cycles when,
                           Area area);

    /**
     * Write one word straight to shared memory, invalidating every
     * remote copy of its block (the write-through baseline's per-write
     * bus transaction). Costs wordWriteCycles().
     */
    Cycles writeWordThrough(PeId requester, Addr word_addr, Word value,
                            Cycles when, Area area);

    /**
     * Broadcast one written word to every remote copy of its block
     * (Dragon's shared-write transaction). Unlike writeWordThrough,
     * shared memory is *not* updated — sharers snarf the word in place
     * and the writer keeps dirty ownership. Costs wordUpdateCycles().
     * No lock check: the writer already holds a valid copy, which the
     * lock protocol guarantees cannot coexist with a remote lock.
     */
    UpdateResult updateWord(PeId requester, Addr word_addr, Word value,
                            Cycles when, Area area);

    /**
     * Contract checker: note that a dirty block was purged without
     * copy-back. A later fetch of the block from memory (before a fresh
     * allocation or write-back overwrites it) counts as a stale fetch.
     */
    void markPurgedDirty(Addr block_addr);

    /** Contract checker: a DW freshly allocated this block. */
    void noteFreshAllocation(Addr block_addr);

    /** Contract checker: forget all purge marks (used around GC). */
    void clearPurgedMarks();

    /**
     * True if the last dirty copy of @p block_addr was purged without
     * copy-back (shared memory is stale by software contract). Used by
     * the coherence auditor to excuse clean-copy/memory mismatches that
     * the RP/ER contract deliberately creates.
     */
    bool
    purgedDirtyMarked(Addr block_addr) const
    {
        const std::uint64_t index = blockIndexOf(block_addr);
        const std::uint64_t* word = purgeMarks_.find(index >> 6);
        return word != nullptr && (*word >> (index & 63) & 1) != 0;
    }

    /**
     * Append the purge marks in [@p lo, @p hi) to @p out in address
     * order. Part of the protocol state snapshot used by the
     * conformance engine (src/model): a purge mark changes how later
     * invariant checks and stale-fetch accounting behave, so states
     * differing only in marks must not be merged.
     */
    void snapshotPurgeMarks(Addr lo, Addr hi,
                            std::vector<std::uint64_t>& out) const;

    /** Read a block from shared memory without bus involvement (init). */
    void readMemoryBlock(Addr block_addr, Word* data_out) const;

    /** Write a block to shared memory without bus involvement (init). */
    void writeMemoryBlock(Addr block_addr, const Word* data);

    // -- Residency masks (docs/PERFORMANCE.md) ----------------------------

    /** @p pe's cache gained a valid copy of @p block_addr. */
    void
    noteBlockPresent(PeId pe, Addr block_addr)
    {
        residency_.addCopy(pe, block_addr);
    }

    /** @p pe's cache dropped its copy of @p block_addr. */
    void
    noteBlockAbsent(PeId pe, Addr block_addr)
    {
        residency_.removeCopy(pe, block_addr);
    }

    /** @p pe's lock directory residency in @p block_addr changed. */
    void
    noteLockResidency(PeId pe, Addr block_addr, bool resident)
    {
        residency_.setLockResident(pe, block_addr, resident);
    }

    const ResidencyFilter& residency() const { return residency_; }

    /** The purge-mark bitmap (host footprint). */
    const PageTable& purgeMarkTable() const { return purgeMarks_; }

    /** The cluster partition and per-cluster bus occupancy. */
    const ClusterTopology& clusters() const { return clusters_; }

    const BusTiming& timing() const { return timing_; }
    BusStats& stats() { return stats_; }
    const BusStats& stats() const { return stats_; }
    PagedStore& memory() { return memory_; }

  private:
    struct Port {
        BusSnooper* cache = nullptr;
        LockSnooper* locks = nullptr;
    };

    /**
     * The cluster resources a transaction reserves and the hop cycles
     * it pays. On the single bus: cluster 0, nothing remote, hop 0.
     */
    struct Route {
        std::uint32_t local = 0;    ///< Requester's cluster.
        std::uint64_t remote = 0;   ///< Remote clusters consulted.
        Cycles hop = 0;             ///< Interconnect cycles charged.
    };

    /**
     * Route for an F/FI/I/LK transaction on @p block_addr, from the
     * pre-transaction residency masks: the remote clusters holding
     * copies (@p snoops_copies) and/or locks (@p checks_locks). Memory
     * is banked per cluster (each cluster bus has its own port into the
     * shared-memory modules), so memory crossings never ride the
     * interconnect. Computed before any snoop runs, so the reservation
     * is independent of snoop outcomes.
     */
    Route routeFor(PeId requester, Addr block_addr, bool snoops_copies,
                   bool checks_locks) const;

    /** Earliest start of a transaction over @p route. */
    Cycles arbitrate(const Route& route, Cycles when) const;

    /** Hold @p route's resources until @p until. */
    void release(const Route& route, Cycles until);

    /** LH check across the block's lock holders except the requester. */
    bool lockCheck(PeId requester, Addr block_addr, Cycles when);

    /** Report one transaction to the sink (no-op when none attached). */
    void emitTxn(const BusTxnEvent& event);

    /** Block number of @p block_addr (purge-mark bitmap index). */
    std::uint64_t
    blockIndexOf(Addr block_addr) const
    {
        return block_addr >> blockShift_;
    }

    void setPurgeMark(Addr block_addr, bool marked);

    BusTiming timing_;
    PagedStore& memory_;
    /**
     * Indexed by PE id. Every snoop walks the residency masks, so only
     * ports whose bit is set are ever visited, and a mask bit is set
     * only by an attached PE's cache or lock directory.
     */
    std::vector<Port> ports_;
    ResidencyFilter residency_;
    ClusterTopology clusters_;
    UnlockListener* unlockListener_ = nullptr;
    FaultInjector* injector_ = nullptr;
    EventSink* sink_ = nullptr;
    BusStats stats_;
    std::uint32_t blockShift_ = 0; ///< log2(blockWords).

    /**
     * Bit per block number, set while the block's last dirty copy was
     * purged without copy-back: entry i of the table is the bitmap word
     * of blocks 64i to 64i+63. Pages are allocated on the first mark
     * they hold, so the bitmap costs memory for the marked stretches of
     * the address space, not for its size. Index-ordered, so
     * snapshotPurgeMarks walks a range in address order without any
     * per-call sort, and the per-fetch membership test is one table
     * lookup.
     */
    PageTable purgeMarks_;
};

} // namespace pim

#endif // PIMCACHE_BUS_BUS_H_
