/**
 * @file
 * The observability event interface (docs/OBSERVABILITY.md).
 *
 * EventSink is the sibling of AccessObserver for *mechanism-level* events:
 * where AccessObserver sees one completed memory operation, an EventSink
 * sees the machinery underneath it — bus transactions (arbitration wait,
 * snoop round, H/LH response, data beats), cache block state transitions,
 * fills, purges and swap-outs, lock-directory LCK/LWAIT/EMP transitions,
 * and the park/wake lifecycle of busy-waiting PEs.
 *
 * Hooks are guarded at every emission site (`if (sink_ != nullptr)`), so
 * an unobserved simulation pays one pointer compare per site and nothing
 * else. Every hook defaults to a no-op; sinks override what they need.
 * This header is intentionally header-only so the model libraries (bus,
 * cache, sim) depend on no observability code — concrete sinks
 * (TimelineRecorder, AttributionEngine) live in the pim_obs library.
 */

#ifndef PIMCACHE_OBS_EVENT_SINK_H_
#define PIMCACHE_OBS_EVENT_SINK_H_

#include <cstdint>
#include <vector>

#include "bus/timing.h"
#include "cache/state.h"
#include "common/types.h"
#include "mem/area.h"
#include "trace/ref.h"

namespace pim {

/**
 * One completed bus transaction, including LH-rejected attempts.
 * `startedAt - requestedAt` is the arbitration wait (the bus was busy);
 * `completedAt - startedAt` is the cycles the transaction held the bus.
 */
struct BusTxnEvent {
    PeId requester = 0;
    BusPattern pattern = BusPattern::MemFetch;
    Area area = Area::Unknown;
    Addr blockAddr = 0;
    Cycles requestedAt = 0; ///< When the requester asked for the bus.
    Cycles startedAt = 0;   ///< When arbitration granted it.
    Cycles completedAt = 0; ///< When the bus was released.
    BusCmd cmd = BusCmd::F;
    bool hasCmd = false;    ///< False for swap-out-only / word-write.
    bool withLock = false;  ///< An LK rode along.
    bool lockHit = false;   ///< Answered LH; the transaction aborted.
    bool supplied = false;  ///< H response: data came cache-to-cache.
    bool supplierDirty = false;
    std::uint32_t dataBeats = 0; ///< Data-carrying bus cycles.
    /** Interconnect hop cycles (clustered topology; 0 on one bus). */
    Cycles interClusterCycles = 0;
};

/** Observer of mechanism-level simulator events. All hooks default to
 *  no-ops; implementations must not throw. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    // -- Bus ---------------------------------------------------------------

    /** A bus transaction completed (or aborted with LH). */
    virtual void
    onBusTransaction(const BusTxnEvent& event)
    {
        (void)event;
    }

    // -- Cache -------------------------------------------------------------

    /** A cache block changed state (from != to; INV means absent). */
    virtual void
    onCacheTransition(PeId pe, Addr block_addr, CacheState from,
                      CacheState to, Cycles when)
    {
        (void)pe; (void)block_addr; (void)from; (void)to; (void)when;
    }

    /** A block was installed. @p from_cache: supplied cache-to-cache. */
    virtual void
    onCacheFill(PeId pe, Addr block_addr, bool from_cache, bool dirty,
                Cycles when)
    {
        (void)pe; (void)block_addr; (void)from_cache; (void)dirty;
        (void)when;
    }

    /** A dirty victim was copied back to shared memory. */
    virtual void
    onSwapOut(PeId pe, Addr block_addr, Cycles when)
    {
        (void)pe; (void)block_addr; (void)when;
    }

    /** An own copy was purged without copy-back (ER/RP). */
    virtual void
    onPurge(PeId pe, Addr block_addr, bool was_dirty, Cycles when)
    {
        (void)pe; (void)block_addr; (void)was_dirty; (void)when;
    }

    /**
     * The whole cache of @p pe was flushed (GC barrier): every resident
     * block was written back if dirty and dropped. flushAll bypasses the
     * per-block transition path, so sinks that mirror residency must
     * clear it here instead of waiting for onCacheTransition events.
     */
    virtual void
    onCacheFlush(PeId pe)
    {
        (void)pe;
    }

    // -- Lock directory ----------------------------------------------------

    /** A lock-directory entry changed state (acquire, release, LH). */
    virtual void
    onLockTransition(PeId owner, Addr word_addr, LockState from,
                     LockState to, Cycles when)
    {
        (void)owner; (void)word_addr; (void)from; (void)to; (void)when;
    }

    // -- System ------------------------------------------------------------

    /** A PE parked to busy-wait on a remotely locked block. */
    virtual void
    onPark(PeId pe, Addr block_addr, Cycles when)
    {
        (void)pe; (void)block_addr; (void)when;
    }

    /** A parked PE was woken (UL broadcast or injected glitch). */
    virtual void
    onWake(PeId pe, Addr block_addr, Cycles when)
    {
        (void)pe; (void)block_addr; (void)when;
    }

    /** A memory operation starts at the PE's local clock. */
    virtual void
    onAccessBegin(PeId pe, MemOp op, Addr addr, Area area, Cycles when)
    {
        (void)pe; (void)op; (void)addr; (void)area; (void)when;
    }

    /** The operation finished (or lock-waited) at @p end. */
    virtual void
    onAccessEnd(PeId pe, MemOp op, Addr addr, Area area, Cycles start,
                Cycles end, bool lock_wait)
    {
        (void)pe; (void)op; (void)addr; (void)area; (void)start;
        (void)end; (void)lock_wait;
    }
};

/**
 * Fan-out sink: forwards every event to all registered sinks, in
 * registration order. The System owns one and wires the components to it
 * so a timeline recorder and an attribution engine can observe one run
 * simultaneously. Registered sinks stay attached for the mux's lifetime;
 * callers keep ownership.
 */
class MultiSink final : public EventSink
{
  public:
    void add(EventSink* sink) { sinks_.push_back(sink); }
    bool empty() const { return sinks_.empty(); }

    void
    onBusTransaction(const BusTxnEvent& event) override
    {
        for (EventSink* sink : sinks_)
            sink->onBusTransaction(event);
    }

    void
    onCacheTransition(PeId pe, Addr block_addr, CacheState from,
                      CacheState to, Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onCacheTransition(pe, block_addr, from, to, when);
    }

    void
    onCacheFill(PeId pe, Addr block_addr, bool from_cache, bool dirty,
                Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onCacheFill(pe, block_addr, from_cache, dirty, when);
    }

    void
    onSwapOut(PeId pe, Addr block_addr, Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onSwapOut(pe, block_addr, when);
    }

    void
    onPurge(PeId pe, Addr block_addr, bool was_dirty, Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onPurge(pe, block_addr, was_dirty, when);
    }

    void
    onCacheFlush(PeId pe) override
    {
        for (EventSink* sink : sinks_)
            sink->onCacheFlush(pe);
    }

    void
    onLockTransition(PeId owner, Addr word_addr, LockState from,
                     LockState to, Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onLockTransition(owner, word_addr, from, to, when);
    }

    void
    onPark(PeId pe, Addr block_addr, Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onPark(pe, block_addr, when);
    }

    void
    onWake(PeId pe, Addr block_addr, Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onWake(pe, block_addr, when);
    }

    void
    onAccessBegin(PeId pe, MemOp op, Addr addr, Area area,
                  Cycles when) override
    {
        for (EventSink* sink : sinks_)
            sink->onAccessBegin(pe, op, addr, area, when);
    }

    void
    onAccessEnd(PeId pe, MemOp op, Addr addr, Area area, Cycles start,
                Cycles end, bool lock_wait) override
    {
        for (EventSink* sink : sinks_)
            sink->onAccessEnd(pe, op, addr, area, start, end, lock_wait);
    }

  private:
    std::vector<EventSink*> sinks_;
};

} // namespace pim

#endif // PIMCACHE_OBS_EVENT_SINK_H_
