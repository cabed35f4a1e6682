/**
 * @file
 * The per-PE hardware lock directory (paper Section 3.1).
 *
 * Separate from the cache directory so that (a) individual words of one
 * block can be locked independently, (b) locks survive the swap-out of
 * the block holding the locked word, and (c) cache tags carry no lock
 * state. The directory snoops the bus: any remote F/FI/LK touching a
 * block that contains a locked word is answered with LH and the entry
 * moves LCK -> LWAIT, guaranteeing the eventual UL broadcast.
 */

#ifndef PIMCACHE_CACHE_LOCK_DIRECTORY_H_
#define PIMCACHE_CACHE_LOCK_DIRECTORY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "bus/bus.h"
#include "cache/state.h"
#include "common/types.h"
#include "fault/fault_injector.h"

namespace pim {

/** Word-granularity busy-wait lock directory for one PE. */
class LockDirectory : public LockSnooper
{
  public:
    /**
     * @param owner PE owning this directory.
     * @param entries Number of simultaneously held locks supported.
     * @param bus Bus whose residency filter to keep exact (nullptr for
     *        a standalone directory, e.g. unit tests).
     * @param block_words Block size used to map lock words to the
     *        block-granular residency masks (required when @p bus set).
     */
    LockDirectory(PeId owner, std::uint32_t entries, Bus* bus = nullptr,
                  std::uint32_t block_words = 0);

    /**
     * Register a lock on @p word_addr in the LCK state at local time
     * @p when. SimFault(Config) if the directory is full (the KL1
     * engine locks at most `entries` words, in address order); panics if
     * the word is already locked by this PE.
     */
    void acquire(Addr word_addr, Cycles when = 0);

    /** True if this PE currently holds a lock on @p word_addr. */
    bool holds(Addr word_addr) const;

    /** State of the entry for @p word_addr (EMP if absent). */
    LockState stateOf(Addr word_addr) const;

    /**
     * Drop the lock on @p word_addr at local time @p when.
     * @return true if the entry was in LWAIT, i.e. a UL broadcast is
     * required.
     */
    bool release(Addr word_addr, Cycles when = 0);

    /** Number of currently held locks. */
    std::uint32_t heldCount() const;

    /** Entries supported. */
    std::uint32_t capacity() const { return entries_; }

    /** All occupied entries as (word address, state), for diagnostics. */
    std::vector<std::pair<Addr, LockState>> entries() const;

    /**
     * Append a canonical description of the directory to @p out:
     * occupied entries in address order (slot assignment is an
     * implementation detail), then ghost words. Part of the protocol
     * state snapshot used by the conformance engine (src/model).
     */
    void snapshotState(std::vector<std::uint64_t>& out) const;

    /**
     * Attach a fault injector (nullptr to detach). Sites: LostUnlock (a
     * release with waiters returns "no UL needed", so parked PEs never
     * wake) and StuckLwait (a released LWAIT entry leaves a ghost that
     * answers LH forever).
     */
    void
    setFaultInjector(FaultInjector* injector)
    {
        injector_ = injector;
    }

    /**
     * Attach an observability sink (nullptr to detach): every entry state
     * change (EMP->LCK on acquire, LCK/LWAIT->EMP on release, LCK->LWAIT
     * on a remote lock-hit snoop) is reported with this PE as the owner.
     */
    void setEventSink(EventSink* sink) { sink_ = sink; }

    /** Ghost LWAIT words left behind by injected StuckLwait faults. */
    std::uint32_t ghostCount() const
    {
        return static_cast<std::uint32_t>(ghosts_.size());
    }

    /** The ghost words themselves (diagnostics). */
    const std::vector<Addr>& ghostWords() const { return ghosts_; }

    // LockSnooper interface -----------------------------------------------
    bool snoopLockCheck(Addr block_addr, std::uint32_t block_words,
                        Cycles when) override;

  private:
    struct Entry {
        Addr addr = kNoAddr;
        LockState state = LockState::EMP;
    };

    /**
     * Re-derive whether any entry or ghost falls in the block of
     * @p word_addr and push the answer into the bus residency filter
     * (no-op for a standalone directory).
     */
    void refreshResidency(Addr word_addr);

    PeId owner_;
    std::uint32_t entries_;
    Bus* bus_ = nullptr;          ///< Residency filter target (optional).
    std::uint32_t blockWords_ = 0; ///< Block size for residency mapping.
    std::vector<Entry> slots_;
    FaultInjector* injector_ = nullptr;
    EventSink* sink_ = nullptr;
    std::vector<Addr> ghosts_; ///< Stuck-LWAIT words (injected faults).
};

} // namespace pim

#endif // PIMCACHE_CACHE_LOCK_DIRECTORY_H_
