/**
 * @file
 * Per-cache statistics.
 *
 * Feeds the miss-ratio curves (Figures 1 and 2), the lock-protocol hit
 * ratios (Table 5) and the per-command effectiveness numbers quoted in
 * Section 4.6 of the paper.
 */

#ifndef PIMCACHE_CACHE_CACHE_STATS_H_
#define PIMCACHE_CACHE_CACHE_STATS_H_

#include <cstdint>

namespace pim {

/** Counters kept by one PE's cache controller. */
struct CacheStats {
    // -- Generic hit/miss ------------------------------------------------
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    // -- Replacement -----------------------------------------------------
    std::uint64_t evictions = 0;
    std::uint64_t swapOuts = 0; ///< Dirty victims copied back.

    // -- Lock protocol (Table 5) ------------------------------------------
    std::uint64_t lrCount = 0;
    std::uint64_t lrHit = 0;          ///< LR found the block in cache.
    std::uint64_t lrHitExclusive = 0; ///< ...in EM/EC: zero bus cycles.
    std::uint64_t lrLockWaits = 0;    ///< LR inhibited by LH.
    std::uint64_t unlockCount = 0;    ///< UW + U operations.
    std::uint64_t unlockNoWaiter = 0; ///< ...with LCK state: zero bus.

    // -- Optimized commands (Section 4.6) ---------------------------------
    std::uint64_t dwAllocNoFetch = 0; ///< DW allocated without fetch.
    std::uint64_t dwDemoted = 0;      ///< DW executed as plain W.
    std::uint64_t dwSwapOutOnly = 0;  ///< DW displacing a dirty victim.
    std::uint64_t erAsRi = 0;         ///< ER case (i): read-invalidate.
    std::uint64_t erAsRp = 0;         ///< ER case (ii): read-purge.
    std::uint64_t erAsR = 0;          ///< ER case (iii): plain read.
    std::uint64_t riCount = 0;
    std::uint64_t riExclusive = 0;    ///< RI that took the block via FI.
    std::uint64_t purges = 0;         ///< Own-copy purges (ER/RP).
    std::uint64_t purgedDirty = 0;    ///< ...that skipped a swap-out.

    /** Fold another PE's counters into this one. */
    void merge(const CacheStats& other);

    /** Overall miss ratio (0 when no accesses). */
    double
    missRatio() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

} // namespace pim

#endif // PIMCACHE_CACHE_CACHE_STATS_H_
