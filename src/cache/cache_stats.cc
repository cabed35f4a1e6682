#include "cache/cache_stats.h"

namespace pim {

void
CacheStats::merge(const CacheStats& other)
{
    accesses += other.accesses;
    misses += other.misses;
    evictions += other.evictions;
    swapOuts += other.swapOuts;
    lrCount += other.lrCount;
    lrHit += other.lrHit;
    lrHitExclusive += other.lrHitExclusive;
    lrLockWaits += other.lrLockWaits;
    unlockCount += other.unlockCount;
    unlockNoWaiter += other.unlockNoWaiter;
    dwAllocNoFetch += other.dwAllocNoFetch;
    dwDemoted += other.dwDemoted;
    dwSwapOutOnly += other.dwSwapOutOnly;
    erAsRi += other.erAsRi;
    erAsRp += other.erAsRp;
    erAsR += other.erAsR;
    riCount += other.riCount;
    riExclusive += other.riExclusive;
    purges += other.purges;
    purgedDirty += other.purgedDirty;
}

} // namespace pim
