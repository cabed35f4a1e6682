#include "bus/bus.h"

#include "common/xassert.h"
#include "obs/event_sink.h"

namespace pim {

Bus::Bus(const BusTiming& timing, PagedStore& memory,
         const ClusterConfig& cluster)
    : timing_(timing), memory_(memory), clusters_(cluster)
{
    PIM_ASSERT(timing_.blockWords != 0 &&
                   (timing_.blockWords & (timing_.blockWords - 1)) == 0,
               "bus blockWords ", timing_.blockWords,
               " is not a power of two");
    residency_.setBlockWords(timing_.blockWords);
    while ((1u << blockShift_) != timing_.blockWords)
        ++blockShift_;
}

void
Bus::attach(PeId pe, BusSnooper* cache, LockSnooper* locks)
{
    if (ports_.size() <= pe)
        ports_.resize(pe + 1);
    PIM_ASSERT(ports_[pe].cache == nullptr && ports_[pe].locks == nullptr,
               "pe", pe, " attached twice");
    ports_[pe] = {cache, locks};
    residency_.registerPe(pe);
    clusters_.registerPe(pe);
}

void
Bus::setUnlockListener(UnlockListener* listener)
{
    unlockListener_ = listener;
}

Bus::Route
Bus::routeFor(PeId requester, Addr block_addr, bool snoops_copies,
              bool checks_locks) const
{
    Route route;
    route.local = clusters_.clusterOf(requester);
    // A remote cluster is routed while any of its PEs holds a copy or a
    // lock entry: the inter-cluster directory's sets, read off the
    // exact per-PE masks. The single bus has no remote cluster.
    if (clusters_.numClusters() > 1) {
        route.remote = residency_.holderClusters(
                           block_addr, snoops_copies, checks_locks,
                           clusters_.config().clusterSize) &
                       ~(1ull << route.local);
    }
    // One round trip covers every remote cluster consulted: the
    // crossbar multicasts the command and the routed buses snoop in
    // parallel, mirroring the paper's fixed snoop cost on one bus.
    // Memory is banked — every cluster bus fronts its own port into
    // the shared-memory modules — so a miss whose copies and locks all
    // sit in the requester's cluster (the common case: each PE's
    // heap/goal areas are private until stolen) pays no hops at all.
    // Only genuinely shared blocks cross, which is what lets clustered
    // topologies keep scaling where the single bus saturates.
    route.hop = route.remote != 0 ? 2 * clusters_.hopCycles() : 0;
    return route;
}

Cycles
Bus::arbitrate(const Route& route, Cycles when) const
{
    return clusters_.arbitrate(route.local, route.remote, when);
}

void
Bus::release(const Route& route, Cycles until)
{
    clusters_.occupy(route.local, route.remote, until);
}

bool
Bus::lockCheck(PeId requester, Addr block_addr, Cycles when)
{
    bool lock_hit = false;
    // Only directories with an entry in the block can answer LH or need
    // the LCK -> LWAIT transition. Every one of them snoops, so do not
    // short-circuit.
    residency_.forEachLockHolder(block_addr, requester, [&](PeId pe) {
        if (ports_[pe].locks->snoopLockCheck(block_addr, timing_.blockWords,
                                             when))
            lock_hit = true;
    });
    return lock_hit;
}

void
Bus::emitTxn(const BusTxnEvent& event)
{
    if (sink_ != nullptr)
        sink_->onBusTransaction(event);
}

FetchResult
Bus::fetch(PeId requester, Addr block_addr, bool invalidate, bool with_lock,
           Addr lock_word, bool dirty_victim, Word* data_out, Cycles when,
           Area area)
{
    PIM_ASSERT(block_addr % timing_.blockWords == 0,
               "fetch of unaligned block address");
    // Route from the pre-transaction residency: remote copy and lock
    // clusters must be consulted; memory (including a dirty victim's
    // writeback) is reached through the local cluster's bank port.
    const Route route = routeFor(requester, block_addr, true, true);
    const Cycles start = arbitrate(route, when);
    FetchResult result;

    stats_.cmdCounts[static_cast<int>(invalidate ? BusCmd::FI : BusCmd::F)]
        += 1;
    if (with_lock) {
        (void)lock_word; // LK rides along; word identity matters to snoop
                         // directories only at block granularity.
        stats_.cmdCounts[static_cast<int>(BusCmd::LK)] += 1;
    }

    if (lockCheck(requester, block_addr, start)) {
        // The reject pays only the lock clusters' hops, but the whole
        // reserved circuit stays held until the abort completes.
        const Cycles hop =
            routeFor(requester, block_addr, false, true).hop;
        const Cycles cost = timing_.lockRejectCycles();
        stats_.account(BusPattern::LockReject, cost, area, hop);
        release(route, start + cost + hop);
        result.lockHit = true;
        result.completeAt = start + cost + hop;
        if (sink_ != nullptr) {
            BusTxnEvent event;
            event.requester = requester;
            event.pattern = BusPattern::LockReject;
            event.area = area;
            event.blockAddr = block_addr;
            event.requestedAt = when;
            event.startedAt = start;
            event.completedAt = result.completeAt;
            event.cmd = invalidate ? BusCmd::FI : BusCmd::F;
            event.hasCmd = true;
            event.withLock = with_lock;
            event.lockHit = true;
            event.interClusterCycles = hop;
            emitTxn(event);
        }
        return result;
    }

    // Injected fault: an unrequested invalidation races ahead of the
    // fetch, silently nuking every remote copy (dirty data is lost).
    if (injector_ != nullptr && injector_->fire(FaultSite::SpuriousInv)) {
        residency_.forEachCopyHolder(block_addr, requester, [&](PeId pe) {
            ports_[pe].cache->snoopInvalidate(block_addr, start);
        });
    }

    // Snoop the copy holders in ascending PE order; the first one that
    // answers supplies the data (H response). A PE outside the mask
    // holds no copy, so it could neither supply nor change state.
    residency_.forEachCopyHolder(block_addr, requester, [&](PeId pe) {
        BusSnooper* cache = ports_[pe].cache;
        if (!result.supplied) {
            // Injected fault: this holder's snoop reply is lost — it
            // never sees the command, so its copy neither supplies nor
            // degrades.
            if (injector_ != nullptr && injector_->fire(FaultSite::DropSnoop))
                return;
            BusSnooper::FetchReply reply =
                cache->snoopFetch(block_addr, invalidate, data_out, start);
            if (reply.present && injector_ != nullptr &&
                injector_->fire(FaultSite::DupSnoop)) {
                // Injected fault: the snoop is delivered twice; the
                // second reply (now from a downgraded copy) wins, so a
                // dirty bit can silently vanish.
                reply = cache->snoopFetch(block_addr, invalidate, data_out,
                                          start);
            }
            if (reply.present) {
                result.supplied = true;
                result.supplierDirty = reply.dirty;
            }
        } else if (invalidate) {
            // A non-supplier copy may be the dirty (SM) owner; its
            // dirtiness migrates to the requester rather than vanishing.
            if (cache->snoopInvalidate(block_addr, start))
                result.supplierDirty = true;
        }
        // For plain F, non-supplier sharers keep their copies.
    });

    Cycles cost = 0;
    BusPattern pattern;
    if (result.supplied) {
        pattern = dirty_victim ? BusPattern::C2CVictim : BusPattern::C2C;
        cost = timing_.cacheToCacheCycles(dirty_victim);
    } else {
        memory_.readSpan(block_addr, timing_.blockWords, data_out);
        if (purgedDirtyMarked(block_addr))
            stats_.staleFetches += 1;
        stats_.memoryBusyCycles += timing_.memAccessCycles;
        stats_.memoryReads += 1;
        pattern = dirty_victim ? BusPattern::MemFetchVictim
                               : BusPattern::MemFetch;
        cost = timing_.swapInCycles(dirty_victim);
    }
    stats_.account(pattern, cost, area, route.hop);
    // Injected fault: one bit of the transferred block flips on the bus.
    if (injector_ != nullptr && injector_->fire(FaultSite::CorruptWord))
        injector_->flipBit(data_out, timing_.blockWords);
    release(route, start + cost + route.hop);
    result.completeAt = start + cost + route.hop;
    if (sink_ != nullptr) {
        BusTxnEvent event;
        event.requester = requester;
        event.pattern = pattern;
        event.area = area;
        event.blockAddr = block_addr;
        event.requestedAt = when;
        event.startedAt = start;
        event.completedAt = result.completeAt;
        event.cmd = invalidate ? BusCmd::FI : BusCmd::F;
        event.hasCmd = true;
        event.withLock = with_lock;
        event.supplied = result.supplied;
        event.supplierDirty = result.supplierDirty;
        event.dataBeats =
            timing_.blockTransferCycles() +
            (dirty_victim ? timing_.blockTransferCycles() : 0);
        event.interClusterCycles = route.hop;
        emitTxn(event);
    }
    return result;
}

InvalidateResult
Bus::invalidate(PeId requester, Addr block_addr, bool with_lock,
                Addr lock_word, Cycles when, Area area)
{
    PIM_ASSERT(block_addr % timing_.blockWords == 0,
               "invalidate of unaligned block address");
    const Route route =
        routeFor(requester, block_addr, true, with_lock);
    const Cycles start = arbitrate(route, when);
    InvalidateResult result;

    stats_.cmdCounts[static_cast<int>(BusCmd::I)] += 1;
    if (with_lock) {
        (void)lock_word;
        stats_.cmdCounts[static_cast<int>(BusCmd::LK)] += 1;
        // Only lock-carrying invalidations are answered by LH (the plain
        // I command is not in the paper's LH response list).
        if (lockCheck(requester, block_addr, start)) {
            const Cycles hop =
                routeFor(requester, block_addr, false, true).hop;
            const Cycles cost = timing_.lockRejectCycles();
            stats_.account(BusPattern::LockReject, cost, area, hop);
            release(route, start + cost + hop);
            result.lockHit = true;
            result.completeAt = start + cost + hop;
            if (sink_ != nullptr) {
                BusTxnEvent event;
                event.requester = requester;
                event.pattern = BusPattern::LockReject;
                event.area = area;
                event.blockAddr = block_addr;
                event.requestedAt = when;
                event.startedAt = start;
                event.completedAt = result.completeAt;
                event.cmd = BusCmd::I;
                event.hasCmd = true;
                event.withLock = true;
                event.lockHit = true;
                event.interClusterCycles = hop;
                emitTxn(event);
            }
            return result;
        }
    }

    residency_.forEachCopyHolder(block_addr, requester, [&](PeId pe) {
        if (ports_[pe].cache->snoopInvalidate(block_addr, start))
            result.droppedDirty = true;
    });
    const Cycles cost = timing_.invalidateCycles();
    stats_.account(BusPattern::Invalidate, cost, area, route.hop);
    release(route, start + cost + route.hop);
    result.completeAt = start + cost + route.hop;
    if (sink_ != nullptr) {
        BusTxnEvent event;
        event.requester = requester;
        event.pattern = BusPattern::Invalidate;
        event.area = area;
        event.blockAddr = block_addr;
        event.requestedAt = when;
        event.startedAt = start;
        event.completedAt = result.completeAt;
        event.cmd = BusCmd::I;
        event.hasCmd = true;
        event.withLock = with_lock;
        event.supplierDirty = result.droppedDirty;
        event.interClusterCycles = route.hop;
        emitTxn(event);
    }
    return result;
}

void
Bus::setPurgeMark(Addr block_addr, bool marked)
{
    const std::uint64_t index = blockIndexOf(block_addr);
    const std::uint64_t bit = 1ull << (index & 63);
    if (marked) {
        *purgeMarks_.touch(index >> 6) |= bit;
    } else if (std::uint64_t* word = purgeMarks_.find(index >> 6)) {
        *word &= ~bit;
    }
}

void
Bus::writeBackData(Addr block_addr, const Word* data)
{
    memory_.writeSpan(block_addr, timing_.blockWords, data);
    setPurgeMark(block_addr, false);
    stats_.memoryBusyCycles += timing_.memAccessCycles;
    stats_.memoryWrites += 1;
}

void
Bus::markPurgedDirty(Addr block_addr)
{
    setPurgeMark(block_addr, true);
}

void
Bus::noteFreshAllocation(Addr block_addr)
{
    setPurgeMark(block_addr, false);
}

void
Bus::clearPurgedMarks()
{
    purgeMarks_.clear();
}

Cycles
Bus::swapOutOnly(PeId requester, Addr victim_addr, const Word* data,
                 Cycles when, Area area)
{
    // Pure memory crossing: no cluster is snooped.
    const Route route = routeFor(requester, victim_addr, false, false);
    const Cycles start = arbitrate(route, when);
    writeBackData(victim_addr, data);
    const Cycles cost = timing_.swapOutOnlyCycles();
    stats_.account(BusPattern::SwapOutOnly, cost, area, route.hop);
    release(route, start + cost + route.hop);
    const Cycles complete = start + cost + route.hop;
    if (sink_ != nullptr) {
        BusTxnEvent event;
        event.requester = requester;
        event.pattern = BusPattern::SwapOutOnly;
        event.area = area;
        event.blockAddr = victim_addr;
        event.requestedAt = when;
        event.startedAt = start;
        event.completedAt = complete;
        event.dataBeats = timing_.blockTransferCycles();
        event.interClusterCycles = route.hop;
        emitTxn(event);
    }
    return complete;
}

Cycles
Bus::unlockBroadcast(PeId requester, Addr word_addr, Cycles when, Area area)
{
    // UL floods every cluster: parked PEs anywhere may be waiting on the
    // word. One-way hop cost — no replies are collected.
    Route route;
    route.local = clusters_.clusterOf(requester);
    route.remote = clusters_.allRemote(route.local);
    route.hop = route.remote != 0 ? clusters_.hopCycles() : 0;
    const Cycles start = arbitrate(route, when);
    stats_.cmdCounts[static_cast<int>(BusCmd::UL)] += 1;
    const Cycles cost = timing_.unlockCycles();
    stats_.account(BusPattern::Unlock, cost, area, route.hop);
    release(route, start + cost + route.hop);
    const Cycles complete = start + cost + route.hop;
    if (sink_ != nullptr) {
        BusTxnEvent event;
        event.requester = requester;
        event.pattern = BusPattern::Unlock;
        event.area = area;
        event.blockAddr = word_addr;
        event.requestedAt = when;
        event.startedAt = start;
        event.completedAt = complete;
        event.cmd = BusCmd::UL;
        event.hasCmd = true;
        event.interClusterCycles = route.hop;
        emitTxn(event);
    }
    if (unlockListener_ != nullptr)
        unlockListener_->onUnlockBroadcast(word_addr, complete);
    return complete;
}

Cycles
Bus::writeWordThrough(PeId requester, Addr word_addr, Word value,
                      Cycles when, Area area)
{
    const Addr block_addr = word_addr - word_addr % timing_.blockWords;
    // Copy clusters are invalidated and the word crosses to memory.
    const Route route = routeFor(requester, block_addr, true, false);
    const Cycles start = arbitrate(route, when);
    memory_.write(word_addr, value);
    setPurgeMark(block_addr, false);
    stats_.memoryBusyCycles += timing_.memAccessCycles;
    stats_.memoryWrites += 1;
    residency_.forEachCopyHolder(block_addr, requester, [&](PeId pe) {
        ports_[pe].cache->snoopInvalidate(block_addr, start);
    });
    const Cycles cost = timing_.wordWriteCycles();
    stats_.account(BusPattern::WordWrite, cost, area, route.hop);
    release(route, start + cost + route.hop);
    const Cycles complete = start + cost + route.hop;
    if (sink_ != nullptr) {
        BusTxnEvent event;
        event.requester = requester;
        event.pattern = BusPattern::WordWrite;
        event.area = area;
        event.blockAddr = block_addr;
        event.requestedAt = when;
        event.startedAt = start;
        event.completedAt = complete;
        event.dataBeats = 1;
        event.interClusterCycles = route.hop;
        emitTxn(event);
    }
    return complete;
}

UpdateResult
Bus::updateWord(PeId requester, Addr word_addr, Word value, Cycles when,
                Area area)
{
    const Addr block_addr = word_addr - word_addr % timing_.blockWords;
    const Route route = routeFor(requester, block_addr, true, false);
    const Cycles start = arbitrate(route, when);
    UpdateResult result;
    residency_.forEachCopyHolder(block_addr, requester, [&](PeId pe) {
        if (ports_[pe].cache->snoopUpdate(word_addr, value, start))
            result.sharerPresent = true;
    });
    const Cycles cost = timing_.wordUpdateCycles();
    stats_.account(BusPattern::WordUpdate, cost, area, route.hop);
    release(route, start + cost + route.hop);
    result.completeAt = start + cost + route.hop;
    if (sink_ != nullptr) {
        BusTxnEvent event;
        event.requester = requester;
        event.pattern = BusPattern::WordUpdate;
        event.area = area;
        event.blockAddr = block_addr;
        event.requestedAt = when;
        event.startedAt = start;
        event.completedAt = result.completeAt;
        event.dataBeats = 1;
        event.interClusterCycles = route.hop;
        emitTxn(event);
    }
    return result;
}

void
Bus::readMemoryBlock(Addr block_addr, Word* data_out) const
{
    memory_.readSpan(block_addr, timing_.blockWords, data_out);
}

void
Bus::writeMemoryBlock(Addr block_addr, const Word* data)
{
    memory_.writeSpan(block_addr, timing_.blockWords, data);
}

void
Bus::snapshotPurgeMarks(Addr lo, Addr hi,
                        std::vector<std::uint64_t>& out) const
{
    // The bitmap is block-index-ordered, so the range walk is already in
    // address order — no per-call vector rebuild and sort, which the
    // BFS explorer used to pay on every canonicalization.
    const std::size_t count_slot = out.size();
    out.push_back(0);
    std::uint64_t count = 0;
    const std::uint32_t block = timing_.blockWords;
    std::uint64_t index = blockIndexOf(lo + block - 1); // First base >= lo.
    for (; index * block < hi; ++index) {
        const std::uint64_t* word = purgeMarks_.find(index >> 6);
        if (word == nullptr) {
            // Skip an absent page or directory in one step.
            const std::uint64_t end = purgeMarks_.absentEnd(index >> 6);
            if (end > (hi - 1) / block / 64)
                break;
            index = end * 64 - 1;
            continue;
        }
        if (*word == 0) {
            // Skip the rest of an empty 64-block run in one step.
            index |= 63;
            continue;
        }
        if ((*word >> (index & 63) & 1) != 0) {
            out.push_back(index * block);
            ++count;
        }
    }
    out[count_slot] = count;
}

} // namespace pim
