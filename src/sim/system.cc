#include "sim/system.h"

#include <algorithm>
#include <bit>
#include <exception>

#include "common/rng.h"
#include "common/sim_fault.h"
#include "common/xassert.h"

namespace pim {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v >= 1 && (v & (v - 1)) == 0;
}

/** The bus moves whole cache blocks: its block size follows the cache. */
SystemConfig
withSyncedTiming(SystemConfig config)
{
    config.timing.blockWords = config.cache.geometry.blockWords;
    return config;
}

/** validate() at construction, so a bad config never reaches the model. */
SystemConfig
validated(SystemConfig config)
{
    config.validate();
    return config;
}

} // namespace

void
SystemConfig::validate() const
{
    if (numPes < 1)
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "numPes must be >= 1 (got ", numPes, ")");
    const CacheGeometry& geom = cache.geometry;
    if (!isPowerOfTwo(geom.blockWords))
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "cache blockWords must be a power of two (got ",
                            geom.blockWords, ")");
    if (geom.blockWords > 64)
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "cache blockWords must be <= 64 (got ",
                            geom.blockWords,
                            "); the bus moves whole blocks");
    if (!isPowerOfTwo(geom.sets))
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "cache sets must be a power of two (got ",
                            geom.sets, ")");
    if (geom.ways < 1)
        throw PIM_SIM_FAULT(SimFaultKind::Config, "cache ways must be >= 1");
    if (timing.widthWords < 1)
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "bus widthWords must be >= 1");
    if (cache.lockEntries < 1)
        throw PIM_SIM_FAULT(SimFaultKind::Config,
                            "lockEntries must be >= 1; the KL1 engine "
                            "needs at least one busy-wait lock");
    if (memoryWords == 0)
        throw PIM_SIM_FAULT(SimFaultKind::Config, "memoryWords must be > 0");
    if (memoryWords % geom.blockWords != 0)
        throw PIM_SIM_FAULT(SimFaultKind::Config, "memoryWords (",
                            memoryWords,
                            ") must be a multiple of the cache block size (",
                            geom.blockWords, " words)");
    if (numPes > ResidencyFilter::kMaxMaskWords * 64)
        throw PIM_SIM_FAULT(SimFaultKind::Config, "numPes (", numPes,
                            ") exceeds the residency filter's ",
                            ResidencyFilter::kMaxMaskWords * 64,
                            "-PE mask limit");
    if (cluster.clustered() && cluster.clustersFor(numPes) > 64)
        throw PIM_SIM_FAULT(
            SimFaultKind::Config, "clusterSize ", cluster.clusterSize,
            " partitions ", numPes, " PEs into ",
            cluster.clustersFor(numPes),
            " clusters; a route's remote-cluster mask holds at most 64");
}

void
SystemConfig::validate(std::uint64_t required_words) const
{
    validate();
    if (memoryWords < required_words)
        throw PIM_SIM_FAULT(SimFaultKind::Config, "memoryWords (",
                            memoryWords, ") does not cover the ",
                            required_words,
                            " words required by the address-space layout");
}

System::System(const SystemConfig& config)
    : config_(validated(withSyncedTiming(config))),
      memory_(config.memoryWords),
      bus_(std::make_unique<Bus>(config_.timing, memory_, config_.cluster)),
      clock_(config.numPes, 0),
      parkedOn_(config.numPes, kNoAddr),
      retired_(config.numPes, 0),
      leaves_(std::bit_ceil(std::size_t{config.numPes})),
      sched_(2 * leaves_, kOffKey)
{
    caches_.reserve(config_.numPes);
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        caches_.push_back(
            std::make_unique<PimCache>(pe, config_.cache, *bus_));
    }
    bus_->setUnlockListener(this);
    for (PeId pe = 0; pe < config_.numPes; ++pe)
        reschedule(pe);
}

System::~System()
{
    // A parked PE at teardown means a driver dropped a lockWait=true
    // access without retrying it — the busy-wait never resolved and the
    // run's statistics silently miss the reference. Skip the check while
    // an exception unwinds (e.g. a SimFault thrown out of access()).
    if (std::uncaught_exceptions() == 0) {
        for (PeId pe = 0; pe < config_.numPes; ++pe) {
            PIM_ASSERT(parkedOn_[pe] == kNoAddr, "pe", pe,
                       " still parked on block ", parkedOn_[pe],
                       " at System teardown; the driver leaked a lock "
                       "wait (see System::pendingWaiters)");
        }
    }
}

System::Access
System::access(PeId pe, MemOp op, Addr addr, Area area, Word wdata)
{
    PIM_ASSERT(pe < config_.numPes);
    PIM_ASSERT(!parked(pe), "pe", pe, " stepped while busy-waiting");
    PIM_ASSERT(retired_[pe] == 0, "pe", pe, " stepped after retiring");

    // Cooperative deadline: polled before any state changes, so a
    // Timeout fault never leaves a half-done access behind. The poll is
    // a counter increment except on every stride-th reference
    // (common/deadline.h).
    if (guard_ != nullptr)
        guard_->poll();

    MemRef ref;
    ref.pe = pe;
    ref.addr = addr;
    ref.area = area;
    ref.op = config_.policy.apply(area, op);

    // Observer/sink hooks pay one emptiness/null test when detached —
    // the common case on the measured hot path (docs/PERFORMANCE.md).
    if (!observers_.empty()) {
        for (AccessObserver* obs : observers_)
            obs->beforeAccess(pe, ref.op, addr, area);
    }

    const Cycles startedAt = clock_[pe];
    if (sink_ != nullptr)
        sink_->onAccessBegin(pe, ref.op, addr, area, startedAt);

    const PimCache::AccessResult result =
        caches_[pe]->access(ref, wdata, startedAt);
    clock_[pe] = result.doneAt;
    reschedule(pe);

    // Close the operation before the observers run: an auditor throwing
    // SimFault out of afterAccess must not leave the event dangling.
    if (sink_ != nullptr)
        sink_->onAccessEnd(pe, ref.op, addr, area, startedAt, result.doneAt,
                           result.lockWait);

    Access out;
    if (result.lockWait) {
        park(pe, result.waitAddr, result.doneAt);
        out.lockWait = true;
    } else {
        refStats_.record(ref);
        if (refObserver_)
            refObserver_(ref);
        out.data = result.data;
    }

    if (!observers_.empty()) {
        for (AccessObserver* obs : observers_) {
            obs->afterAccess(pe, ref.op, addr, area, out.data, wdata,
                             out.lockWait);
        }
    }

    // Injected fault: a glitch on the UL line wakes every parked PE with
    // no lock actually released; they retry, hit LH again and re-park.
    // Combined with StuckLwait ghosts this produces genuine livelock.
    if (injector_ != nullptr &&
        injector_->fire(FaultSite::SpuriousWakeup)) {
        for (PeId waiter = 0; waiter < config_.numPes; ++waiter) {
            if (parkedOn_[waiter] != kNoAddr)
                wake(waiter, parkedOn_[waiter], clock_[pe]);
        }
        waitersByBlock_.clear();
    }
    return out;
}

void
System::park(PeId pe, Addr block, Cycles when)
{
    parkedOn_[pe] = block;
    reschedule(pe);
    std::vector<PeId>& waiters = waitersByBlock_[block];
    waiters.insert(std::upper_bound(waiters.begin(), waiters.end(), pe),
                   pe);
    if (sink_ != nullptr)
        sink_->onPark(pe, block, when);
}

void
System::wake(PeId pe, Addr block, Cycles at_least)
{
    parkedOn_[pe] = kNoAddr;
    clock_[pe] = std::max(clock_[pe], at_least);
    reschedule(pe);
    if (sink_ != nullptr)
        sink_->onWake(pe, block, clock_[pe]);
}

void
System::setFaultInjector(FaultInjector* injector)
{
    injector_ = injector;
    bus_->setFaultInjector(injector);
    for (auto& cache : caches_)
        cache->setFaultInjector(injector);
}

void
System::addEventSink(EventSink* sink)
{
    sinkMux_.add(sink);
    if (sink_ == nullptr) {
        // First registration: wire every component to the mux.
        sink_ = &sinkMux_;
        bus_->setEventSink(&sinkMux_);
        for (auto& cache : caches_)
            cache->setEventSink(&sinkMux_);
    }
}

std::vector<PeId>
System::pendingWaiters() const
{
    std::vector<PeId> waiters;
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        if (parkedOn_[pe] != kNoAddr)
            waiters.push_back(pe);
    }
    return waiters;
}

void
System::abandonParkedWaiters()
{
    for (PeId pe = 0; pe < config_.numPes; ++pe) {
        if (parkedOn_[pe] != kNoAddr) {
            parkedOn_[pe] = kNoAddr;
            reschedule(pe);
        }
    }
    waitersByBlock_.clear();
}

void
System::retire(PeId pe)
{
    PIM_ASSERT(!parked(pe), "pe", pe, " retired while busy-waiting");
    retired_[pe] = 1;
    reschedule(pe);
}

void
System::rewindClock(PeId pe, Cycles to)
{
    PIM_ASSERT(to <= clock_[pe], "pe", pe, " rewound forward to ", to);
    clock_[pe] = to;
    reschedule(pe);
}

std::vector<std::uint64_t>
System::protocolSnapshot(Addr lo, Addr hi) const
{
    std::vector<std::uint64_t> out;
    out.push_back(hi - lo);
    for (Addr addr = lo; addr < hi; ++addr)
        out.push_back(memory_.read(addr));
    for (PeId pe = 0; pe < config_.numPes; ++pe)
        caches_[pe]->snapshotState(lo, hi, out);
    bus_->snapshotPurgeMarks(lo, hi, out);
    for (PeId pe = 0; pe < config_.numPes; ++pe)
        out.push_back(parkedOn_[pe]);
    return out;
}

std::uint64_t
System::protocolHash(Addr lo, Addr hi) const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t v : protocolSnapshot(lo, hi))
        h = hashMix(h, v);
    return h;
}

Cycles
System::makespan() const
{
    Cycles max = 0;
    for (Cycles c : clock_)
        max = std::max(max, c);
    return max;
}

void
System::flushAllCaches()
{
    for (auto& cache : caches_)
        cache->flushAll();
    bus_->clearPurgedMarks();
}

CacheStats
System::totalCacheStats() const
{
    CacheStats total;
    for (const auto& cache : caches_)
        total.merge(cache->stats());
    return total;
}

HostFootprint
System::hostFootprint() const
{
    const auto of = [](const PageTable& table) {
        return TableFootprint{table.pages(), table.bytes()};
    };
    return {of(memory_.table()), of(bus_->residency().copyTable()),
            of(bus_->residency().lockTable()), of(bus_->purgeMarkTable())};
}

void
System::onUnlockBroadcast(Addr word_addr, Cycles when)
{
    const Addr block = word_addr - word_addr % config_.timing.blockWords;
    // O(waiters) wakeup via the block -> waiters index (the old code
    // scanned every PE per UL). The vector is ascending, preserving the
    // PE-order wakeup of the scan it replaces.
    const auto it = waitersByBlock_.find(block);
    if (it == waitersByBlock_.end())
        return;
    for (PeId pe : it->second)
        wake(pe, block, when);
    waitersByBlock_.erase(it);
}

} // namespace pim
