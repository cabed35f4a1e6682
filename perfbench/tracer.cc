#include <algorithm>
#include <vector>

#include "perfbench.h"

namespace perfbench {

using namespace pim;

Counts&
Counts::operator+=(const Counts& other)
{
    refs += other.refs;
    makespan += other.makespan;
    busCycles += other.busCycles;
    busTransactions += other.busTransactions;
    interClusterCycles += other.interClusterCycles;
    cacheAccesses += other.cacheAccesses;
    cacheMisses += other.cacheMisses;
    swapOuts += other.swapOuts;
    purges += other.purges;
    lr += other.lr;
    lrHitExclusive += other.lrHitExclusive;
    lockOps += other.lockOps;
    pages += other.pages;
    reductions += other.reductions;
    instructions += other.instructions;
    suspensions += other.suspensions;
    steals += other.steals;
    fingerprint = mix(fingerprint, other.fingerprint);
    return *this;
}

Counts
systemCounts(const System& system)
{
    Counts c;
    const RefStats& refs = system.refStats();
    c.refs = refs.total();
    c.lockOps = refs.opTotal(MemOp::LR) + refs.opTotal(MemOp::UW) +
                refs.opTotal(MemOp::U);
    c.makespan = system.makespan();
    const BusStats& bus = system.bus().stats();
    c.busCycles = bus.totalCycles;
    for (int p = 0; p < kNumBusPatterns; ++p)
        c.busTransactions += bus.transByPattern[p];
    c.interClusterCycles = bus.interClusterCycles;
    const CacheStats cache = system.totalCacheStats();
    c.cacheAccesses = cache.accesses;
    c.cacheMisses = cache.misses;
    c.swapOuts = cache.swapOuts;
    c.purges = cache.purges;
    c.lr = cache.lrCount;
    c.lrHitExclusive = cache.lrHitExclusive;
    c.pages = system.memory().pagesAllocated();
    return c;
}

void
TraceTotals::merge(const TraceTotals& other)
{
    accesses += other.accesses;
    busAccesses += other.busAccesses;
    gaps += other.gaps;
    lockRejects += other.lockRejects;
    parks += other.parks;
    dataTxns += other.dataTxns;
    supplied += other.supplied;
    waitCycles += other.waitCycles;
    for (int i = 0; i < kNumSpans; ++i) {
        spanTicks[i] += other.spanTicks[i];
        spanSamples[i] += other.spanSamples[i];
    }
    clockReads += other.clockReads;
    exactTicks += other.exactTicks;
    exactSpans += other.exactSpans;
}

double
TraceTotals::emptyTicks() const
{
    const int i = static_cast<int>(Span::Empty);
    return spanSamples[i] == 0 ? 0.0
                               : static_cast<double>(spanTicks[i]) /
                                     static_cast<double>(spanSamples[i]);
}

double
TraceTotals::meanNs(Span span, const TickClock& clock) const
{
    const int i = static_cast<int>(span);
    if (spanSamples[i] == 0)
        return 0;
    const double per = static_cast<double>(spanTicks[i]) /
                       static_cast<double>(spanSamples[i]);
    return std::max(0.0, per - emptyTicks()) / clock.ticksPerNs;
}

double
TraceTotals::projectedNs(const TickClock& clock) const
{
    // Each interval carries one empty interval's worth of tracer cost;
    // that cost is paid once per stamp, sampled or exact.
    const double exact = static_cast<double>(exactTicks) -
                         emptyTicks() * static_cast<double>(exactSpans);
    const double stamps = emptyTicks() * static_cast<double>(clockReads);
    return meanNs(Span::Hit, clock) * static_cast<double>(hitAccesses()) +
           meanNs(Span::Bus, clock) * static_cast<double>(busAccesses) +
           meanNs(Span::Gap, clock) * static_cast<double>(gaps) +
           (exact + stamps) / clock.ticksPerNs;
}

TickClock
TickClock::calibrate()
{
    TickClock clock;
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t k0 = readTicks();
    Clock::time_point t1 = t0;
    while (secondsBetween(t0, t1) < 0.02)
        t1 = Clock::now();
    const std::uint64_t k1 = readTicks();
    clock.ticksPerNs = static_cast<double>(k1 - k0) /
                       std::chrono::duration<double, std::nano>(t1 - t0)
                           .count();
    return clock;
}

LayerTracer::LayerTracer(const System& system, const TickClock& clock)
    : system_(system),
      outlierTicks_(static_cast<std::uint64_t>(kOutlierNs * clock.ticksPerNs))
{
}

// Every read goes through this one out-of-line function, so every
// interval carries the same tracer cost, which the Empty span measures.
[[gnu::noinline]] std::uint64_t
LayerTracer::stamp(Span span)
{
    const std::uint64_t now = readTicks();
    ++totals_.clockReads;
    if (span != Span::None) {
        if (now - lastTick_ > outlierTicks_) {
            addExact(lastTick_, now);
        } else {
            totals_.spanTicks[static_cast<int>(span)] += now - lastTick_;
            ++totals_.spanSamples[static_cast<int>(span)];
        }
    }
    lastTick_ = now;
    return now;
}

void
LayerTracer::addExact(std::uint64_t start, std::uint64_t end)
{
    totals_.exactTicks += end - start;
    ++totals_.exactSpans;
}

void
LayerTracer::probe()
{
    const std::uint64_t start = stamp(Span::None);
    stamp(Span::Empty);
    volatile PeId sink = kNoPe;
    for (std::uint32_t i = 0; i < kScanCalls; ++i)
        sink = system_.earliestRunnable();
    (void)sink;
    addExact(start, stamp(Span::Scan));
}

void
LayerTracer::beforeAccess(PeId, MemOp, Addr, Area)
{
    totals_.gaps += totals_.accesses != 0;
    ++totals_.accesses;
    txnsThisAccess_ = 0;

    // xorshift64: a sampling decision that no reference pattern aliases.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const bool gap_open = sampled_;
    sampled_ = rng_ % kSampleEvery == 0;
    if (gap_open || sampled_)
        stamp(gap_open ? Span::Gap : Span::None);
}

void
LayerTracer::afterAccess(PeId, MemOp, Addr, Area, Word, Word, bool lock_wait)
{
    totals_.lockRejects += lock_wait;
    const bool bus = txnsThisAccess_ != 0;
    if (sampled_) {
        stamp(bus ? Span::Bus : Span::Hit);
        if (++sampledAccesses_ % kProbeEvery == 0)
            probe();
    }
    totals_.busAccesses += bus;
}

void
LayerTracer::onBusTransaction(const BusTxnEvent& event)
{
    ++txnsThisAccess_;
    totals_.waitCycles += event.startedAt - event.requestedAt;
    if (event.dataBeats != 0) {
        ++totals_.dataTxns;
        totals_.supplied += event.supplied;
    }
}

void
LayerTracer::onPark(PeId, Addr, Cycles)
{
    ++totals_.parks;
}

} // namespace perfbench
