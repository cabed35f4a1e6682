#include "obs/metrics.h"

#include <fstream>

#include "common/json.h"

namespace pim {

// -------------------------------------------------------------- Histogram

void
Histogram::record(std::uint64_t value)
{
    int bucket = 0;
    if (value > 0) {
        bucket = 1;
        while (bucket < kNumBuckets - 1 &&
               value >= (std::uint64_t{1} << bucket))
            ++bucket;
    }
    ++buckets_[bucket];
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
}

std::uint64_t
Histogram::bucketLow(int i)
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

void
Histogram::writeJson(JsonWriter& json) const
{
    json.beginObject();
    json.field("count", count_);
    json.field("sum", sum_);
    json.field("max", max_);
    json.field("mean", mean());
    json.key("buckets");
    json.beginArray();
    // Trailing all-zero buckets are elided to keep the files short.
    int last = kNumBuckets - 1;
    while (last > 0 && buckets_[last] == 0)
        --last;
    for (int i = 0; i <= last; ++i) {
        json.beginObject();
        json.field("ge", bucketLow(i));
        json.field("n", buckets_[i]);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

// -------------------------------------------------------- MetricsRegistry

std::uint64_t
MetricsRegistry::counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const Histogram*
MetricsRegistry::histogram(const std::string& name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::clear()
{
    counters_.clear();
    histograms_.clear();
    parkedAt_.clear();
    fillSeen_.clear();
}

void
MetricsRegistry::onBusTransaction(const BusTxnEvent& event)
{
    bump("bus.transactions");
    bump(std::string("bus.pattern.") + busPatternName(event.pattern));
    bump("bus.cycles", event.completedAt - event.startedAt);
    bump("bus.data_beats", event.dataBeats);
    if (event.lockHit)
        bump("bus.lock_rejects");
    histograms_["bus.acquire_wait_cycles"].record(event.startedAt -
                                                  event.requestedAt);
}

void
MetricsRegistry::onCacheTransition(PeId pe, Addr block_addr, CacheState from,
                                   CacheState to, Cycles when)
{
    (void)pe;
    (void)block_addr;
    (void)when;
    bump(std::string("cache.transition.") + cacheStateName(from) + "->" +
         cacheStateName(to));
}

void
MetricsRegistry::onCacheFill(PeId pe, Addr block_addr, bool from_cache,
                             bool dirty, Cycles when)
{
    (void)block_addr;
    (void)dirty;
    (void)when;
    bump(from_cache ? "fills.cache_to_cache" : "fills.memory");
    fillSeen_[pe] = true;
}

void
MetricsRegistry::onSwapOut(PeId pe, Addr block_addr, Cycles when)
{
    (void)pe;
    (void)block_addr;
    (void)when;
    bump("cache.swap_outs");
}

void
MetricsRegistry::onPurge(PeId pe, Addr block_addr, bool was_dirty,
                         Cycles when)
{
    (void)pe;
    (void)block_addr;
    (void)when;
    bump(was_dirty ? "cache.purges.dirty" : "cache.purges.clean");
}

void
MetricsRegistry::onLockTransition(PeId owner, Addr word_addr, LockState from,
                                  LockState to, Cycles when)
{
    (void)owner;
    (void)word_addr;
    (void)when;
    if (from == LockState::EMP && to == LockState::LCK)
        bump("locks.acquired");
    else if (to == LockState::EMP)
        bump("locks.released");
    else if (from == LockState::LCK && to == LockState::LWAIT)
        bump("locks.contended");
}

void
MetricsRegistry::onPark(PeId pe, Addr block_addr, Cycles when)
{
    (void)block_addr;
    bump("locks.parks");
    parkedAt_[pe] = when;
}

void
MetricsRegistry::onWake(PeId pe, Addr block_addr, Cycles when)
{
    (void)block_addr;
    bump("locks.wakes");
    const auto it = parkedAt_.find(pe);
    if (it != parkedAt_.end()) {
        histograms_["locks.wait_cycles"].record(when - it->second);
        parkedAt_.erase(it);
    }
}

void
MetricsRegistry::onAccessBegin(PeId pe, MemOp op, Addr addr, Area area,
                               Cycles when)
{
    (void)addr;
    (void)area;
    (void)when;
    bump("access.total");
    bump(std::string("access.op.") + memOpName(op));
    fillSeen_[pe] = false;
}

void
MetricsRegistry::onAccessEnd(PeId pe, MemOp op, Addr addr, Area area,
                             Cycles start, Cycles end, bool lock_wait)
{
    (void)op;
    (void)addr;
    if (lock_wait) {
        bump("access.lock_waited");
        return; // the retry after wake completes the operation
    }
    if (fillSeen_[pe]) {
        bump("access.misses");
        histograms_[std::string("miss.latency.") + areaName(area)]
            .record(end - start);
    }
}

void
MetricsRegistry::writeJson(JsonWriter& json) const
{
    json.beginObject();
    json.key("counters");
    json.beginObject();
    for (const auto& [name, value] : counters_)
        json.field(name, value);
    json.endObject();
    json.key("histograms");
    json.beginObject();
    for (const auto& [name, histogram] : histograms_) {
        json.key(name);
        histogram.writeJson(json);
    }
    json.endObject();
    json.endObject();
}

void
MetricsRegistry::write(std::ostream& os) const
{
    JsonWriter json(os, /*pretty=*/true);
    writeJson(json);
    os << "\n";
}

bool
MetricsRegistry::writeFile(const std::string& path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    write(out);
    return out.good();
}

} // namespace pim
