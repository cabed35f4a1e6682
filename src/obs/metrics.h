/**
 * @file
 * Counter/histogram metrics registry (docs/OBSERVABILITY.md).
 *
 * MetricsRegistry is an EventSink that aggregates mechanism-level events
 * into named counters and fixed-bucket histograms instead of recording
 * them individually: bus-acquisition latency, lock-wait durations, the
 * cache-to-cache vs memory fill share, and per-area miss latency. It is
 * cheap enough to stay attached for whole runs (the histograms are fixed
 * arrays; nothing grows with simulated time except the counters'
 * values), and writeJson() serializes everything for offline analysis.
 */

#ifndef PIMCACHE_OBS_METRICS_H_
#define PIMCACHE_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "obs/event_sink.h"

namespace pim {

class JsonWriter;

/**
 * Power-of-two-bucket histogram of cycle counts. Bucket 0 holds exact
 * zeros; bucket i (1..17) holds values in [2^(i-1), 2^i); the final
 * bucket is the >= 2^17 overflow. Tracks count, sum and max exactly.
 */
class Histogram
{
  public:
    static constexpr int kNumBuckets = 19;

    void record(std::uint64_t value);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }
    double mean() const { return count_ == 0 ? 0.0 : double(sum_) / count_; }
    std::uint64_t bucket(int i) const { return buckets_[i]; }

    /** Inclusive lower bound of bucket @p i (0, 1, 2, 4, ...). */
    static std::uint64_t bucketLow(int i);

    /** Serialize as {count, sum, max, mean, buckets: [...]}. */
    void writeJson(JsonWriter& json) const;

  private:
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/** EventSink aggregating events into counters and histograms. */
class MetricsRegistry final : public EventSink
{
  public:
    // -- Programmatic access ---------------------------------------------

    /** Counter value by name (0 if never incremented). */
    std::uint64_t counter(const std::string& name) const;

    /** Histogram by name (nullptr if never recorded to). */
    const Histogram* histogram(const std::string& name) const;

    /** Serialize all counters and histograms as one JSON object. */
    void writeJson(JsonWriter& json) const;

    /** writeJson() wrapped in a document, to @p os. */
    void write(std::ostream& os) const;

    /** write() to @p path. @return false if the file cannot be opened. */
    bool writeFile(const std::string& path) const;

    /** Forget everything recorded so far. */
    void clear();

    // -- EventSink ---------------------------------------------------------
    void onBusTransaction(const BusTxnEvent& event) override;
    void onCacheTransition(PeId pe, Addr block_addr, CacheState from,
                           CacheState to, Cycles when) override;
    void onCacheFill(PeId pe, Addr block_addr, bool from_cache, bool dirty,
                     Cycles when) override;
    void onSwapOut(PeId pe, Addr block_addr, Cycles when) override;
    void onPurge(PeId pe, Addr block_addr, bool was_dirty,
                 Cycles when) override;
    void onLockTransition(PeId owner, Addr word_addr, LockState from,
                          LockState to, Cycles when) override;
    void onPark(PeId pe, Addr block_addr, Cycles when) override;
    void onWake(PeId pe, Addr block_addr, Cycles when) override;
    void onAccessBegin(PeId pe, MemOp op, Addr addr, Area area,
                       Cycles when) override;
    void onAccessEnd(PeId pe, MemOp op, Addr addr, Area area, Cycles start,
                     Cycles end, bool lock_wait) override;

  private:
    void bump(const std::string& name, std::uint64_t by = 1)
    {
        counters_[name] += by;
    }

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;

    /** Per-PE park timestamp, to size locks.wait_cycles (~0 = not parked). */
    std::map<PeId, Cycles> parkedAt_;
    /** Per-PE flag: a fill happened inside the current access => miss. */
    std::map<PeId, bool> fillSeen_;
};

} // namespace pim

#endif // PIMCACHE_OBS_METRICS_H_
