/**
 * @file
 * Shared declarations of the perfbench binary: the exact per-run counts
 * every run is checked against, the sampled layer tracer, the synthetic
 * bus stream of the synth_bus workload, and the host record.
 *
 * The benchmark measures the simulator from outside: it times calls into
 * public functions (Emulator::run, System::access,
 * System::earliestRunnable) and reads the public statistics structs. No
 * simulator code is instrumented.
 */

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** splitmix64-style mixer for fingerprints. */
inline std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Every exact count of one simulation. Two runs of the same input on
 * the same code must produce equal Counts, traced or not; a run whose
 * Counts differ from its workload's reference run is a failed
 * simulation.
 */
struct Counts {
    std::uint64_t refs = 0;            ///< Completed references.
    std::uint64_t makespan = 0;        ///< Simulated cycles.
    std::uint64_t busCycles = 0;       ///< BusStats::totalCycles.
    std::uint64_t busTransactions = 0;
    std::uint64_t interClusterCycles = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t purges = 0;
    std::uint64_t lr = 0;              ///< CacheStats::lrCount.
    std::uint64_t lrHitExclusive = 0;  ///< Zero-bus lock hits.
    std::uint64_t lockOps = 0;         ///< Completed LR + UW + U.
    std::uint64_t pages = 0;           ///< PagedStore pages allocated.
    std::uint64_t reductions = 0;
    std::uint64_t instructions = 0;
    std::uint64_t suspensions = 0;
    std::uint64_t steals = 0;
    /** Hash of the program's answer (KL1) or the completion stream. */
    std::uint64_t fingerprint = 0;

    Counts& operator+=(const Counts& other);
    bool operator==(const Counts& other) const = default;
};

/** The simulator-side counts of @p system after a run. */
Counts systemCounts(const pim::System& system);

/**
 * The tracer's span clock: the CPU's time-stamp counter where there is
 * one (about half the cost of a steady_clock read on x86), the steady
 * clock's ticks elsewhere.
 */
inline std::uint64_t
readTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
#endif
}

/** Tick rate, measured at start-up against the steady clock. */
struct TickClock {
    double ticksPerNs = 1;

    static TickClock calibrate();
};

/** The host intervals the tracer samples. */
enum class Span : int {
    Hit,  ///< One System::access that raised no bus transaction.
    Bus,  ///< One System::access that raised at least one.
    Gap,  ///< From one access's end to the next access's start.
    Scan, ///< LayerTracer::kScanCalls earliestRunnable() calls.
    /**
     * Two back-to-back stamps inside a hook: the tracer's own cost in
     * every interval it closes, measured where the intervals are.
     */
    Empty,
    None, ///< A read that closes no sampled interval.
};

inline constexpr int kNumSpans = 5;

/** Sampled host ticks and exact hook counts, summed over traced runs. */
struct TraceTotals {
    std::uint64_t accesses = 0;     ///< System::access calls.
    std::uint64_t busAccesses = 0;  ///< ...that raised a bus transaction.
    std::uint64_t gaps = 0;         ///< Intervals between two accesses.
    std::uint64_t lockRejects = 0;  ///< Accesses that lock-waited.
    std::uint64_t parks = 0;
    std::uint64_t dataTxns = 0;     ///< Bus transactions carrying data.
    std::uint64_t supplied = 0;     ///< ...supplied cache-to-cache.
    std::uint64_t waitCycles = 0;   ///< Sum of startedAt - requestedAt.

    std::uint64_t spanTicks[kNumSpans] = {};
    std::uint64_t spanSamples[kNumSpans] = {};
    std::uint64_t clockReads = 0;   ///< Tick reads inside the hooks.
    /**
     * Intervals counted as measured instead of extrapolated: every scan
     * probe, and every sampled interval longer than
     * LayerTracer::kOutlierNs. A one-off stall of tens of ms (one access
     * of each wide128 run takes that long) would otherwise count
     * kSampleEvery times over in the projection.
     */
    std::uint64_t exactTicks = 0;
    std::uint64_t exactSpans = 0;

    void merge(const TraceTotals& other);

    /** Ticks of the tracer's own cost inside one interval. */
    double emptyTicks() const;

    /** Mean ns of one sampled @p span, less the tracer's cost in it. */
    double meanNs(Span span, const TickClock& clock) const;

    /** Accesses that raised no bus transaction. */
    std::uint64_t hitAccesses() const { return accesses - busAccesses; }

    /** Host ns the sampled spans project for the whole traced runs. */
    double projectedNs(const TickClock& clock) const;
};

/**
 * Brackets every System::access with the AccessObserver hooks and
 * counts bus transactions and parks through the EventSink hooks. One
 * access in kSampleEvery (chosen pseudo-randomly, so the sample cannot
 * alias with a periodic reference pattern) is timed, together with the
 * host interval that follows it up to the next access; one timed access
 * in kProbeEvery also times an empty interval and kScanCalls back-to-back
 * earliestRunnable() calls. Attach one tracer to one System
 * (addAccessObserver and addEventSink), and keep it alive as long as
 * that System.
 */
class LayerTracer final : public pim::AccessObserver, public pim::EventSink
{
  public:
    static constexpr std::uint32_t kSampleEvery = 16;
    static constexpr std::uint32_t kProbeEvery = 16;
    static constexpr std::uint32_t kScanCalls = 8;
    static constexpr double kOutlierNs = 200e3;

    LayerTracer(const pim::System& system, const TickClock& clock);

    const TraceTotals& totals() const { return totals_; }

    void beforeAccess(pim::PeId pe, pim::MemOp op, pim::Addr addr,
                      pim::Area area) override;
    void afterAccess(pim::PeId pe, pim::MemOp op, pim::Addr addr,
                     pim::Area area, pim::Word data, pim::Word wdata,
                     bool lock_wait) override;
    void onBusTransaction(const pim::BusTxnEvent& event) override;
    void onPark(pim::PeId pe, pim::Addr block_addr,
                pim::Cycles when) override;

  private:
    /** Read the ticks, closing the open interval as a @p span sample. */
    std::uint64_t stamp(Span span);

    /** Account the interval since @p start as exact. */
    void addExact(std::uint64_t start, std::uint64_t end);

    /** Time an empty interval, then kScanCalls earliestRunnable() calls. */
    void probe();

    const pim::System& system_;
    std::uint64_t outlierTicks_;
    std::uint64_t rng_ = 0x2545f4914f6cdd1dULL;
    TraceTotals totals_;
    std::uint32_t txnsThisAccess_ = 0;
    bool sampled_ = false;        ///< The current (or last) access is.
    std::uint32_t sampledAccesses_ = 0;
    std::uint64_t lastTick_ = 0;  ///< Start of the open interval.
};

/** Shape of the synth_bus stream. */
struct SynthShape {
    std::uint32_t pes = 8;
    std::uint64_t refsPerPe = 250000;
    /** Shared span; far larger than a 4K-word cache. */
    std::uint32_t spanWords = 32768;
    std::uint32_t writePct = 70;  ///< Of plain span references.
    std::uint32_t lockPct = 4;    ///< LR, or UW/U when holding a lock.
    std::uint32_t optPct = 30;    ///< DW, or ER/RP of a neighbour's record.
    std::uint32_t recordBlocks = 16384; ///< The DW record ring.
};

/** One pre-generated reference of a PE's stream. */
struct SynthOp {
    std::uint32_t addr = 0;
    pim::MemOp op = pim::MemOp::R;
};

/** Per-PE reference streams plus the address map they need. */
struct SynthStream {
    SynthShape shape;
    std::uint64_t seed = 0;
    std::vector<std::vector<SynthOp>> perPe;
    std::uint64_t memoryWords = 0;
};

/** Generate the synth_bus stream of @p shape from @p seed. */
SynthStream makeSynthStream(const SynthShape& shape, std::uint64_t seed);

/** The System the stream runs on: paper caches, single bus. */
pim::SystemConfig synthSystemConfig(const SynthStream& stream);

/**
 * Drive @p stream through System::access, always stepping the earliest
 * runnable PE and retrying lock-waited references after their wakeup.
 * Returns the fingerprint of the completion order (pe, op, addr, data).
 * Throws SimFault on a deadline (the caller's RunGuard) or a deadlock.
 */
std::uint64_t driveSynth(pim::System& system, const SynthStream& stream);

/** Where and how the benchmark was built and runs. */
struct HostInfo {
    unsigned nproc = 0;
    std::string cpu;
    std::string compiler;
    std::string buildType;
    bool sanitized = false;
};

HostInfo probeHost();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H_
