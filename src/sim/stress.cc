#include "sim/stress.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "fault/fault_injector.h"
#include "obs/attribution.h"
#include "obs/timeline.h"
#include "sim/ref_source.h"
#include "sim/system.h"
#include "trace/trace_file.h"
#include "verify/coherence_auditor.h"

namespace pim {

namespace {

/**
 * Largest shared memory a stress run sizes: 2^34 words, a 32 MiB page
 * table. The record area takes one block per step, so a --steps (or
 * --span) past it is refused before anything is allocated.
 */
constexpr std::uint64_t kMaxMemoryWords = 1ull << 34;

/** One PE's driver state. */
struct PeState {
    std::deque<Addr> heldLocks; ///< Acquired lock words, oldest first.
};

/**
 * The stress workload as a RefSource. Every random decision draws from
 * ONE shared RNG in global simulation order: runRefSource calls next()
 * for the (clock, pe)-minimal PE only after selecting it, and retries
 * lock-rejected operations without a new pull.
 *
 * Two phases, switched on the global completion counter: the main phase
 * generates traffic until config.steps references completed; the drain
 * phase releases held locks (plain U, no RNG draws) and ends each PE's
 * stream, so every parked PE is woken before teardown. The run
 * fingerprint covers exactly the main-phase completions.
 */
class GlobalStressSource : public RefSource
{
  public:
    GlobalStressSource(const StressConfig& config, const System& system,
                       LockWatchdog& watchdog, Addr span, Addr lock_base,
                       std::uint32_t lock_words, Addr rec_base)
        : config_(config),
          system_(system),
          watchdog_(watchdog),
          span_(span),
          lockBase_(lock_base),
          lockWords_(lock_words),
          rng_(config.seed),
          pes_(config.numPes),
          nextRecord_(rec_base)
    {
    }

    std::uint64_t completedRefs() const { return completed_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    bool
    next(PeId pe, SourceOp* out) override
    {
        PeState& state = pes_[pe];
        out->area = Area::Heap;
        out->wdata = 0;
        if (completed_ >= config_.steps) {
            // Drain phase: release held locks, then end the stream.
            if (state.heldLocks.empty())
                return false;
            out->op = MemOp::U;
            out->addr = state.heldLocks.front();
            return true;
        }
        const std::uint64_t roll = rng_.below(100);
        if (roll < config_.lockPct) {
            // Acquirable words: lock words this PE does not hold.
            std::vector<Addr> candidates;
            if (state.heldLocks.size() <
                system_.config().cache.lockEntries) {
                for (std::uint32_t w = 0; w < lockWords_; ++w) {
                    const Addr word = lockBase_ + w;
                    if (std::find(state.heldLocks.begin(),
                                  state.heldLocks.end(),
                                  word) == state.heldLocks.end()) {
                        candidates.push_back(word);
                    }
                }
            }
            if (candidates.empty() ||
                (!state.heldLocks.empty() && rng_.chance(1, 2))) {
                out->addr = state.heldLocks.front();
                if (rng_.chance(1, 2)) {
                    out->op = MemOp::UW;
                    out->wdata = rng_.next();
                } else {
                    out->op = MemOp::U;
                }
            } else {
                out->op = MemOp::LR;
                out->addr = candidates[rng_.below(candidates.size())];
            }
        } else if (roll < config_.lockPct + config_.optPct) {
            if (!records_.empty() && rng_.chance(1, 2)) {
                out->addr = records_.front();
                records_.pop_front();
                // ER of a non-last word read-invalidates the
                // producer; RP reads then purges.
                out->op = rng_.chance(1, 2) ? MemOp::ER : MemOp::RP;
            } else {
                out->op = MemOp::DW;
                out->addr = nextRecord_;
                nextRecord_ += config_.blockWords;
                out->wdata = rng_.next();
            }
        } else {
            out->addr = rng_.below(span_);
            if (rng_.chance(config_.writePct, 100)) {
                out->op = MemOp::W;
                out->wdata = rng_.next();
            } else {
                out->op = MemOp::R;
            }
        }
        return true;
    }

    void
    complete(PeId pe, const SourceOp& op, Word data) override
    {
        PeState& state = pes_[pe];
        if (op.op == MemOp::LR)
            state.heldLocks.push_back(op.addr);
        else if (op.op == MemOp::UW || op.op == MemOp::U)
            state.heldLocks.pop_front();
        if (op.op == MemOp::DW)
            records_.push_back(op.addr);
        if (completed_ < config_.steps) {
            fingerprint_ = hashMix(fingerprint_,
                                   (static_cast<std::uint64_t>(pe) << 8) |
                                       static_cast<std::uint64_t>(op.op));
            fingerprint_ = hashMix(fingerprint_, op.addr);
            fingerprint_ = hashMix(fingerprint_, data);
        }
        completed_ += 1;
    }

    void onStall() override { watchdog_.reportStall(); }

  private:
    const StressConfig& config_;
    const System& system_;
    LockWatchdog& watchdog_;
    const Addr span_;
    const Addr lockBase_;
    const std::uint32_t lockWords_;
    Rng rng_; ///< The one shared stream, drawn in global order.
    std::vector<PeState> pes_;
    std::deque<Addr> records_; ///< Produced, not yet consumed records.
    Addr nextRecord_;
    std::uint64_t completed_ = 0;
    std::uint64_t fingerprint_ = 0;
};

} // namespace

std::string
StressConfig::geometryString() const
{
    std::ostringstream out;
    out << blockWords << "x" << ways << "x" << sets;
    return out.str();
}

void
StressConfig::setGeometry(const std::string& spec)
{
    const std::vector<std::string> parts = splitString(spec, 'x');
    std::uint64_t values[3];
    if (parts.size() == 3) {
        bool ok = true;
        for (int i = 0; i < 3; ++i) {
            try {
                values[i] = std::stoull(parts[i]);
            } catch (const std::exception&) {
                ok = false;
            }
        }
        if (ok) {
            blockWords = static_cast<std::uint32_t>(values[0]);
            ways = static_cast<std::uint32_t>(values[1]);
            sets = static_cast<std::uint32_t>(values[2]);
            return;
        }
    }
    throw PIM_SIM_FAULT(SimFaultKind::Config, "bad geometry '", spec,
                        "'; expected BLOCKxWAYSxSETS, e.g. 4x2x64");
}

std::string
StressConfig::replayLine() const
{
    std::ostringstream out;
    out << "pim_stress"
        << " --seed=" << seed
        << " --pes=" << numPes
        << " --geometry=" << geometryString()
        << " --steps=" << steps
        << " --span=" << spanWords
        << " --write-pct=" << writePct
        << " --lock-pct=" << lockPct
        << " --opt-pct=" << optPct
        << " --starvation-bound=" << watchdog.starvationBound
        << " --livelock-retries=" << watchdog.livelockRetries;
    if (!planSpec.empty())
        out << " --plan=" << planSpec;
    if (clusterSize != 0)
        out << " --cluster-size=" << clusterSize
            << " --hop-cycles=" << hopCycles;
    return out.str();
}

StressResult
runStress(const StressConfig& config)
{
    StressResult result;

    // The machine is validated before the address map divides by its
    // block size; the System validates it again with its memory sized.
    SystemConfig sys_config;
    sys_config.numPes = config.numPes;
    sys_config.cache.geometry.blockWords = config.blockWords;
    sys_config.cache.geometry.ways = config.ways;
    sys_config.cache.geometry.sets = config.sets;
    sys_config.cluster.clusterSize = config.clusterSize;
    sys_config.cluster.hopCycles = config.hopCycles;
    sys_config.validate();

    // Address map (word addresses): [0, span) shared read/write region;
    // [lockBase, lockBase+lockWords) contended lock words; [recBase, ...)
    // bump-allocated single-use records for the DW -> ER/RP flow.
    // The span and the step count are bounded by the cap before they
    // are summed, so no size below wraps.
    const std::uint64_t block = config.blockWords;
    const auto refuse = [&] {
        return PIM_SIM_FAULT(SimFaultKind::Config, "--steps=", config.steps,
                             " --span=", config.spanWords,
                             " need more shared memory than a stress "
                             "run's cap of ", kMaxMemoryWords,
                             " words (2^34)");
    };
    if (config.spanWords > kMaxMemoryWords ||
        config.steps > kMaxMemoryWords / block)
        throw refuse();
    const Addr span =
        std::max<Addr>(block, config.spanWords / block * block);
    const Addr lock_base = span;
    const std::uint32_t lock_words =
        std::max<std::uint32_t>(1, config.numPes / 2);
    const Addr rec_base = (lock_base + lock_words + block - 1) / block * block;
    // Room for steps + 1 records and one spare block.
    sys_config.memoryWords = rec_base + (config.steps + 2) * block;
    if (sys_config.memoryWords > kMaxMemoryWords)
        throw refuse();

    const FaultPlan plan = FaultPlan::parse(config.planSpec);
    FaultInjector injector(plan, config.seed);

    System system(sys_config);
    system.setFaultInjector(plan.empty() ? nullptr : &injector);

    // Bounded execution: the guard is polled on every access, so a
    // livelocked or pathologically slow run raises SimFault(Timeout)
    // into the catch below instead of wedging the caller's worker.
    RunGuard guard(config.timeoutSeconds > 0
                       ? Deadline::afterSeconds(config.timeoutSeconds)
                       : Deadline::never());
    if (config.timeoutSeconds > 0)
        system.setRunGuard(&guard);

    CoherenceAuditor auditor(system);
    system.addAccessObserver(&auditor);
    LockWatchdog watchdog(system, config.watchdog);
    system.addAccessObserver(&watchdog);

    // Observability: the attribution engine always rides along, because
    // its cross-check below must hold on every run, not only when a dump
    // was requested; the timeline recorder only when a dump could be
    // wanted (it records every event individually).
    AttributionEngine attribution(config.numPes, sys_config.timing,
                                  config.blockWords,
                                  config.ways * config.sets);
    system.addEventSink(&attribution);
    TimelineRecorder timeline;
    const bool want_timeline =
        !config.timelineOut.empty() || !config.traceOut.empty();
    if (want_timeline)
        system.addEventSink(&timeline);

    // The reference log is read only to dump a failing run's PIMTRACE.
    std::vector<MemRef> trace;
    if (!config.traceOut.empty()) {
        trace.reserve(std::min<std::uint64_t>(config.steps, 1u << 20));
        system.setRefObserver([&trace](const MemRef& ref) {
            trace.push_back(ref);
        });
    }

    GlobalStressSource source(config, system, watchdog, span, lock_base,
                              lock_words, rec_base);

    try {
        runRefSource(system, source);
        result.completedRefs = source.completedRefs();
        result.fingerprint = source.fingerprint();

        auditor.auditFull();

        // Attribution cross-check: every bus transaction and cycle the
        // stats counted must reach exactly one pattern and cause bucket,
        // and every miss exactly one class. A mismatch means an event
        // emission site was missed or fired twice, or the engine misread
        // the event stream: the observability layer is lying about the
        // run.
        const std::string attr_error =
            attribution.crossCheck(system.bus().stats());
        if (!attr_error.empty()) {
            throw PIM_SIM_FAULT(SimFaultKind::Protocol,
                                "attribution cross-check: ", attr_error);
        }
        const std::uint64_t cache_misses = system.totalCacheStats().misses;
        if (attribution.classifiedMisses() != cache_misses) {
            throw PIM_SIM_FAULT(
                SimFaultKind::Protocol, "attribution cross-check: caches "
                "counted ", cache_misses, " misses but the engine "
                "classified ", attribution.classifiedMisses());
        }
    } catch (const SimFault& fault) {
        result.failed = true;
        result.kind = fault.kind();
        result.message = fault.message();
        result.replayLine = config.replayLine();
        result.completedRefs = source.completedRefs();
        result.fingerprint = source.fingerprint();
        system.abandonParkedWaiters();
        if (!config.traceOut.empty()) {
            TraceWriter writer(config.traceOut, config.numPes);
            for (const MemRef& ref : trace)
                writer.append(ref);
            writer.close();
            result.traceRecords = writer.recordsWritten();
        }
    }

    if (want_timeline && (!config.timelineOut.empty() || result.failed)) {
        // Timeline lands where asked, or next to the failure PIMTRACE.
        std::string path = config.timelineOut;
        if (path.empty())
            path = config.traceOut + ".timeline.json";
        result.timelineEvents = timeline.eventCount();
        if (timeline.writeFile(path))
            result.timelinePath = path;
    }

    result.classifiedMisses = attribution.classifiedMisses();
    if (!config.attributionOut.empty() &&
        attribution.writeFile(config.attributionOut, system.bus().stats())) {
        result.attributionPath = config.attributionOut;
    }

    result.auditChecks = auditor.checksRun();
    result.makespan = system.makespan();
    result.injectorSummary = injector.summary();
    result.injectorFires = injector.totalFires();
    return result;
}

} // namespace pim
