/**
 * @file
 * Annotated walkthrough of the optimized memory commands (paper Section
 * 3.2): drives a 2-PE system through the exact goal-record handoff the
 * paper uses to motivate DW / ER / RP, printing the cache states and
 * bus costs after every step — then repeats it with plain reads and
 * writes to show what the commands save.
 *
 *   $ ./protocol_trace
 *   $ ./protocol_trace --timeline-out=handoff.json \
 *         --attribution-out=attribution.json
 *
 * The observability flags (docs/OBSERVABILITY.md) record the optimized
 * handoff: a Perfetto-loadable Chrome trace-event timeline and the
 * miss/cycle attribution document. Any other flag exits 1.
 */

#include <cstdio>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "obs/attribution.h"
#include "obs/timeline.h"
#include "sim/system.h"

namespace {

using namespace pim;

void
show(const System& sys, Addr rec, const char* what)
{
    std::printf("%-52s bus=%3llu  pe0:%s,%s pe1:%s,%s  mem-writes=%llu\n",
                what,
                static_cast<unsigned long long>(
                    sys.bus().stats().totalCycles),
                cacheStateName(sys.cache(0).stateOf(rec)),
                cacheStateName(sys.cache(0).stateOf(rec + 4)),
                cacheStateName(sys.cache(1).stateOf(rec)),
                cacheStateName(sys.cache(1).stateOf(rec + 4)),
                static_cast<unsigned long long>(
                    sys.bus().stats().memoryWrites));
}

void
runHandoff(bool optimized, const Options& opts)
{
    std::printf("\n=== 8-word goal record handoff, %s ===\n",
                optimized ? "optimized (DW/ER/RP)" : "plain (W/R)");
    std::printf("states shown per PE for the record's two blocks\n\n");

    SystemConfig config;
    config.numPes = 2;
    config.memoryWords = 1 << 20;
    System sys(config);
    const Addr rec = 512; // block aligned

    // Observability taps: the optimized handoff is the interesting run,
    // so only it is recorded (both runs start their clocks at zero and
    // would overlap on one timeline).
    TimelineRecorder timeline;
    const auto& geom = config.cache.geometry;
    AttributionEngine attribution(config.numPes, config.timing,
                                  geom.blockWords, geom.ways * geom.sets);
    const std::string timeline_out =
        optimized ? opts.getString("timeline-out", "") : "";
    const std::string attribution_out =
        optimized ? opts.getString("attribution-out", "") : "";
    if (!timeline_out.empty())
        sys.addEventSink(&timeline);
    if (!attribution_out.empty())
        sys.addEventSink(&attribution);

    // The sender creates the record: DW allocates without fetching.
    for (Addr a = rec; a < rec + 8; ++a) {
        sys.access(0, optimized ? MemOp::DW : MemOp::W, a, Area::Goal,
                   a * 3);
    }
    show(sys, rec, optimized ? "pe0 writes record with DW"
                             : "pe0 writes record with W (fetch-on-write)");

    // The receiver consumes it: ER invalidates the supplier, the final
    // RP purges the receiver's own copy.
    Word check = 0;
    for (Addr a = rec; a < rec + 8; ++a) {
        MemOp op = MemOp::R;
        if (optimized)
            op = a + 1 == rec + 8 ? MemOp::RP : MemOp::ER;
        check += sys.access(1, op, a, Area::Goal, 0).data;
    }
    show(sys, rec, optimized ? "pe1 reads record with ER/RP"
                             : "pe1 reads record with R");
    std::printf("   (checksum %llu, expected %llu)\n",
                static_cast<unsigned long long>(check),
                static_cast<unsigned long long>(
                    (rec * 8 + 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7) * 3));

    // The record is dead; the sender recycles the same words for the
    // next goal. With the optimized commands neither PE holds a copy
    // and nothing was ever written back to memory.
    for (Addr a = rec; a < rec + 8; ++a) {
        sys.access(0, optimized ? MemOp::DW : MemOp::W, a, Area::Goal,
                   a * 5);
    }
    show(sys, rec, "pe0 recycles the record for the next goal");

    std::printf("\ntotal: %llu bus cycles, %llu memory writes, "
                "%llu purges, %llu DW no-fetch allocations\n",
                static_cast<unsigned long long>(
                    sys.bus().stats().totalCycles),
                static_cast<unsigned long long>(
                    sys.bus().stats().memoryWrites),
                static_cast<unsigned long long>(
                    sys.totalCacheStats().purges),
                static_cast<unsigned long long>(
                    sys.totalCacheStats().dwAllocNoFetch));

    if (!timeline_out.empty() && timeline.writeFile(timeline_out)) {
        std::printf("timeline: %llu events -> %s\n",
                    static_cast<unsigned long long>(timeline.eventCount()),
                    timeline_out.c_str());
    }
    if (!attribution_out.empty() &&
        attribution.writeFile(attribution_out, sys.bus().stats())) {
        std::printf("attribution: %llu classified misses -> %s\n",
                    static_cast<unsigned long long>(
                        attribution.classifiedMisses()),
                    attribution_out.c_str());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const pim::Flag flags[] = {{"timeline-out", pim::Flag::String},
                               {"attribution-out", pim::Flag::String}};
    const std::optional<pim::Options> opts =
        pim::Options::parse(argc, argv, flags);
    if (!opts)
        return 1;
    return pim::runMain("protocol_trace", [&] {
        std::printf("The write-once/read-once goal handoff of paper "
                    "Section 2.3,\nwith and without the Section 3.2 "
                    "commands.\n");
        runHandoff(true, *opts);
        runHandoff(false, *opts);
        std::printf("\nThe optimized handoff moves each block exactly "
                    "once\n(cache-to-cache) and leaves no residue to swap "
                    "in or\nout — the 'meaningless swap-in and swap-out' "
                    "the\npaper's commands exist to avoid.\n");
        return 0;
    });
}
