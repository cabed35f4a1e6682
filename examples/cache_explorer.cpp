/**
 * @file
 * Trace-driven cache explorer: replay synthetic reference patterns (or a
 * recorded .pimtrace file) through the PIM cache model with a chosen
 * geometry and protocol, and print the traffic breakdown.
 *
 *   $ ./cache_explorer --pattern migratory --pes 8 --block 4 \
 *         --ways 4 --capacity 4096 [--illinois]
 *   $ ./cache_explorer --trace-in run.pimtrace
 *
 * Patterns: random, producer, migratory, heap, lock, orparallel.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/options.h"
#include "common/sim_fault.h"
#include "common/strutil.h"
#include "common/table.h"
#include "sim/trace_replay.h"
#include "trace/synth.h"
#include "trace/trace_file.h"

namespace {

using namespace pim;

int
run(const Options& opts)
{
    std::uint32_t pes = static_cast<std::uint32_t>(opts.getInt("pes", 4));
    const std::uint32_t block =
        static_cast<std::uint32_t>(opts.getInt("block", 4));
    const std::uint32_t ways =
        static_cast<std::uint32_t>(opts.getInt("ways", 4));
    const std::uint64_t capacity = opts.getInt("capacity", 4096);
    const std::string pattern = opts.getString("pattern", "random");
    const std::string trace_in = opts.getString("trace-in", "");
    const std::uint64_t n = opts.getInt("n", 20000);

    SystemConfig config;
    config.numPes = pes;
    config.cache.geometry =
        CacheGeometry::forCapacity(capacity, block, ways);
    const bool illinois = opts.has("illinois");
    if (illinois)
        config.cache.protocol = ProtocolKind::MESI;
    // The synthetic patterns divide by --pes: refuse a bad machine first.
    if (trace_in.empty())
        config.validate();

    std::vector<MemRef> trace;
    if (!trace_in.empty()) {
        TraceReader reader(trace_in);
        MemRef ref;
        while (reader.next(ref))
            trace.push_back(ref);
        // The recorded machine's width, not --pes: its references name
        // every PE it had.
        pes = reader.numPes();
        config.numPes = pes;
        std::printf("loaded %zu refs from %s (%u PEs)\n", trace.size(),
                    trace_in.c_str(), pes);
    } else if (pattern == "random") {
        RandomTrafficConfig traffic;
        traffic.numPes = pes;
        traffic.refsPerPe = n;
        traffic.writePctX100 = 3000;
        traffic.lockPctX100 = 300;
        trace = makeRandomTraffic(traffic);
    } else if (pattern == "producer") {
        trace = makeProducerConsumer(0, pes > 1 ? 1 : 0, pes, 0, 1 << 14,
                                     8, n / 16, true);
    } else if (pattern == "migratory") {
        trace = makeMigratory(pes, 0, 64, block,
                              static_cast<std::uint32_t>(n / 128 + 1));
    } else if (pattern == "heap") {
        trace = makeHeapGrowth(pes, 0, 1 << 20, n / 5, 4, true, 42);
    } else if (pattern == "lock") {
        trace = makeLockTraffic(pes, 0, 64, n / (2 * pes), 500, 42);
    } else if (pattern == "orparallel") {
        trace = makeOrParallel(pes, 0, 1 << 12, 1 << 16, 1 << 16, n, 200,
                               42);
    } else {
        std::fprintf(stderr, "unknown --pattern %s\n", pattern.c_str());
        return 1;
    }

    // Size the backing store to cover every address in the trace.
    Addr max_addr = 1 << 20;
    for (const MemRef& ref : trace)
        max_addr = std::max(max_addr, ref.addr);
    config.memoryWords = (max_addr / 4096 + 2) * 4096;

    System sys(config);
    TraceReplay replay(sys, trace);
    replay.run();

    const BusStats& bus = sys.bus().stats();
    const CacheStats cache = sys.totalCacheStats();

    std::printf("\n%zu references, %u PEs, %lluw %u-way cache, %uw "
                "blocks (%s)\n\n",
                trace.size(), pes,
                static_cast<unsigned long long>(capacity), ways, block,
                illinois ? "Illinois baseline" : "PIM protocol");

    Table summary("summary");
    summary.setHeader({"metric", "value"});
    summary.addRow({"bus cycles", fmtCount(bus.totalCycles)});
    summary.addRow({"miss ratio %",
                    fmtFixed(cache.missRatio() * 100, 2)});
    summary.addRow({"memory busy cycles",
                    fmtCount(bus.memoryBusyCycles)});
    summary.addRow({"memory reads", fmtCount(bus.memoryReads)});
    summary.addRow({"memory writes", fmtCount(bus.memoryWrites)});
    summary.addRow({"swap-outs", fmtCount(cache.swapOuts)});
    summary.addRow({"purges", fmtCount(cache.purges)});
    summary.addRow({"DW no-fetch", fmtCount(cache.dwAllocNoFetch)});
    summary.addRow({"lock rejects", fmtCount(replay.lockRejects())});
    summary.print(std::cout);

    Table patterns("\nbus cycles by transaction pattern");
    patterns.setHeader({"pattern", "transactions", "cycles"});
    for (int p = 0; p < kNumBusPatterns; ++p) {
        if (bus.transByPattern[p] == 0)
            continue;
        patterns.addRow({busPatternName(static_cast<BusPattern>(p)),
                         fmtCount(bus.transByPattern[p]),
                         fmtCount(bus.cyclesByPattern[p])});
    }
    patterns.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Flag flags[] = {
        {"pes", Flag::Count},      {"block", Flag::Count},
        {"ways", Flag::Count},     {"capacity", Flag::Count},
        {"pattern", Flag::String}, {"trace-in", Flag::String},
        {"n", Flag::Count},        {"illinois", Flag::Bool},
    };
    const std::optional<Options> parsed = Options::parse(argc, argv, flags);
    if (!parsed)
        return 1;
    return runMain("cache_explorer", [&] { return run(*parsed); });
}
