/**
 * @file
 * OR-parallel Prolog traffic (paper Sections 1 and 5): "the cache
 * optimizations also improve the performance of non-committed-choice
 * languages, such as OR-parallel Prolog" (Aurora, Tick [20]). This
 * bench replays an Aurora-style synthetic access pattern — shared
 * read-only clause lookups, private binding-array writes, occasional
 * task grabs — through the PIM cache with and without the optimized
 * commands, and against the Illinois and write-through baselines.
 */

#include "bench_util.h"
#include "sim/trace_replay.h"
#include "trace/synth.h"

namespace pim::kl1::bench {
namespace {

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("OR-parallel (Aurora-style) traffic on the PIM cache", ctx);

    const std::uint64_t refs_per_pe = 40000ull * ctx.scale;
    const auto trace =
        makeOrParallel(ctx.pes, 0, 1 << 12, 1 << 20, 1 << 20,
                       refs_per_pe, 200, 7);

    struct Variant {
        const char* name;
        OptPolicy policy;
        bool illinois;
        bool write_through;
    };
    const Variant variants[] = {
        {"PIM, all opts", OptPolicy::all(), false, false},
        {"PIM, no opts", OptPolicy::none(), false, false},
        {"Illinois", OptPolicy::none(), true, false},
        {"write-through", OptPolicy::none(), false, true},
    };

    Table table("measured");
    table.setHeader({"variant", "bus cycles", "rel.", "miss %",
                     "mem busy", "DW no-fetch"});
    double base = 0;
    for (const Variant& variant : variants) {
        SystemConfig config;
        config.numPes = ctx.pes;
        config.cache.geometry = {4, 4, 256};
        if (variant.illinois)
            config.cache.protocol = ProtocolKind::MESI;
        config.cache.writeThrough = variant.write_through;
        config.policy = variant.policy;
        config.memoryWords = 1ull << 26;
        System sys(config);
        TraceReplay replay(sys, trace);
        replay.run();
        const double cycles =
            static_cast<double>(sys.bus().stats().totalCycles);
        if (base == 0)
            base = cycles;
        const CacheStats cache = sys.totalCacheStats();
        table.addRow({variant.name, fmtEng(cycles, 2),
                      fmtFixed(cycles / base, 2),
                      fmtFixed(cache.missRatio() * 100, 2),
                      fmtEng(static_cast<double>(
                                 sys.bus().stats().memoryBusyCycles), 2),
                      fmtCount(cache.dwAllocNoFetch)});
    }
    table.print(std::cout);

    std::printf(
        "\nShape checks: DW removes the fetch-on-write misses of the"
        "\nfresh binding-array/trail writes (the dominant write stream"
        "\nof an OR-parallel engine — Tick reports AND-parallel Prolog"
        "\nbenefits from copy-back even more than procedural code), so"
        "\n'all opts' clearly beats 'no opts'; write-through is far"
        "\nworse; Illinois matches PIM on bus cycles but keeps memory"
        "\nbusier. The paper's Section 5 expectation that the commands"
        "\ncarry over to OR-parallel architectures.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "orparallel_traffic", [&] { return pim::kl1::bench::run(argc, argv); });
}
