/**
 * @file
 * Ablation: stop-and-copy garbage collection. The paper's system used
 * stop-and-copy GC and excluded GC references from its measurements,
 * noting (Section 4, citing Nishida [12]) that garbage collection
 * "will significantly affect heap referencing characteristics". This
 * bench quantifies that on our model: collections leave every cache
 * cold, so heap pressure turns into extra fetch traffic even though the
 * collector's own references are free.
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Ablation: stop-and-copy GC under heap pressure", ctx);

    Table table("measured (Puzzle / Pascal)");
    table.setHeader({"benchmark", "heap words/PE", "GCs", "copied",
                     "reclaimed", "bus cycles", "miss %"});

    for (const char* name : {"Puzzle", "Pascal"}) {
        const BenchProgram& bench = benchmarkByName(name);
        // Roomy heap: no collections (the baseline).
        // Tight heaps: more and more collections.
        const std::uint32_t heap_log2[] = {23, 15, 14, 13};
        for (std::uint32_t log2 : heap_log2) {
            Kl1Config config = paperConfig(ctx.pes);
            config.enableGc = true;
            config.layout.heapWordsPerPe = 1u << log2;
            const BenchResult r = runBenchmark(bench, ctx.scale, config);
            table.addRow(
                {name, fmtCount(1u << log2),
                 fmtCount(r.run.gc.collections),
                 fmtEng(static_cast<double>(r.run.gc.wordsCopied), 1),
                 fmtEng(static_cast<double>(r.run.gc.wordsReclaimed), 1),
                 fmtEng(static_cast<double>(r.bus.totalCycles), 2),
                 fmtFixed(r.cache.missRatio() * 100, 2)});
        }
        table.addRule();
    }
    table.print(std::cout);

    std::printf(
        "\nShape checks: identical answers at every heap size (the\n"
        "runner verifies them against the host mirror); as the heap\n"
        "shrinks, collections multiply and the cold-cache restarts push\n"
        "the miss ratio up, while total traffic can move either way —\n"
        "semispace compaction also improves heap locality. Either way\n"
        "the heap referencing behaviour is visibly reshaped, the paper's\n"
        "point in citing [12].\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "ablation_gc", [&] { return pim::kl1::bench::run(argc, argv); });
}
