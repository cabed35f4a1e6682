/**
 * @file
 * Reproduces Figure 1 of the paper: "Cache Block Size vs. Cache Miss
 * Ratio and Bus Traffic" — four-way set-associative 4-Kword I+D caches
 * with all optimized commands, block size swept from 1 to 16 words.
 *
 * Expected shape (paper Section 4.3): the miss ratio improves steadily
 * with block size, but bus traffic is near-flat from 2 to 4 words and
 * grows past 4 — logic programs have too little spatial locality for
 * large blocks, so four-word blocks are the design point.
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Figure 1: Cache Block Size vs Miss Ratio and Bus Traffic",
           ctx);

    const std::uint32_t block_sizes[] = {1, 2, 4, 8, 16};

    Table miss("measured: miss ratio (%)");
    Table bus("measured: bus cycles (relative to 4-word blocks)");
    std::vector<std::string> header = {"block words"};
    for (const BenchProgram& bench : allBenchmarks())
        header.push_back(bench.name);
    header.push_back("mean");
    miss.setHeader(header);
    bus.setHeader(header);

    // First pass to get the 4-word baseline per benchmark.
    std::map<std::string, double> base_cycles;
    std::map<std::pair<std::string, std::uint32_t>, BenchResult> results;
    for (std::uint32_t bw : block_sizes) {
        for (const BenchProgram& bench : allBenchmarks()) {
            Kl1Config config = paperConfig(ctx.pes);
            config.cache.geometry =
                CacheGeometry::forCapacity(4096, bw, 4);
            const BenchResult r = runBenchmark(bench, ctx.scale, config);
            results[{bench.name, bw}] = r;
            if (bw == 4)
                base_cycles[bench.name] =
                    static_cast<double>(r.bus.totalCycles);
        }
    }

    for (std::uint32_t bw : block_sizes) {
        std::vector<std::string> miss_cells = {std::to_string(bw)};
        std::vector<std::string> bus_cells = {std::to_string(bw)};
        std::vector<double> miss_vals;
        std::vector<double> bus_vals;
        for (const BenchProgram& bench : allBenchmarks()) {
            const BenchResult& r = results[{bench.name, bw}];
            const double mr = r.cache.missRatio() * 100.0;
            const double rel = static_cast<double>(r.bus.totalCycles) /
                               base_cycles[bench.name];
            miss_cells.push_back(fmtFixed(mr, 2));
            bus_cells.push_back(fmtFixed(rel, 2));
            miss_vals.push_back(mr);
            bus_vals.push_back(rel);
        }
        miss_cells.push_back(fmtFixed(mean(miss_vals), 2));
        bus_cells.push_back(fmtFixed(mean(bus_vals), 2));
        miss.addRow(miss_cells);
        bus.addRow(bus_cells);
    }
    miss.print(std::cout);
    std::printf("\n");
    bus.print(std::cout);
    std::printf(
        "\nShape checks (paper Fig. 1): miss ratio falls monotonically"
        "\nwith block size while bus traffic bottoms out at small blocks"
        "\n(2-4 words within a few percent of each other) and grows"
        "\nclearly by 16-word blocks. Workloads with large contiguous"
        "\nstructures (Puzzle's vector boards, Semi) tolerate 8-word"
        "\nblocks; the list-heavy ones (Tri, Pascal) already pay for"
        "\nthem — the paper's point that logic programs lack the spatial"
        "\nlocality to exploit large blocks.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "fig1_block_size", [&] { return pim::kl1::bench::run(argc, argv); });
}
