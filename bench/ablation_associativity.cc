/**
 * @file
 * Ablation: set associativity at fixed capacity (paper Section 4.3,
 * citing Matsumoto [10]: two-way PIM caches produce ~18% more bus
 * traffic than four-way on BUP, and direct-mapped caches are
 * significantly worse).
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Ablation: set associativity (4-Kword caches, 4-word blocks)",
           ctx);

    const std::uint32_t way_counts[] = {1, 2, 4, 8};

    Table bus("measured: bus cycles relative to four-way");
    Table miss("measured: miss ratio (%)");
    std::vector<std::string> header = {"ways"};
    for (const BenchProgram& bench : allBenchmarks())
        header.push_back(bench.name);
    header.push_back("mean");
    bus.setHeader(header);
    miss.setHeader(header);

    std::map<std::pair<std::string, std::uint32_t>, BenchResult> results;
    for (std::uint32_t ways : way_counts) {
        for (const BenchProgram& bench : allBenchmarks()) {
            Kl1Config config = paperConfig(ctx.pes);
            config.cache.geometry =
                CacheGeometry::forCapacity(4096, 4, ways);
            results[{bench.name, ways}] =
                runBenchmark(bench, ctx.scale, config);
        }
    }

    for (std::uint32_t ways : way_counts) {
        std::vector<std::string> bus_cells = {std::to_string(ways)};
        std::vector<std::string> miss_cells = {std::to_string(ways)};
        std::vector<double> rels;
        std::vector<double> misses;
        for (const BenchProgram& bench : allBenchmarks()) {
            const double rel =
                static_cast<double>(
                    results[{bench.name, ways}].bus.totalCycles) /
                static_cast<double>(
                    results[{bench.name, 4}].bus.totalCycles);
            const double mr =
                results[{bench.name, ways}].cache.missRatio() * 100;
            bus_cells.push_back(fmtFixed(rel, 2));
            miss_cells.push_back(fmtFixed(mr, 2));
            rels.push_back(rel);
            misses.push_back(mr);
        }
        bus_cells.push_back(fmtFixed(mean(rels), 2));
        miss_cells.push_back(fmtFixed(mean(misses), 2));
        bus.addRow(bus_cells);
        miss.addRow(miss_cells);
    }
    bus.print(std::cout);
    std::printf("\n");
    miss.print(std::cout);

    std::printf(
        "\nShape checks (paper Section 4.3 / Matsumoto [10]): two-way"
        "\ncosts noticeably more traffic than four-way (paper: +18%% on"
        "\nBUP) and direct-mapped is significantly worse; eight-way buys"
        "\nlittle over four-way.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "ablation_associativity", [&] { return pim::kl1::bench::run(argc, argv); });
}
