/**
 * @file
 * Ablation: bus width and memory access time (paper Sections 4.2/4.4).
 * The paper observes that bus traffic is insensitive to the memory
 * access time (most traffic is cache-to-cache) but drops to 62-75% with
 * a two-word bus.
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Ablation: bus width and memory access time", ctx);

    Table width("measured: bus cycles vs bus width (relative to 1 word)");
    width.setHeader({"width", "Tri", "Semi", "Puzzle", "Pascal", "mean"});
    std::map<std::string, double> base;
    for (std::uint32_t w : {1u, 2u, 4u}) {
        std::vector<std::string> cells = {std::to_string(w) + "w"};
        std::vector<double> ratios;
        for (const BenchProgram& bench : allBenchmarks()) {
            Kl1Config config = paperConfig(ctx.pes);
            config.timing.widthWords = w;
            const BenchResult r = runBenchmark(bench, ctx.scale, config);
            const double cycles = static_cast<double>(r.bus.totalCycles);
            if (w == 1)
                base[bench.name] = cycles;
            const double ratio = cycles / base[bench.name];
            cells.push_back(fmtFixed(ratio, 2));
            ratios.push_back(ratio);
        }
        cells.push_back(fmtFixed(mean(ratios), 2));
        width.addRow(cells);
    }
    width.print(std::cout);

    Table memlat(
        "\nmeasured: bus cycles vs memory access time (relative to 8)");
    memlat.setHeader({"mem cycles", "Tri", "Semi", "Puzzle", "Pascal",
                      "mean"});
    const std::uint32_t lats[] = {4, 8, 16, 32};
    std::map<std::pair<std::string, std::uint32_t>, double> cycles_at;
    for (std::uint32_t lat : lats) {
        for (const BenchProgram& bench : allBenchmarks()) {
            Kl1Config config = paperConfig(ctx.pes);
            config.timing.memAccessCycles = lat;
            const BenchResult r = runBenchmark(bench, ctx.scale, config);
            cycles_at[{bench.name, lat}] =
                static_cast<double>(r.bus.totalCycles);
        }
    }
    for (std::uint32_t lat : lats) {
        std::vector<std::string> cells = {std::to_string(lat)};
        std::vector<double> ratios;
        for (const BenchProgram& bench : allBenchmarks()) {
            const double ratio = cycles_at[{bench.name, lat}] /
                                 cycles_at[{bench.name, 8}];
            cells.push_back(fmtFixed(ratio, 2));
            ratios.push_back(ratio);
        }
        cells.push_back(fmtFixed(mean(ratios), 2));
        memlat.addRow(cells);
    }
    memlat.print(std::cout);

    std::printf(
        "\nShape checks: a two-word bus cuts traffic to roughly"
        "\n0.62-0.75x (paper Section 4.4); doubling/halving the memory"
        "\naccess time moves total traffic far less than bus width does,"
        "\nbecause most transfers are cache-to-cache (paper Section"
        "\n4.2).\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "ablation_bus_width", [&] { return pim::kl1::bench::run(argc, argv); });
}
