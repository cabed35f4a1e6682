/**
 * @file
 * Ablation: copy-back vs write-through. The paper's Section 3 premise
 * (after Goodman [5] and Tick [19]): logic programming languages write
 * so frequently — 36% of KL1 data references, Table 3 — that a
 * write-through cache floods the bus, and copy-back is the only viable
 * base protocol.
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Ablation: copy-back vs write-through", ctx);

    Table table("measured");
    table.setHeader({"benchmark", "protocol", "bus cycles", "rel.",
                     "mem writes", "makespan"});
    for (const BenchProgram& bench : allBenchmarks()) {
        double base = 0;
        for (const bool wt : {false, true}) {
            Kl1Config config = paperConfig(ctx.pes);
            config.cache.writeThrough = wt;
            const BenchResult r = runBenchmark(bench, ctx.scale, config);
            const double cycles =
                static_cast<double>(r.bus.totalCycles);
            if (!wt)
                base = cycles;
            table.addRow({bench.name,
                          wt ? "write-through" : "copy-back (PIM)",
                          fmtEng(cycles, 2), fmtFixed(cycles / base, 2),
                          fmtCount(r.bus.memoryWrites),
                          fmtEng(static_cast<double>(r.run.makespan),
                                 2)});
        }
        table.addRule();
    }
    table.print(std::cout);

    std::printf(
        "\nShape checks: write-through multiplies bus cycles several-fold"
        "\non every benchmark (each of the ~25-38%% data writes becomes a"
        "\nbus transaction) and stretches the makespan accordingly —"
        "\nwhy the PIM cache is copy-back (paper Section 3, after"
        "\nGoodman and Tick).\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "ablation_write_policy", [&] { return pim::kl1::bench::run(argc, argv); });
}
