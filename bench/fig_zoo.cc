/**
 * @file
 * Protocol & replacement-policy zoo comparison (docs/ARCHITECTURE.md,
 * "Protocol matrix").
 *
 * Re-runs the paper's Table 3/4-shaped bus-cycle measurement across the
 * classic coherence matrix — PIM (the paper's 5-state protocol), MSI,
 * MESI, MOESI and update-based Dragon — and across the replacement
 * policies (LRU default, FIFO, random), on the same four KL1 benchmarks
 * with all software-command optimizations enabled. The PIM column is the
 * absolute baseline and is pinned byte-identical to the default build by
 * tests/golden/fig_zoo.txt; every other point is reported relative to
 * it. A detail table contrasts the invalidation-based protocols' I
 * traffic with Dragon's word-update traffic and the MESI/MSI share
 * write-backs the SM-family avoids.
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

const char* const kBenches[] = {"Tri", "Semi", "Puzzle", "Pascal"};

const ProtocolKind kProtocols[] = {
    ProtocolKind::PIM, ProtocolKind::MSI, ProtocolKind::MESI,
    ProtocolKind::MOESI, ProtocolKind::Dragon,
};

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Zoo: bus cycles across protocol x replacement", ctx);

    Table protos("bus cycles by coherence protocol (relative to pim)");
    protos.setHeader(
        {"benchmark", "pim cycles", "msi", "mesi", "moesi", "dragon"});
    Table repls(
        "bus cycles by replacement policy (pim, relative to lru)");
    repls.setHeader({"benchmark", "lru cycles", "fifo", "random"});
    Table detail("invalidation vs update traffic (protocol extremes)");
    detail.setHeader({"benchmark", "I pim", "I dragon", "updates dragon",
                      "mem-wr pim", "mem-wr mesi"});

    for (const char* name : kBenches) {
        const BenchProgram& bench = benchmarkByName(name);

        BenchResult by_proto[5];
        double pim_cycles = 0;
        std::vector<std::string> proto_cells = {name};
        for (int p = 0; p < 5; ++p) {
            Kl1Config cfg = paperConfig(ctx.pes, OptPolicy::all());
            cfg.cache.protocol = kProtocols[p];
            by_proto[p] = runBenchmark(bench, ctx.scale, cfg);
            const double cycles =
                static_cast<double>(by_proto[p].bus.totalCycles);
            if (kProtocols[p] == ProtocolKind::PIM) {
                pim_cycles = cycles;
                proto_cells.push_back(fmtCount(
                    by_proto[p].bus.totalCycles));
            } else {
                const double rel =
                    pim_cycles == 0 ? 0 : cycles / pim_cycles;
                proto_cells.push_back(fmtFixed(rel, 3));
            }
        }
        protos.addRow(proto_cells);

        std::vector<std::string> repl_cells = {name};
        double lru_cycles = 0;
        const ReplacementKind repl_kinds[] = {ReplacementKind::LRU,
                                              ReplacementKind::FIFO,
                                              ReplacementKind::Random};
        for (const ReplacementKind kind : repl_kinds) {
            Kl1Config cfg = paperConfig(ctx.pes, OptPolicy::all());
            cfg.cache.replacement = kind;
            const BenchResult r = runBenchmark(bench, ctx.scale, cfg);
            const double cycles = static_cast<double>(r.bus.totalCycles);
            if (kind == ReplacementKind::LRU) {
                lru_cycles = cycles;
                repl_cells.push_back(fmtCount(r.bus.totalCycles));
            } else {
                repl_cells.push_back(
                    fmtFixed(lru_cycles == 0 ? 0 : cycles / lru_cycles,
                             3));
            }
        }
        repls.addRow(repl_cells);

        const BenchResult& pim_r = by_proto[0];
        const BenchResult& mesi_r = by_proto[2];
        const BenchResult& dragon_r = by_proto[4];
        const std::uint64_t dragon_updates =
            dragon_r.bus.transByPattern[static_cast<int>(
                BusPattern::WordUpdate)];
        detail.addRow(
            {name,
             fmtCount(pim_r.bus.cmdCounts[static_cast<int>(BusCmd::I)]),
             fmtCount(
                 dragon_r.bus.cmdCounts[static_cast<int>(BusCmd::I)]),
             fmtCount(dragon_updates),
             fmtCount(pim_r.bus.memoryWrites),
             fmtCount(mesi_r.bus.memoryWrites)});
    }
    protos.print(std::cout);
    std::printf("\n");
    repls.print(std::cout);
    std::printf("\n");
    detail.print(std::cout);
    std::printf(
        "\nShape checks: the pim column is the default build baseline"
        "\n(byte-identical, pinned by the golden file). MSI pays for the"
        "\nmissing EC state, MSI/MESI pay share write-backs the SM state"
        "\navoids, MOESI tracks pim closely, and Dragon trades"
        "\ninvalidations for word-update broadcasts.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "fig_zoo", [&] { return pim::kl1::bench::run(argc, argv); });
}
