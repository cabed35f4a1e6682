/**
 * @file
 * Reproduces Figure 3 of the paper: "Number of PEs vs. Bus Traffic" —
 * the base cache with all optimized commands, 1 to 8 PEs, plus the
 * Section 4.5 analysis: as PEs are added, the communication area's share
 * of bus traffic grows (0 -> ~29%) and the heap's share falls
 * (~71% -> ~45%), i.e. inter-PE communication (load balancing) becomes
 * the dominant bus cost — most dramatically for Tri.
 *
 * --clusters appends a beyond-the-paper scaling section (off by
 * default, so the default output stays golden-stable): one benchmark at
 * 128 PEs and each doubling up to --cluster-max-pes, each run twice —
 * on the paper's single snooping bus and on the clustered topology
 * (per-cluster buses, cross-cluster traffic routed by the residency
 * masks, docs/ARCHITECTURE.md) — showing where the single bus saturates
 * and how clustering moves the knee.
 *
 *   --clusters            enable the wide-PE section
 *   --cluster-size=N      PEs per snooping-bus cluster (default 16)
 *   --hop-cycles=N        one-way inter-cluster hop cost (default 4)
 *   --cluster-bench=NAME  benchmark to scale (default Tri)
 *   --cluster-max-pes=N   largest PE count (default 128). The single
 *                         bus stops at 128 PEs (its cells read "—"
 *                         past that). With Pascal at scale 1 the whole
 *                         run takes about 0.9 s to 128 PEs, 1.2 s to
 *                         256, 1.9 s to 512 and 7.8 s to 1024 on a
 *                         4-core Xeon container
 */

#include "bench_util.h"

namespace pim::kl1::bench {
namespace {

/**
 * Largest PE count the section runs on the single bus, as in
 * SweepSpec::clustersGrid. The bus is saturated there; past it idle
 * PEs' steal traffic fills the one queue (Pascal at 256 PEs reaches
 * the 4*10^9-step limit), so wider rows run the clustered machine only.
 */
constexpr std::uint32_t kSingleBusMaxPes = 128;

/**
 * The wide-PE single-bus vs clustered comparison. Every run is a pure
 * function of its config, so the section is deterministic at any PE
 * count.
 */
void
runClusterSection(const BenchContext& ctx)
{
    const std::string bench_name =
        ctx.options.getString("cluster-bench", "Tri");
    const BenchProgram& bench = benchmarkByName(bench_name);
    const std::uint32_t cluster_size = static_cast<std::uint32_t>(
        ctx.options.getInt("cluster-size", 16));
    const std::uint32_t hop_cycles = static_cast<std::uint32_t>(
        ctx.options.getInt("hop-cycles", 4));
    const std::uint32_t max_pes = static_cast<std::uint32_t>(
        ctx.options.getInt("cluster-max-pes", 128));

    Table table("measured: single bus vs clustered topology (" +
                bench_name + ", " + std::to_string(cluster_size) +
                " PEs/cluster, " + std::to_string(hop_cycles) +
                "-cycle hops)");
    table.setHeader({"PEs", "bus Mcyc", "makespan", "clu Mcyc",
                     "clu makespan", "x-clu Mcyc", "gain"});

    bool capped = false;
    for (std::uint32_t pes = 128; pes <= max_pes; pes *= 2) {
        Kl1Config config = paperConfig(pes);
        config.cluster.clusterSize = cluster_size;
        config.cluster.hopCycles = hop_cycles;
        const BenchResult clu = runBenchmark(bench, ctx.scale, config);
        std::vector<std::string> single_cells = {"—", "—"};
        std::string gain = "—";
        if (pes <= kSingleBusMaxPes) {
            const BenchResult one =
                runBenchmark(bench, ctx.scale, paperConfig(pes));
            single_cells = {
                fmtEng(static_cast<double>(one.bus.totalCycles), 2),
                fmtEng(static_cast<double>(one.run.makespan), 2)};
            gain = fmtFixed(static_cast<double>(one.run.makespan) /
                                static_cast<double>(clu.run.makespan),
                            2) +
                   "x";
        } else {
            capped = true;
        }
        table.addRow(
            {std::to_string(pes), single_cells[0], single_cells[1],
             fmtEng(static_cast<double>(clu.bus.totalCycles), 2),
             fmtEng(static_cast<double>(clu.run.makespan), 2),
             fmtEng(static_cast<double>(clu.bus.interClusterCycles), 2),
             gain});
    }

    std::printf("\n");
    table.print(std::cout);
    if (capped) {
        std::printf("—: the saturated single bus is not run past %u PEs.\n",
                    kSingleBusMaxPes);
    }
    std::printf(
        "\nBeyond the paper: the single snooping bus serializes every"
        "\nmiss machine-wide, so past ~10^2 PEs added PEs only deepen"
        "\nbus queueing (makespan stops improving). Clustering gives"
        "\neach group of %u PEs its own bus; the inter-cluster directory"
        "\nroutes traffic only to clusters that hold copies, trading"
        "\n%u-cycle hops (x-clu) for machine-wide serialization.\n",
        cluster_size, hop_cycles);
}

int
run(int argc, const char* const* argv)
{
    const BenchContext ctx = BenchContext::parse(
        argc, argv,
        {{"clusters", Flag::Bool}, {"cluster-size", Flag::Count32},
         {"hop-cycles", Flag::Count32}, {"cluster-max-pes", Flag::Count32},
         {"cluster-bench", Flag::String}});
    banner("Figure 3: Number of PEs vs Bus Traffic", ctx);

    const std::uint32_t pe_counts[] = {1, 2, 4, 6, 8};

    Table bus("measured: bus cycles (millions)");
    std::vector<std::string> header = {"PEs"};
    for (const BenchProgram& bench : allBenchmarks())
        header.push_back(bench.name);
    bus.setHeader(header);

    Table shares("measured: average area shares of bus traffic (%)");
    shares.setHeader({"PEs", "heap", "goal", "susp", "comm"});

    Table speedup("measured: simulated speedup over 1 PE");
    speedup.setHeader(header);

    std::map<std::string, double> base_span;

    for (std::uint32_t pes : pe_counts) {
        std::vector<std::string> bus_cells = {std::to_string(pes)};
        std::vector<std::string> su_cells = {std::to_string(pes)};
        std::vector<double> heap_share;
        std::vector<double> goal_share;
        std::vector<double> susp_share;
        std::vector<double> comm_share;
        for (const BenchProgram& bench : allBenchmarks()) {
            const BenchResult r =
                runBenchmark(bench, ctx.scale, paperConfig(pes));
            bus_cells.push_back(
                fmtEng(static_cast<double>(r.bus.totalCycles), 2));
            if (pes == 1)
                base_span[bench.name] =
                    static_cast<double>(r.run.makespan);
            su_cells.push_back(fmtFixed(
                base_span[bench.name] /
                    static_cast<double>(r.run.makespan), 1));
            const double total =
                static_cast<double>(r.bus.totalCycles);
            auto share = [&](Area area) {
                return pct(static_cast<double>(
                               r.bus.cyclesByArea[static_cast<int>(area)]),
                           total);
            };
            heap_share.push_back(share(Area::Heap));
            goal_share.push_back(share(Area::Goal));
            susp_share.push_back(share(Area::Susp));
            comm_share.push_back(share(Area::Comm));
        }
        bus.addRow(bus_cells);
        speedup.addRow(su_cells);
        shares.addRow({std::to_string(pes),
                       fmtFixed(mean(heap_share), 1),
                       fmtFixed(mean(goal_share), 1),
                       fmtFixed(mean(susp_share), 1),
                       fmtFixed(mean(comm_share), 1)});
    }
    bus.print(std::cout);
    std::printf("\n");
    speedup.print(std::cout);
    std::printf("\n");
    shares.print(std::cout);

    std::printf(
        "\nShape checks (paper Fig. 3 / Section 4.5): bus traffic grows"
        "\nwith the PE count, most steeply for Tri (task-distribution"
        "\ntraffic of a poorly balanced wide search tree); the comm"
        "\narea's share of bus cycles rises sharply from 1 to 8 PEs while"
        "\nthe heap's share falls (paper: comm 0->29%%, heap 71->45%%).\n");

    if (ctx.options.has("clusters"))
        runClusterSection(ctx);
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::runMain(
        "fig3_pes", [&] { return pim::kl1::bench::run(argc, argv); });
}
