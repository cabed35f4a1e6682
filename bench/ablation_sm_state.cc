/**
 * @file
 * Ablation: the SM (shared-modified) state. The PIM protocol transfers
 * dirty blocks cache-to-cache without updating shared memory; the
 * Illinois-style baseline copies dirty blocks back on every transfer
 * (no SM state). The paper's argument (Section 3.1): with KL1's high
 * cache-to-cache rate, copy-back-on-share keeps the memory modules busy.
 *
 * Reported: common-bus cycles, shared-memory busy cycles, memory writes
 * and swap-outs for both protocols, on the four benchmarks and on a
 * synthetic migratory-sharing pattern (the worst case for Illinois).
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
    banner("Ablation: SM state (PIM) vs copy-back-on-share (Illinois)",
           ctx);
    BenchJson json(ctx, "ablation_sm_state");

    Table table("measured");
    table.setHeader({"benchmark", "protocol", "bus cycles", "mem busy",
                     "mem writes", "swap-outs"});
    for (const BenchProgram& bench : allBenchmarks()) {
        for (const bool illinois : {false, true}) {
            Kl1Config config = paperConfig(ctx.pes);
            if (illinois)
                config.cache.protocol = ProtocolKind::MESI;
            const BenchResult r = runBenchmark(bench, ctx.scale, config);
            table.addRow({bench.name, illinois ? "Illinois" : "PIM",
                          fmtEng(static_cast<double>(r.bus.totalCycles),
                                 2),
                          fmtEng(static_cast<double>(
                                     r.bus.memoryBusyCycles), 2),
                          fmtCount(r.bus.memoryWrites),
                          fmtCount(r.cache.swapOuts)});

            json.row();
            json.set("bench", bench.name);
            json.set("protocol", illinois ? "Illinois" : "PIM");
            json.set("measured_bus_cycles",
                     static_cast<std::uint64_t>(r.bus.totalCycles));
            json.set("measured_mem_busy_cycles",
                     static_cast<std::uint64_t>(r.bus.memoryBusyCycles));
            json.set("measured_mem_writes", r.bus.memoryWrites);
            json.set("measured_swap_outs", r.cache.swapOuts);
        }
        table.addRule();
    }

    // Synthetic migratory sharing: blocks read-modified-written by each
    // PE in turn — every transfer moves a dirty block.
    const std::uint64_t rounds = 200ull * ctx.scale;
    const auto trace = makeMigratory(ctx.pes, 0, 64, 4,
                                     static_cast<std::uint32_t>(rounds));
    for (const bool illinois : {false, true}) {
        SystemConfig config;
        config.numPes = ctx.pes;
        config.cache.geometry = {4, 4, 256};
        if (illinois)
            config.cache.protocol = ProtocolKind::MESI;
        config.memoryWords = 1 << 20;
        System sys(config);
        TraceReplay(sys, trace).run();
        CacheStats cache = sys.totalCacheStats();
        table.addRow({"migratory", illinois ? "Illinois" : "PIM",
                      fmtEng(static_cast<double>(
                                 sys.bus().stats().totalCycles), 2),
                      fmtEng(static_cast<double>(
                                 sys.bus().stats().memoryBusyCycles), 2),
                      fmtCount(sys.bus().stats().memoryWrites),
                      fmtCount(cache.swapOuts)});

        json.row();
        json.set("bench", "migratory");
        json.set("protocol", illinois ? "Illinois" : "PIM");
        json.set("measured_bus_cycles",
                 static_cast<std::uint64_t>(sys.bus().stats().totalCycles));
        json.set("measured_mem_busy_cycles",
                 static_cast<std::uint64_t>(
                     sys.bus().stats().memoryBusyCycles));
        json.set("measured_mem_writes", sys.bus().stats().memoryWrites);
        json.set("measured_swap_outs", cache.swapOuts);
    }
    json.write();
    table.print(std::cout);

    std::printf(
        "\nShape checks: equal-ish bus cycles (the copy-back is snarfed"
        "\noff the same transfer), but the Illinois baseline keeps the"
        "\nshared-memory modules substantially busier (more memory"
        "\nwrites); PIM defers dirty data to explicit swap-outs. On the"
        "\nmigratory pattern every transfer is dirty, so the gap is"
        "\nlargest there — the paper's reason for adding SM.\n");
    return 0;
}

} // namespace
} // namespace pim::kl1::bench

int
main(int argc, char** argv)
{
    return pim::kl1::bench::runBenchMain(
        "ablation_sm_state", [&] { return pim::kl1::bench::run(argc, argv); });
}
