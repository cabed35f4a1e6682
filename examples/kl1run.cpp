/**
 * @file
 * kl1run: the command-line KL1/FGHC interpreter on the simulated PIM
 * machine — the tool a downstream user reaches for first.
 *
 *   $ ./kl1run program.fghc "main(10, R)." [options]
 *
 * Options:
 *   --pes N          number of processing elements (default 8)
 *   --policy P       all | none | heap | goal | comm (default all)
 *   --block W        cache block words (default 4)
 *   --ways W         cache associativity (default 4)
 *   --capacity W     cache data words per PE (default 4096)
 *   --illinois       use the copy-back-on-share baseline protocol
 *   --gc             enable stop-and-copy heap GC (semispace heaps)
 *   --heap W         heap words per PE (default 2^22)
 *   --stats          print the full statistics breakdown
 *   --report         print every standard report table
 *   --disasm         print the compiled KL1-B code and exit
 *   --trace FILE     record the memory-reference trace to FILE
 */

#include <cstdio>
#include <iostream>
#include <fstream>
#include <sstream>

#include "common/options.h"
#include "common/sim_fault.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/xassert.h"
#include "kl1/compiler.h"
#include "kl1/emulator.h"
#include "kl1/parser.h"
#include "sim/report.h"
#include "trace/trace_file.h"

int
main(int argc, char** argv)
{
    using namespace pim;
    using namespace pim::kl1;

    const Options opts = Options::parse(argc, argv);
    if (opts.positional().size() < 1) {
        std::fprintf(stderr,
                     "usage: kl1run program.fghc [\"query(Args, R).\"] "
                     "[--pes N] [--policy all|none|heap|goal|comm]\n"
                     "       [--block W --ways N --capacity W] "
                     "[--illinois] [--stats] [--disasm] [--trace F]\n");
        return 1;
    }

    std::ifstream file(opts.positional()[0]);
    if (!file)
        PIM_FATAL("cannot open ", opts.positional()[0]);
    std::stringstream buffer;
    buffer << file.rdbuf();

    Module module;
    try {
        module = compileProgram(
            parseProgram(buffer.str(), opts.positional()[0]));
    } catch (const SimFault& fault) {
        std::fprintf(stderr, "kl1run: %s\n", fault.what());
        return 1;
    }
    if (opts.getBool("disasm")) {
        std::fputs(module.disassembleAll().c_str(), stdout);
        return 0;
    }

    const std::string query = opts.positional().size() >= 2
                                  ? opts.positional()[1]
                                  : "main(R).";

    Kl1Config config;
    config.numPes = static_cast<std::uint32_t>(opts.getInt("pes", 8));
    const std::string policy = opts.getString("policy", "all");
    if (policy == "all") {
        config.policy = OptPolicy::all();
    } else if (policy == "none") {
        config.policy = OptPolicy::none();
    } else if (policy == "heap") {
        config.policy = OptPolicy::heapOnly();
    } else if (policy == "goal") {
        config.policy = OptPolicy::goalOnly();
    } else if (policy == "comm") {
        config.policy = OptPolicy::commOnly();
    } else {
        PIM_FATAL("unknown --policy ", policy);
    }
    config.cache.geometry = CacheGeometry::forCapacity(
        opts.getInt("capacity", 4096),
        static_cast<std::uint32_t>(opts.getInt("block", 4)),
        static_cast<std::uint32_t>(opts.getInt("ways", 4)));
    if (opts.getBool("illinois"))
        config.cache.protocol = ProtocolKind::MESI;
    config.enableGc = opts.getBool("gc");
    config.layout.heapWordsPerPe =
        static_cast<std::uint64_t>(opts.getInt("heap", 1 << 22));

    Emulator emu(std::move(module), config);

    std::unique_ptr<TraceWriter> writer;
    const std::string trace_path = opts.getString("trace", "");
    if (!trace_path.empty()) {
        writer = std::make_unique<TraceWriter>(trace_path,
                                               config.numPes);
        emu.system().setRefObserver(
            [&](const MemRef& ref) { writer->append(ref); });
    }

    RunStats stats;
    try {
        stats = emu.run(query);
    } catch (const SimFault& fault) {
        std::fprintf(stderr, "kl1run: %s\n", fault.what());
        return 1;
    }

    for (const std::string& result : emu.results())
        std::printf("result: %s\n", result.c_str());
    for (const auto& [name, value] : emu.queryBindings())
        std::printf("%s = %s\n", name.c_str(), value.c_str());

    std::printf("\n%s reductions, %s suspensions, %s steals, "
                "%s cycles\n",
                fmtCount(stats.reductions).c_str(),
                fmtCount(stats.suspensions).c_str(),
                fmtCount(stats.steals).c_str(),
                fmtCount(stats.makespan).c_str());
    if (stats.gc.collections > 0) {
        std::printf("%s GCs: %s words copied, %s reclaimed\n",
                    fmtCount(stats.gc.collections).c_str(),
                    fmtCount(stats.gc.wordsCopied).c_str(),
                    fmtCount(stats.gc.wordsReclaimed).c_str());
    }

    if (writer) {
        std::printf("trace: %s refs -> %s\n",
                    fmtCount(writer->recordsWritten()).c_str(),
                    trace_path.c_str());
        writer->close();
    }

    if (opts.getBool("report"))
        std::fputs(reportAll(emu.system()).c_str(), stdout);
    if (opts.getBool("stats")) {
        const BusStats& bus = emu.system().bus().stats();
        const CacheStats cache = emu.system().totalCacheStats();
        const RefStats& refs = emu.system().refStats();
        Table table("statistics");
        table.setHeader({"metric", "value"});
        table.addRow({"memory references", fmtCount(refs.total())});
        table.addRow({"instructions",
                      fmtCount(stats.instructions)});
        table.addRow({"bus cycles", fmtCount(bus.totalCycles)});
        table.addRow({"miss ratio %",
                      fmtFixed(cache.missRatio() * 100, 2)});
        table.addRow({"memory busy cycles",
                      fmtCount(bus.memoryBusyCycles)});
        table.addRow({"swap-outs", fmtCount(cache.swapOuts)});
        table.addRow({"purges (ER/RP)", fmtCount(cache.purges)});
        table.addRow({"DW no-fetch", fmtCount(cache.dwAllocNoFetch)});
        table.addRow({"LR zero-bus %",
                      fmtFixed(cache.lrCount == 0
                                   ? 0.0
                                   : 100.0 *
                                         static_cast<double>(
                                             cache.lrHitExclusive) /
                                         static_cast<double>(
                                             cache.lrCount),
                               1)});
        Table areas("\nbus cycles by area");
        areas.setHeader({"area", "cycles"});
        for (int a = 0; a < kNumAreas; ++a) {
            areas.addRow({areaName(static_cast<Area>(a)),
                          fmtCount(bus.cyclesByArea[a])});
        }
        table.print(std::cout);
        areas.print(std::cout);
    }
    return 0;
}
