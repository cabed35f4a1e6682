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
 *   --report         print the emulator step counts and every standard
 *                    report table
 *   --disasm         print the compiled KL1-B code and exit
 *   --trace FILE     record the memory-reference trace to FILE
 *
 * A bad command line exits 1; a SimFault from the program or the machine
 * is one "kl1run: error: kind=..." line and its family exit code.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "common/strutil.h"
#include "kl1/compiler.h"
#include "kl1/emulator.h"
#include "kl1/parser.h"
#include "sim/report.h"
#include "trace/trace_file.h"

namespace {

using namespace pim;
using namespace pim::kl1;

int
usageError(const std::string& reason)
{
    std::fprintf(stderr, "kl1run: %s\n", reason.c_str());
    return 1;
}

int
run(const Options& opts)
{
    const std::string path = opts.positional()[0];
    std::ifstream file(path);
    if (!file)
        return usageError("cannot open " + path);
    std::stringstream buffer;
    buffer << file.rdbuf();

    Module module = compileProgram(parseProgram(buffer.str(), path));
    if (opts.has("disasm")) {
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
        return usageError("unknown --policy " + policy);
    }
    config.cache.geometry = CacheGeometry::forCapacity(
        opts.getInt("capacity", 4096),
        static_cast<std::uint32_t>(opts.getInt("block", 4)),
        static_cast<std::uint32_t>(opts.getInt("ways", 4)));
    if (opts.has("illinois"))
        config.cache.protocol = ProtocolKind::MESI;
    config.enableGc = opts.has("gc");
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

    const RunStats stats = emu.run(query);

    for (const std::string& result : emu.results())
        std::printf("result: %s\n", result.c_str());
    for (const auto& [name, value] : emu.queryBindings())
        std::printf("%s = %s\n", name.c_str(), value.c_str());

    std::printf("\n%s reductions, %s KL1 instructions, %s suspensions, "
                "%s steals, %s cycles\n",
                fmtCount(stats.reductions).c_str(),
                fmtCount(stats.instructions).c_str(),
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

    if (opts.has("report")) {
        std::printf("%s emulator steps, %s on an idle PE, %s pure spins\n",
                    fmtCount(stats.steps).c_str(),
                    fmtCount(stats.idleSteps).c_str(),
                    fmtCount(stats.spins).c_str());
        std::fputs(reportAll(emu.system()).c_str(), stdout);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace pim;

    const Flag flags[] = {
        {"pes", Flag::Count},      {"policy", Flag::String},
        {"block", Flag::Count},    {"ways", Flag::Count},
        {"capacity", Flag::Count}, {"illinois", Flag::Bool},
        {"gc", Flag::Bool},        {"heap", Flag::Count},
        {"report", Flag::Bool},    {"disasm", Flag::Bool},
        {"trace", Flag::String},
    };
    // The program file, then the query.
    const std::optional<Options> parsed =
        Options::parse(argc, argv, flags, 2);
    if (!parsed)
        return 1;
    if (parsed->positional().empty()) {
        std::fprintf(stderr,
                     "usage: kl1run program.fghc [\"query(Args, R).\"] "
                     "[--pes N] [--policy all|none|heap|goal|comm]\n"
                     "       [--block W --ways N --capacity W] "
                     "[--illinois] [--gc --heap W] [--report] [--disasm] "
                     "[--trace F]\n");
        return 1;
    }
    return runMain("kl1run", [&] { return run(*parsed); });
}
