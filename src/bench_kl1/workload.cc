#include "bench_kl1/workload.h"

#include "common/sim_fault.h"
#include "kl1/compiler.h"
#include "kl1/parser.h"

namespace pim::kl1::bench {

Kl1Config
paperConfig(std::uint32_t num_pes, OptPolicy policy)
{
    Kl1Config config;
    config.numPes = num_pes;
    config.cache.geometry = {4, 4, 256}; // four Kwords
    config.cache.lockEntries = 2;
    config.timing = BusTiming{};         // 1-word bus, 8-cycle memory
    config.policy = policy;
    config.layout.instrWords = 1 << 16;
    config.layout.heapWordsPerPe = 1 << 23;
    config.layout.goalWordsPerPe = 1 << 19;
    config.layout.suspWordsPerPe = 1 << 17;
    config.layout.commWordsPerPe = 1 << 12;
    config.maxSteps = 4'000'000'000ull;
    return config;
}

BenchResult
runBenchmark(const BenchProgram& bench, std::uint32_t scale,
             const Kl1Config& config)
{
    BenchResult result;
    result.name = bench.name;
    result.query = bench.query(scale);
    result.expected = bench.expected(scale);
    result.numPes = config.numPes;
    for (char c : bench.source)
        result.sourceLines += c == '\n';

    Module module = compileProgram(parseProgram(bench.source));
    Emulator emu(std::move(module), config);
    result.run = emu.run(result.query);
    for (const auto& [name, value] : emu.queryBindings()) {
        if (name == "R")
            result.answer = value;
    }
    if (!result.expected.empty() && result.answer != result.expected) {
        throw PIM_SIM_FAULT(SimFaultKind::Corruption, "benchmark ",
                            bench.name, " computed ", result.answer,
                            " but the host-side mirror expected ",
                            result.expected);
    }
    result.refs = emu.system().refStats();
    result.bus = emu.system().bus().stats();
    result.cache = emu.system().totalCacheStats();
    return result;
}

} // namespace pim::kl1::bench
