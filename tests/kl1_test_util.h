/**
 * @file
 * Shared helpers for KL1 tests: compile source, run a query on a small
 * simulated machine, return results and statistics.
 */

#ifndef PIMCACHE_TESTS_KL1_TEST_UTIL_H_
#define PIMCACHE_TESTS_KL1_TEST_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "kl1/compiler.h"
#include "kl1/emulator.h"
#include "kl1/parser.h"

namespace pim::kl1::testutil {

/** Outcome of a test run. */
struct Outcome {
    RunStats stats;
    std::vector<std::string> results;
    std::map<std::string, std::string> bindings;
    CacheStats cache;
    BusStats bus;
    RefStats refs;
};

/** A small test configuration: @p pes PEs, modest areas. */
inline Kl1Config
smallConfig(std::uint32_t pes = 4)
{
    Kl1Config config;
    config.numPes = pes;
    config.cache.geometry = {4, 4, 64}; // 1 Kword per PE
    config.layout.instrWords = 1 << 14;
    config.layout.heapWordsPerPe = 1 << 20;
    config.layout.goalWordsPerPe = 1 << 16;
    config.layout.suspWordsPerPe = 1 << 14;
    config.layout.commWordsPerPe = 1 << 12;
    config.maxSteps = 100'000'000;
    return config;
}

/** Compile @p source and run @p query; a program error is a SimFault. */
inline Outcome
run(const std::string& source, const std::string& query,
    const Kl1Config& config = smallConfig())
{
    Module module = compileProgram(parseProgram(source));
    Emulator emu(std::move(module), config);
    Outcome out;
    out.stats = emu.run(query);
    out.results = emu.results();
    for (const auto& [name, value] : emu.queryBindings())
        out.bindings[name] = value;
    out.cache = emu.system().totalCacheStats();
    out.bus = emu.system().bus().stats();
    out.refs = emu.system().refStats();
    return out;
}

} // namespace pim::kl1::testutil

#endif // PIMCACHE_TESTS_KL1_TEST_UTIL_H_
