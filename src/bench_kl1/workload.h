/**
 * @file
 * Benchmark runner: executes one of the four KL1 benchmarks on a given
 * machine configuration and collects every statistic the paper's tables
 * and figures report.
 */

#ifndef PIMCACHE_BENCH_KL1_WORKLOAD_H_
#define PIMCACHE_BENCH_KL1_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "bench_kl1/programs.h"
#include "kl1/emulator.h"

namespace pim::kl1::bench {

/** Everything measured in one benchmark run. */
struct BenchResult {
    std::string name;
    std::string query;
    std::string answer;       ///< Binding of R.
    std::string expected;     ///< Host-side mirror computation.
    RunStats run;
    RefStats refs;
    BusStats bus;
    CacheStats cache;
    std::uint32_t numPes = 0;
    std::uint64_t sourceLines = 0;
};

/**
 * The paper's base machine: 8 PEs, four-Kword four-way set-associative
 * caches with four-word blocks, one-word bus, eight-cycle memory.
 */
Kl1Config paperConfig(std::uint32_t num_pes = 8,
                      OptPolicy policy = OptPolicy::all());

/**
 * Run @p bench at @p scale on @p config and collect the metrics;
 * SimFault(Corruption) if the answer differs from the host-side mirror.
 */
BenchResult runBenchmark(const BenchProgram& bench, std::uint32_t scale,
                         const Kl1Config& config);

} // namespace pim::kl1::bench

#endif // PIMCACHE_BENCH_KL1_WORKLOAD_H_
