/**
 * @file
 * Synthetic multi-PE reference-stream generators.
 *
 * Used by unit tests, property tests, the cache_explorer example and the
 * trace-driven bench binaries. Each builder returns a fully interleaved
 * trace (vector of MemRef) that can be replayed through
 * sim::TraceReplay.
 */

#ifndef PIMCACHE_TRACE_SYNTH_H_
#define PIMCACHE_TRACE_SYNTH_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "trace/ref.h"

namespace pim {

/** Parameters for the random-traffic generator. */
struct RandomTrafficConfig {
    std::uint32_t numPes = 4;
    std::uint64_t refsPerPe = 10000;
    Addr base = 0;
    std::uint64_t spanWords = 1 << 14;  ///< Shared working set span.
    std::uint32_t writePctX100 = 3000;  ///< Write fraction, basis points.
    std::uint32_t lockPctX100 = 0;      ///< LR..UW pair fraction, bp.
    std::uint64_t seed = 1;
};

/**
 * Uniform random reads/writes (optionally lock pairs) over one shared
 * region, round-robin across PEs.
 */
std::vector<MemRef> makeRandomTraffic(const RandomTrafficConfig& config);

/**
 * Strict write-once/read-once message traffic: the producer PE fills
 * @p message_words with DW (or W when @p optimized is false), then the
 * consumer PE reads them with ER and a final RP (or plain R). Buffers
 * advance through @p num_messages distinct records starting at @p base,
 * recycling over @p pool_words.
 */
std::vector<MemRef> makeProducerConsumer(PeId producer, PeId consumer,
                                         std::uint32_t num_pes, Addr base,
                                         std::uint64_t pool_words,
                                         std::uint32_t message_words,
                                         std::uint64_t num_messages,
                                         bool optimized);

/**
 * Migratory sharing: each block is read-modified-written by PE 0, then
 * PE 1, ... round-robin. The pattern where the SM state (no copy-back on
 * cache-to-cache transfer) saves the most memory-module traffic.
 */
std::vector<MemRef> makeMigratory(std::uint32_t num_pes, Addr base,
                                  std::uint64_t num_blocks,
                                  std::uint32_t block_words,
                                  std::uint32_t rounds);

/**
 * Lock contention: @p num_pes PEs repeatedly LR/UW the same word
 * (@p hot) with probability @p conflict_pct_x100 / 10000, otherwise a
 * PE-private word. Models the paper's claim that KL1 locks are frequent
 * but rarely conflicting.
 */
std::vector<MemRef> makeLockTraffic(std::uint32_t num_pes, Addr hot,
                                    Addr private_base, std::uint64_t rounds,
                                    std::uint32_t conflict_pct_x100,
                                    std::uint64_t seed);

/**
 * OR-parallel Prolog (Aurora-style) access pattern, per the paper's
 * Section 5 claim that the PIM cache also suits non-committed-choice
 * architectures: workers read a shared read-only program/clause region,
 * write mostly to private binding-array regions (high write frequency,
 * no sharing), and occasionally grab a task from another worker's
 * region (write-once/read-once task descriptors).
 */
std::vector<MemRef> makeOrParallel(std::uint32_t num_pes, Addr shared_base,
                                   std::uint64_t shared_words,
                                   Addr private_base,
                                   std::uint64_t private_stride,
                                   std::uint64_t refs_per_pe,
                                   std::uint32_t task_grab_pct_x100,
                                   std::uint64_t seed);

/**
 * Heap-growth pattern: each PE appends fresh structures to its own heap
 * segment (DW when @p optimized), then re-reads a random recent
 * structure. Approximates KL1 heap allocation behaviour.
 */
std::vector<MemRef> makeHeapGrowth(std::uint32_t num_pes, Addr base,
                                   std::uint64_t seg_stride,
                                   std::uint64_t structs_per_pe,
                                   std::uint32_t struct_words,
                                   bool optimized, std::uint64_t seed);

} // namespace pim

#endif // PIMCACHE_TRACE_SYNTH_H_
