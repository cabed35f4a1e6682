/**
 * @file
 * The four KL1 benchmark programs of the paper's evaluation (Table 1),
 * synthesized in pure FGHC (see DESIGN.md Section 2 for the
 * substitutions):
 *
 *  - Tri: triangle (15-hole peg solitaire) exhaustive search — a wide,
 *    irregular search tree (the paper: height 12, branch factor 36)
 *    that stresses on-demand load balancing.
 *  - Semi: semigroup closure under x*y+1 mod M with a stream-merge
 *    manager — read-mostly membership scans over a small working set and
 *    very many suspensions.
 *  - Puzzle: exhaustive N-queens placement counting — dynamic structure
 *    creation (fresh occupancy lists per node), heap-write heavy.
 *  - Pascal: Pascal's-triangle rows as a pipeline of stream processes —
 *    producer/consumer chains with frequent suspension.
 */

#ifndef PIMCACHE_BENCH_KL1_PROGRAMS_H_
#define PIMCACHE_BENCH_KL1_PROGRAMS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pim::kl1::bench {

/** One benchmark: source text plus a scale-dependent query. */
struct BenchProgram {
    std::string name;   ///< "Tri", "Semi", "Puzzle", "Pascal".
    std::string source; ///< FGHC program text.
    /** Query for a given scale (1 = bench default, larger = longer). */
    std::string (*query)(std::uint32_t scale);
    /** Expected binding of R at the given scale (empty = unchecked). */
    std::string (*expected)(std::uint32_t scale);
};

/** FGHC source of the Tri benchmark (move table generated). */
std::string triSource();

/** FGHC source of the Semi benchmark. */
std::string semiSource();

/** FGHC source of the Puzzle benchmark. */
std::string puzzleSource();

/** FGHC source of the Pascal benchmark. */
std::string pascalSource();

/** All four benchmarks, in the paper's order. */
const std::vector<BenchProgram>& allBenchmarks();

/** Find a benchmark by (case-sensitive) name; SimFault(Config) if unknown. */
const BenchProgram& benchmarkByName(const std::string& name);

} // namespace pim::kl1::bench

#endif // PIMCACHE_BENCH_KL1_PROGRAMS_H_
