/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every binary accepts --scale N (default 2) and --pes N (default 8),
 * refuses any other flag, any positional argument and any number that
 * does not parse whole (exit 1), prints the paper's reference numbers
 * next to the measured ones, and otherwise exits nonzero only on a
 * SimFault (pim::runMain) — absolute-number mismatches with the paper
 * are expected (our substrate is a synthesized workload on a simulator,
 * not ICOT's emulator on a Sequent; see EXPERIMENTS.md for the shape
 * criteria).
 */

#ifndef PIMCACHE_BENCH_BENCH_UTIL_H_
#define PIMCACHE_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_kl1/programs.h"
#include "bench_kl1/workload.h"
#include "common/options.h"
#include "common/sim_fault.h"
#include "common/strutil.h"
#include "common/table.h"

namespace pim::kl1::bench {

/** Common command-line context for bench binaries. */
struct BenchContext {
    Options options;
    std::uint32_t scale = 2;
    std::uint32_t pes = 8;

    /**
     * Parse argv: --scale, --pes and the binary's own @p extra flags.
     * Exits 1 on anything Options::parse refuses: a mistyped or retired
     * flag would otherwise run the default tables without a word.
     */
    static BenchContext
    parse(int argc, const char* const* argv,
          std::initializer_list<Flag> extra = {})
    {
        std::vector<Flag> flags = {{"scale", Flag::Count},
                                   {"pes", Flag::Count}};
        flags.insert(flags.end(), extra);
        std::optional<Options> parsed = Options::parse(argc, argv, flags);
        if (!parsed)
            std::exit(1);
        BenchContext ctx;
        ctx.options = std::move(*parsed);
        ctx.scale = static_cast<std::uint32_t>(
            ctx.options.getInt("scale", ctx.scale));
        ctx.pes =
            static_cast<std::uint32_t>(ctx.options.getInt("pes", ctx.pes));
        return ctx;
    }
};

/** Print the standard banner for a reproduction binary. */
inline void
banner(const std::string& title, const BenchContext& ctx)
{
    std::printf("== %s ==\n", title.c_str());
    std::printf("workload scale %u, %u PEs (override with --scale/--pes)\n\n",
                ctx.scale, ctx.pes);
}

/** Percentage of @p part in @p whole (0 when whole is 0). */
inline double
pct(double part, double whole)
{
    return whole == 0.0 ? 0.0 : 100.0 * part / whole;
}

/** Mean of a vector. */
inline double
mean(const std::vector<double>& values)
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/** Population standard deviation of a vector. */
inline double
stddev(const std::vector<double>& values)
{
    const double m = mean(values);
    double sum = 0;
    for (double v : values)
        sum += (v - m) * (v - m);
    return values.empty()
               ? 0.0
               : std::sqrt(sum / static_cast<double>(values.size()));
}

} // namespace pim::kl1::bench

#endif // PIMCACHE_BENCH_BENCH_UTIL_H_
