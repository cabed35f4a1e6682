/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every binary accepts --scale N (or REPRO_SCALE) and --pes N (or
 * REPRO_PES), refuses any other flag it does not read (exit 1), prints
 * the paper's reference numbers next to the measured ones, and exits
 * nonzero only on simulator errors — absolute-number mismatches with the
 * paper are expected (our substrate is a synthesized workload on a
 * simulator, not ICOT's emulator on a Sequent; see EXPERIMENTS.md for
 * the shape criteria).
 */

#ifndef PIMCACHE_BENCH_BENCH_UTIL_H_
#define PIMCACHE_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <string>
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
     * Parse argv. Exits 1 on a flag other than --scale, --pes and the
     * binary's own @p extra flags: a mistyped or retired flag would
     * otherwise run the default tables without a word.
     */
    static BenchContext
    parse(int argc, const char* const* argv,
          std::initializer_list<const char*> extra = {})
    {
        std::vector<const char*> known = {"scale", "pes"};
        known.insert(known.end(), extra);
        const std::string tool =
            std::filesystem::path(argv[0]).filename().string();
        if (!flagsAreKnown(tool.c_str(), argc, argv, known))
            std::exit(1);
        BenchContext ctx;
        ctx.options = Options::parse(argc, argv);
        ctx.scale = static_cast<std::uint32_t>(ctx.options.getIntEnv(
            "scale", "REPRO_SCALE", defaultScale()));
        ctx.pes = static_cast<std::uint32_t>(
            ctx.options.getIntEnv("pes", "REPRO_PES", 8));
        return ctx;
    }
};

/**
 * Shared `main` body for the reproduction binaries: run @p body,
 * converting an escaped SimFault into a one-line structured error on
 * stderr (kind + message) and the exit code of its family
 * (simFaultExitCode: 10 config, 11 parse, 12 detection, 13 liveness,
 * 14 execution bound) — so scripts can triage failures without parsing
 * prose.
 */
template <typename Body>
int
runBenchMain(const char* name, Body&& body)
{
    try {
        return body();
    } catch (const SimFault& fault) {
        std::fprintf(stderr, "%s: error: kind=%s exit=%d %s\n", name,
                     simFaultKindName(fault.kind()),
                     simFaultExitCode(fault.kind()), fault.what());
        return simFaultExitCode(fault.kind());
    }
}

/** Print the standard banner for a reproduction binary. */
inline void
banner(const std::string& title, const BenchContext& ctx)
{
    std::printf("== %s ==\n", title.c_str());
    std::printf("workload scale %u, %u PEs (override with --scale/--pes "
                "or REPRO_SCALE/REPRO_PES)\n\n",
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
