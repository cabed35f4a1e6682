/**
 * @file
 * Quickstart: compile a small FGHC program, run it on a simulated
 * 4-PE PIM machine, and inspect the answer and the cache statistics.
 *
 *   $ ./quickstart
 *
 * This is the smallest end-to-end use of the library: parse ->
 * compile -> emulate on the coherent-cache model -> read results.
 */

#include <cstdio>

#include "common/sim_fault.h"
#include "common/strutil.h"
#include "kl1/compiler.h"
#include "kl1/emulator.h"
#include "kl1/parser.h"

namespace {

int
run()
{
    using namespace pim;
    using namespace pim::kl1;

    // A classic stream program: generate 1..N, filter the odd numbers,
    // square them, and sum the squares. The three processes communicate
    // through shared logical variables (streams) and synchronize by
    // suspension — the execution model the PIM cache is designed for.
    const char* source = R"(
        main(N, R) :- true |
            gen(1, N, S), odds(S, T), squares(T, Q), total(Q, 0, R).

        gen(I, N, S) :- I > N  | S = [].
        gen(I, N, S) :- I =< N | S = [I|S1], I1 := I + 1, gen(I1, N, S1).

        odds([], T) :- true | T = [].
        odds([X|Xs], T) :- X mod 2 =:= 1 | T = [X|T1], odds(Xs, T1).
        odds([X|Xs], T) :- X mod 2 =:= 0 | odds(Xs, T).

        squares([], Q) :- true | Q = [].
        squares([X|Xs], Q) :- true | Y := X * X, Q = [Y|Q1],
                              squares(Xs, Q1).

        total([], Acc, R) :- true | R = Acc.
        total([X|Xs], Acc, R) :- true | A1 := Acc + X, total(Xs, A1, R).
    )";

    // 1. Parse and compile to the KL1-B abstract instruction set.
    Module module = compileProgram(parseProgram(source));
    std::printf("compiled %zu instructions (%u words of code)\n",
                module.code.size(), module.totalWords());

    // 2. Configure a machine: 4 PEs, the paper's base cache (4-Kword,
    //    4-way, 4-word blocks), all optimized commands enabled.
    Kl1Config config;
    config.numPes = 4;
    config.cache.geometry = {4, 4, 256};
    config.policy = OptPolicy::all();

    // 3. Run a query.
    Emulator emu(std::move(module), config);
    const RunStats stats = emu.run("main(100, R).");

    // 4. Read the answer and the measurements.
    for (const auto& [name, value] : emu.queryBindings())
        std::printf("%s = %s\n", name.c_str(), value.c_str());
    std::printf("\nreductions   %s\n", fmtCount(stats.reductions).c_str());
    std::printf("suspensions  %s\n", fmtCount(stats.suspensions).c_str());
    std::printf("instructions %s\n",
                fmtCount(stats.instructions).c_str());
    std::printf("memory refs  %s\n", fmtCount(stats.memoryRefs).c_str());
    std::printf("work stolen  %s goals\n", fmtCount(stats.steals).c_str());
    std::printf("makespan     %s bus-clock cycles\n",
                fmtCount(stats.makespan).c_str());

    const BusStats& bus = emu.system().bus().stats();
    const CacheStats cache = emu.system().totalCacheStats();
    std::printf("\nbus cycles   %s (miss ratio %.2f%%)\n",
                fmtCount(bus.totalCycles).c_str(),
                cache.missRatio() * 100);
    std::printf("DW no-fetch allocations: %s, blocks purged by ER/RP: "
                "%s\n",
                fmtCount(cache.dwAllocNoFetch).c_str(),
                fmtCount(cache.purges).c_str());
    std::printf("lock reads: %s (%.1f%% zero-bus)\n",
                fmtCount(cache.lrCount).c_str(),
                cache.lrCount == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(cache.lrHitExclusive) /
                          static_cast<double>(cache.lrCount));
    return 0;
}

} // namespace

int
main()
{
    return pim::runMain("quickstart", run);
}
