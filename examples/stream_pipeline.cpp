/**
 * @file
 * Stream AND-parallelism example: the prime sieve as a growing pipeline
 * of filter processes, run with and without the optimized cache
 * commands to show where DW / ER / RP / RI pay off.
 *
 *   $ ./stream_pipeline [--limit N] [--pes P]
 */

#include <cstdio>
#include <iostream>

#include "common/options.h"
#include "common/sim_fault.h"
#include "common/strutil.h"
#include "common/table.h"
#include "kl1/compiler.h"
#include "kl1/emulator.h"
#include "kl1/parser.h"

namespace {

const char* kSieve = R"(
    % primes(N, Ps): the primes up to N, by a pipeline of filters.
    % Each prime found appends one more filter process to the pipeline;
    % the generator streams candidates through all of them.
    primes(N, Ps) :- true | gen(2, N, S), sift(S, Ps).

    gen(I, N, S) :- I > N  | S = [].
    gen(I, N, S) :- I =< N | S = [I|T], I1 := I + 1, gen(I1, N, T).

    sift([], Ps) :- true | Ps = [].
    sift([P|Xs], Ps) :- true | Ps = [P|Ps1], filter(P, Xs, Ys),
                        sift(Ys, Ps1).

    filter(_, [], Ys) :- true | Ys = [].
    filter(P, [X|Xs], Ys) :- X mod P =:= 0 | filter(P, Xs, Ys).
    filter(P, [X|Xs], Ys) :- X mod P =\= 0 | Ys = [X|Ys1],
                             filter(P, Xs, Ys1).

    count([], N, C) :- true | C = N.
    count([_|Xs], N, C) :- true | N1 := N + 1, count(Xs, N1, C).

    main(N, C) :- true | primes(N, Ps), count(Ps, 0, C).
)";

int
run(const pim::Options& opts)
{
    using namespace pim;
    using namespace pim::kl1;

    const std::int64_t limit = opts.getInt("limit", 400);
    const std::uint32_t pes =
        static_cast<std::uint32_t>(opts.getInt("pes", 4));

    std::printf("prime sieve up to %lld on %u PEs\n\n",
                static_cast<long long>(limit), pes);

    Table table("optimized commands: on vs off");
    table.setHeader({"metric", "All opts", "None"});

    RunStats stats[2];
    BusStats bus[2];
    std::string answer[2];
    std::uint64_t suspensions[2];
    for (int which = 0; which < 2; ++which) {
        Kl1Config config;
        config.numPes = pes;
        config.policy =
            which == 0 ? OptPolicy::all() : OptPolicy::none();
        Module module = compileProgram(parseProgram(kSieve));
        Emulator emu(std::move(module), config);
        stats[which] = emu.run("main(" + std::to_string(limit) +
                               ", C).");
        bus[which] = emu.system().bus().stats();
        suspensions[which] = stats[which].suspensions;
        for (const auto& [name, value] : emu.queryBindings()) {
            if (name == "C")
                answer[which] = value;
        }
    }

    table.addRow({"primes found", answer[0], answer[1]});
    table.addRow({"reductions", fmtCount(stats[0].reductions),
                  fmtCount(stats[1].reductions)});
    table.addRow({"suspensions", fmtCount(suspensions[0]),
                  fmtCount(suspensions[1])});
    table.addRow({"bus cycles", fmtCount(bus[0].totalCycles),
                  fmtCount(bus[1].totalCycles)});
    table.addRow({"memory writes", fmtCount(bus[0].memoryWrites),
                  fmtCount(bus[1].memoryWrites)});
    table.addRow({"makespan", fmtCount(stats[0].makespan),
                  fmtCount(stats[1].makespan)});
    table.print(std::cout);

    std::printf("\nThe pipeline suspends whenever a filter outruns its"
                "\nupstream producer; the answers agree, only the traffic"
                "\ndiffers (%.0f%% of the unoptimized bus cycles).\n",
                100.0 * static_cast<double>(bus[0].totalCycles) /
                    static_cast<double>(bus[1].totalCycles));
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace pim;

    const Flag flags[] = {{"limit", Flag::Count}, {"pes", Flag::Count}};
    const std::optional<Options> parsed = Options::parse(argc, argv, flags);
    if (!parsed)
        return 1;
    return runMain("stream_pipeline", [&] { return run(*parsed); });
}
