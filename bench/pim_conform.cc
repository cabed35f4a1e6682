/**
 * @file
 * Protocol conformance engine CLI (docs/TESTING.md, ctest label
 * `conform`).
 *
 * Modes:
 *  - exhaustive exploration (default): BFS over all interleavings of
 *    the bounded command alphabet for a small configuration, with the
 *    full differential + invariant check battery on every edge.
 *      pim_conform --pes=2 --blocks=1 --depth=8
 *  - differential fuzzing: seeded random long traces, shrunk to a
 *    minimal reproducer on divergence.
 *      pim_conform --fuzz --seed=7 --traces=50 --len=300
 *  - replay: run a shrunk reproducer script back under full checking.
 *      pim_conform --replay='P0:W@0=1;P1:R@0'
 *
 * --protocol=NAME selects the coherence-protocol variant under test
 * (see --list-protocols; default pim) and --replacement=NAME the
 * replacement policy (lru, fifo, random) — the zoo's conformance axis.
 *
 * --mutate=NAME arms one seeded protocol bug (see --list-mutations);
 * with --expect-divergence the exit code inverts, so the conformance
 * ctest suite proves the engine catches every mutation — and prints the
 * shrunk reproducer it found. --max-shrunk=N additionally fails if the
 * reproducer needs more than N commands.
 */

#include <cstdio>
#include <string>

#include "common/options.h"
#include "common/sim_fault.h"
#include "model/explorer.h"
#include "model/fuzzer.h"

using namespace pim;

namespace {

HarnessConfig
harnessFromOptions(const Options& opt)
{
    HarnessConfig config;
    config.numPes = static_cast<std::uint32_t>(opt.getInt("pes", 2));
    config.blocks = static_cast<std::uint32_t>(opt.getInt("blocks", 1));
    config.blockWords =
        static_cast<std::uint32_t>(opt.getInt("block-words", 2));
    config.ways = static_cast<std::uint32_t>(opt.getInt("ways", 1));
    config.sets = static_cast<std::uint32_t>(opt.getInt("sets", 1));
    config.lockEntries =
        static_cast<std::uint32_t>(opt.getInt("lock-entries", 2));
    config.clusterSize =
        static_cast<std::uint32_t>(opt.getInt("cluster-size", 0));
    config.hopCycles =
        static_cast<std::uint32_t>(opt.getInt("hop-cycles", 4));
    const std::string mutate = opt.getString("mutate", "none");
    if (!parseProtocolMutation(mutate, &config.mutation)) {
        std::fprintf(stderr,
                     "pim_conform: unknown mutation '%s' "
                     "(see --list-mutations)\n",
                     mutate.c_str());
        std::exit(2);
    }
    const std::string protocol = opt.getString("protocol", "pim");
    if (!parseProtocolKind(protocol, &config.protocol)) {
        std::fprintf(stderr,
                     "pim_conform: unknown protocol '%s' "
                     "(see --list-protocols)\n",
                     protocol.c_str());
        std::exit(2);
    }
    const std::string replacement = opt.getString("replacement", "lru");
    if (!parseReplacementKind(replacement, &config.replacement)) {
        std::fprintf(stderr,
                     "pim_conform: unknown replacement policy '%s' "
                     "(lru, fifo, random)\n",
                     replacement.c_str());
        std::exit(2);
    }
    return config;
}

void
printDivergence(const std::string& message,
                const std::vector<ProtoCmd>& trace)
{
    std::printf("DIVERGENCE: %s\n", message.c_str());
    std::printf("trace (%zu commands):\n", trace.size());
    for (const ProtoCmd& cmd : trace)
        std::printf("  %s\n", cmdToString(cmd).c_str());
    std::printf("replay: pim_conform --replay='%s'\n",
                traceToString(trace).c_str());
}

/** Exit code honoring --expect-divergence and --max-shrunk. */
int
verdict(const Options& opt, bool diverged, std::size_t shrunk_len)
{
    const bool expect = opt.has("expect-divergence");
    if (expect && !diverged) {
        std::printf("FAIL: expected a divergence, found none\n");
        return 1;
    }
    if (!expect && diverged)
        return 1;
    if (expect && opt.has("max-shrunk")) {
        const std::size_t cap =
            static_cast<std::size_t>(opt.getInt("max-shrunk", 0));
        if (shrunk_len > cap) {
            std::printf("FAIL: shrunk reproducer has %zu commands, "
                        "cap is %zu\n",
                        shrunk_len, cap);
            return 1;
        }
    }
    std::printf("OK\n");
    return 0;
}

const Flag kFlags[] = {
    {"pes", Flag::Count},          {"blocks", Flag::Count},
    {"block-words", Flag::Count},  {"ways", Flag::Count},
    {"sets", Flag::Count},         {"lock-entries", Flag::Count},
    {"cluster-size", Flag::Count}, {"hop-cycles", Flag::Count},
    {"mutate", Flag::String},      {"protocol", Flag::String},
    {"replacement", Flag::String}, {"replay", Flag::String},
    {"fuzz", Flag::Bool},          {"seed", Flag::Count},
    {"traces", Flag::Count},       {"len", Flag::Count},
    {"no-shrink", Flag::Bool},     {"depth", Flag::Count},
    {"max-states", Flag::Count},   {"expect-divergence", Flag::Bool},
    {"max-shrunk", Flag::Count},   {"list-mutations", Flag::Bool},
    {"list-protocols", Flag::Bool},
};

} // namespace

int
main(int argc, char** argv)
{
    const std::optional<Options> parsed = Options::parse(argc, argv, kFlags);
    if (!parsed)
        return 2;
    const Options& opt = *parsed;

    if (opt.has("list-mutations")) {
        for (int i = 1; i < kNumProtocolMutations; ++i) {
            std::printf("%s\n", protocolMutationName(
                                    static_cast<ProtocolMutation>(i)));
        }
        return 0;
    }

    if (opt.has("list-protocols")) {
        for (int i = 0; i < kNumProtocolKinds; ++i) {
            std::printf("%s\n",
                        protocolKindName(static_cast<ProtocolKind>(i)));
        }
        return 0;
    }

    const HarnessConfig harness = harnessFromOptions(opt);

    return runMain("pim_conform", [&] {
        if (opt.has("replay")) {
            const std::vector<ProtoCmd> trace =
                parseTrace(opt.getString("replay"));
            ConformanceHarness replayer(harness);
            bool diverged = false;
            std::string message;
            std::size_t executed = 0;
            try {
                executed = replayer.replayLenient(trace);
            } catch (const SimFault& fault) {
                diverged = true;
                message = fault.message();
                executed = static_cast<std::size_t>(replayer.checksRun());
            }
            std::printf("replayed %zu of %zu commands, %llu check "
                        "groups\n",
                        executed, trace.size(),
                        static_cast<unsigned long long>(
                            replayer.checksRun()));
            if (diverged)
                printDivergence(message, trace);
            return verdict(opt, diverged, trace.size());
        }

        if (opt.has("fuzz")) {
            FuzzConfig config;
            config.harness = harness;
            config.seed = static_cast<std::uint64_t>(opt.getInt("seed", 1));
            config.traces =
                static_cast<std::uint32_t>(opt.getInt("traces", 20));
            config.len = static_cast<std::uint32_t>(opt.getInt("len", 200));
            config.shrink = !opt.has("no-shrink");
            const FuzzResult result = fuzz(config);
            std::printf("fuzz: %llu traces, %llu commands, protocol=%s, "
                        "mutation=%s\n",
                        static_cast<unsigned long long>(result.tracesRun),
                        static_cast<unsigned long long>(result.commandsRun),
                        protocolKindName(harness.protocol),
                        protocolMutationName(harness.mutation));
            if (result.divergence) {
                std::printf("failing seed: %llu\n",
                            static_cast<unsigned long long>(
                                result.failingSeed));
                printDivergence(result.shrunkMessage.empty()
                                    ? result.divergenceMessage
                                    : result.shrunkMessage,
                                result.shrunk);
            }
            return verdict(opt, result.divergence, result.shrunk.size());
        }

        ExploreConfig config;
        config.harness = harness;
        config.depth = static_cast<std::uint32_t>(opt.getInt("depth", 8));
        config.maxStates = static_cast<std::uint64_t>(
            opt.getInt("max-states", 500000));
        const ExploreResult result = explore(config);
        std::printf("explore: %llu states, %llu edges, %llu step checks, "
                    "depth=%u, protocol=%s, mutation=%s%s\n",
                    static_cast<unsigned long long>(result.states),
                    static_cast<unsigned long long>(result.edges),
                    static_cast<unsigned long long>(result.checks),
                    config.depth, protocolKindName(harness.protocol),
                    protocolMutationName(harness.mutation),
                    result.truncated ? " (truncated by --max-states)" : "");
        if (result.divergence)
            printDivergence(result.divergenceMessage,
                            result.divergenceTrace);
        return verdict(opt, result.divergence,
                       result.divergenceTrace.size());
    });
}
