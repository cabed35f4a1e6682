/**
 * @file
 * Multi-PE KL1 tests: on-demand goal stealing through the communication
 * area, cross-PE suspension/resumption through shared logical variables,
 * and functional invariance — program results must not depend on the PE
 * count, the cache geometry, or the optimization policy (only traffic
 * and timing may change).
 */

#include <gtest/gtest.h>

#include "kl1_test_util.h"

namespace pim::kl1 {
namespace {

using testutil::Outcome;
using testutil::run;
using testutil::smallConfig;

/** Fork-join tree: 2^N leaves summed through suspending sum/3 joins. */
const char* kTreeSrc =
    "tree(0, R) :- true | R = 1.\n"
    "tree(N, R) :- N > 0 | N1 := N - 1, tree(N1, A), tree(N1, B),\n"
    "              sum(A, B, R).\n"
    "sum(A, B, R) :- integer(A), integer(B) | R := A + B.\n";

const char* kPrimesSrc =
    "primes(N, Ps) :- true | gen(2, N, S), sift(S, Ps).\n"
    "gen(I, N, S) :- I > N | S = [].\n"
    "gen(I, N, S) :- I =< N | S = [I|T], I1 := I + 1, gen(I1, N, T).\n"
    "sift([], Ps) :- true | Ps = [].\n"
    "sift([P|Xs], Ps) :- true | Ps = [P|Ps1], filter(P, Xs, Ys),\n"
    "                    sift(Ys, Ps1).\n"
    "filter(_, [], Ys) :- true | Ys = [].\n"
    "filter(P, [X|Xs], Ys) :- X mod P =:= 0 | filter(P, Xs, Ys).\n"
    "filter(P, [X|Xs], Ys) :- X mod P =\\= 0 | Ys = [X|Ys1],\n"
    "                         filter(P, Xs, Ys1).\n";

TEST(Kl1Parallel, TreeSumCorrectOnEveryPeCount)
{
    for (std::uint32_t pes : {1u, 2u, 3u, 4u, 8u}) {
        const Outcome out =
            run(kTreeSrc, "tree(7, R).", smallConfig(pes));
        EXPECT_EQ(out.bindings.at("R"), "128") << pes << " PEs";
    }
}

TEST(Kl1Parallel, WorkIsActuallyStolen)
{
    const Outcome out = run(kTreeSrc, "tree(8, R).", smallConfig(4));
    EXPECT_EQ(out.bindings.at("R"), "256");
    EXPECT_GT(out.stats.steals, 0u);
}

TEST(Kl1Parallel, ParallelRunIsFaster)
{
    const Outcome seq = run(kTreeSrc, "tree(9, R).", smallConfig(1));
    const Outcome par = run(kTreeSrc, "tree(9, R).", smallConfig(8));
    EXPECT_EQ(seq.bindings.at("R"), par.bindings.at("R"));
    EXPECT_LT(par.stats.makespan, seq.stats.makespan);
    // A real speedup, not a rounding artifact.
    EXPECT_LT(par.stats.makespan, seq.stats.makespan * 3 / 4);
}

TEST(Kl1Parallel, ReductionCountIndependentOfPes)
{
    const Outcome a = run(kTreeSrc, "tree(6, R).", smallConfig(1));
    const Outcome b = run(kTreeSrc, "tree(6, R).", smallConfig(4));
    EXPECT_EQ(a.stats.reductions, b.stats.reductions);
}

TEST(Kl1Parallel, PrimesAcrossPeCounts)
{
    for (std::uint32_t pes : {1u, 4u}) {
        const Outcome out =
            run(kPrimesSrc, "primes(50, R).", smallConfig(pes));
        EXPECT_EQ(out.bindings.at("R"),
                  "[2,3,5,7,11,13,17,19,23,29,31,37,41,43,47]")
            << pes << " PEs";
    }
}

TEST(Kl1Parallel, InvarianceAcrossOptimizationPolicies)
{
    std::string expected;
    for (const OptPolicy& policy :
         {OptPolicy::all(), OptPolicy::none(), OptPolicy::heapOnly(),
          OptPolicy::goalOnly(), OptPolicy::commOnly()}) {
        Kl1Config config = smallConfig(4);
        config.policy = policy;
        const Outcome out = run(kTreeSrc, "tree(7, R).", config);
        if (expected.empty()) {
            expected = out.bindings.at("R");
        } else {
            EXPECT_EQ(out.bindings.at("R"), expected)
                << "policy " << policy.name();
        }
    }
    EXPECT_EQ(expected, "128");
}

TEST(Kl1Parallel, InvarianceAcrossCacheGeometry)
{
    for (const CacheGeometry geom :
         {CacheGeometry{4, 4, 64}, CacheGeometry{4, 1, 16},
          CacheGeometry{8, 2, 16}, CacheGeometry{2, 4, 32},
          CacheGeometry{16, 2, 4}}) {
        Kl1Config config = smallConfig(4);
        config.cache.geometry = geom;
        const Outcome out = run(kPrimesSrc, "primes(30, R).", config);
        EXPECT_EQ(out.bindings.at("R"), "[2,3,5,7,11,13,17,19,23,29]")
            << geom.blockWords << "w blocks";
    }
}

TEST(Kl1Parallel, InvarianceUnderIllinoisBaseline)
{
    Kl1Config config = smallConfig(4);
    config.cache.protocol = ProtocolKind::MESI;
    const Outcome out = run(kTreeSrc, "tree(7, R).", config);
    EXPECT_EQ(out.bindings.at("R"), "128");
}

TEST(Kl1Parallel, OptimizedPolicyReducesBusTraffic)
{
    Kl1Config all = smallConfig(4);
    Kl1Config none = smallConfig(4);
    none.policy = OptPolicy::none();
    const Outcome with_opt = run(kTreeSrc, "tree(9, R).", all);
    const Outcome without = run(kTreeSrc, "tree(9, R).", none);
    EXPECT_EQ(with_opt.bindings.at("R"), without.bindings.at("R"));
    EXPECT_LT(with_opt.bus.totalCycles, without.bus.totalCycles);
}

TEST(Kl1Parallel, OptimizedCommandsAppearInRefStream)
{
    Module module = compileProgram(parseProgram(kTreeSrc));
    Emulator emu(std::move(module), smallConfig(4));
    emu.run("tree(7, R).");
    const RefStats& refs = emu.system().refStats();
    EXPECT_GT(refs.count(Area::Heap, MemOp::DW), 0u);  // heap allocation
    EXPECT_GT(refs.count(Area::Goal, MemOp::DW), 0u);  // goal creation
    EXPECT_GT(refs.count(Area::Goal, MemOp::ER), 0u);  // goal consumption
    EXPECT_GT(refs.count(Area::Goal, MemOp::RP), 0u);
    EXPECT_GT(refs.count(Area::Comm, MemOp::RI), 0u);  // mailbox polling
    EXPECT_GT(refs.opTotal(MemOp::LR), 0u);            // variable binding
    EXPECT_EQ(refs.opTotal(MemOp::LR),
              refs.opTotal(MemOp::UW) + refs.opTotal(MemOp::U));
    EXPECT_GT(refs.areaTotal(Area::Instruction), 0u);
    EXPECT_GT(refs.areaTotal(Area::Susp), 0u);         // suspensions
}

TEST(Kl1Parallel, NonePolicyStreamHasNoOptimizedOps)
{
    Module module = compileProgram(parseProgram(kTreeSrc));
    Kl1Config config = smallConfig(4);
    config.policy = OptPolicy::none();
    Emulator emu(std::move(module), config);
    emu.run("tree(7, R).");
    const RefStats& refs = emu.system().refStats();
    EXPECT_EQ(refs.opTotal(MemOp::DW), 0u);
    EXPECT_EQ(refs.opTotal(MemOp::ER), 0u);
    EXPECT_EQ(refs.opTotal(MemOp::RP), 0u);
    EXPECT_EQ(refs.opTotal(MemOp::RI), 0u);
}

TEST(Kl1Parallel, CrossPeStreamPipeline)
{
    // Producer/consumer with enough work that the consumer is usually
    // stolen to another PE and synchronizes through the shared stream.
    const std::string src =
        "main(R) :- true | produce(1, 300, S), consume(S, 0, R).\n"
        "produce(I, N, S) :- I > N | S = [].\n"
        "produce(I, N, S) :- I =< N | S = [I|S1], I1 := I + 1,\n"
        "                    produce(I1, N, S1).\n"
        "consume([], Acc, R) :- true | R = Acc.\n"
        "consume([X|Xs], Acc, R) :- true | Acc1 := Acc + X,\n"
        "                           consume(Xs, Acc1, R).\n";
    const Outcome out = run(src, "main(R).", smallConfig(2));
    EXPECT_EQ(out.bindings.at("R"), "45150");
}

TEST(Kl1Parallel, GoalRecordsFullyRecycled)
{
    // After a run every goal record must have been freed: live goal-area
    // words return to zero on all PEs.
    Module module = compileProgram(parseProgram(kTreeSrc));
    Emulator emu(std::move(module), smallConfig(4));
    emu.run("tree(6, R).");
    // All work done: no goals left anywhere.
    for (PeId pe = 0; pe < 4; ++pe)
        EXPECT_EQ(emu.machine(pe).goalListLength(), 0u);
}

TEST(Kl1Parallel, LockContractNoStaleFetches)
{
    // The write-once/read-once contract must hold for the engine's own
    // use of DW/ER/RP: zero stale fetches in a full parallel run.
    Module module = compileProgram(parseProgram(kPrimesSrc));
    Emulator emu(std::move(module), smallConfig(8));
    emu.run("primes(80, R).");
    EXPECT_EQ(emu.system().bus().stats().staleFetches, 0u);
    // And no lock is left held.
    for (PeId pe = 0; pe < 8; ++pe)
        EXPECT_EQ(emu.system().cache(pe).lockDirectory().heldCount(), 0u);
}

TEST(Kl1Parallel, DeterministicAcrossIdenticalRuns)
{
    Cycles spans[2];
    for (int i = 0; i < 2; ++i) {
        Module module = compileProgram(parseProgram(kTreeSrc));
        Emulator emu(std::move(module), smallConfig(4));
        const RunStats stats = emu.run("tree(8, R).");
        spans[i] = stats.makespan;
    }
    EXPECT_EQ(spans[0], spans[1]);
}

} // namespace
} // namespace pim::kl1
