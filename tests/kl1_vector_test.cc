/**
 * @file
 * Tests for KL1 vectors (the system builtins new_vector/3,
 * vector_element/3, set_vector_element/4 and the MRB-style destructive
 * set_vector_element_d/4), including unification over vectors, GC
 * relocation, and the heap-traffic difference between pure-copy and
 * in-place updates.
 */

#include <gtest/gtest.h>

#include "fault_test_util.h"
#include "kl1_test_util.h"

namespace pim::kl1 {
namespace {

using testutil::Outcome;
using testutil::run;
using testutil::smallConfig;

TEST(Kl1Vector, NewAndRead)
{
    const std::string src =
        "main(R) :- true | new_vector(5, 7, V), vector_element(V, 3, R).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "7");
}

TEST(Kl1Vector, FormatsWithBraces)
{
    const std::string src =
        "main(R) :- true | new_vector(3, 0, V),\n"
        "    set_vector_element(V, 1, x, R).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "{0,x,0}");
}

TEST(Kl1Vector, PureUpdatePreservesOriginal)
{
    const std::string src =
        "main(R) :- true | new_vector(4, 0, V),\n"
        "    set_vector_element(V, 2, 9, V1),\n"
        "    vector_element(V, 2, A), vector_element(V1, 2, B),\n"
        "    R = pair(A, B).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "pair(0,9)");
}

TEST(Kl1Vector, DestructiveUpdateAliases)
{
    const std::string src =
        "main(R) :- true | new_vector(4, 0, V),\n"
        "    set_vector_element_d(V, 2, 9, V1),\n"
        "    vector_element(V, 2, A), vector_element(V1, 2, B),\n"
        "    R = pair(A, B).\n";
    // The destructive builtin updates in place: old handle sees 9 too.
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "pair(9,9)");
}

TEST(Kl1Vector, VectorsUnifyStructurally)
{
    const std::string src =
        "same(A, B, R) :- A == B | R = yes.\n"
        "same(A, B, R) :- A \\= B | R = no.\n"
        "main(R) :- true | new_vector(3, 1, V), new_vector(3, 1, W),\n"
        "    same(V, W, R).\n"
        "main2(R) :- true | new_vector(3, 1, V),\n"
        "    set_vector_element(V, 0, 2, W), same(V, W, R).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "yes");
    EXPECT_EQ(run(src, "main2(R).").bindings.at("R"), "no");
}

TEST(Kl1Vector, ElementsCanBeUnboundAndBoundLater)
{
    const std::string src =
        "main(R) :- true | new_vector(2, X, V), X = 5,\n"
        "    vector_element(V, 1, R).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "5");
}

TEST(Kl1Vector, FillAndSumLoop)
{
    const std::string src =
        "fill(V, N, N, Out) :- true | Out = V.\n"
        "fill(V, I, N, Out) :- I < N | X := I * I,\n"
        "    set_vector_element(V, I, X, V1), I1 := I + 1,\n"
        "    fill(V1, I1, N, Out).\n"
        "vsum(_, N, N, Acc, R) :- true | R = Acc.\n"
        "vsum(V, I, N, Acc, R) :- wait(V), I < N |\n"
        "    vector_element(V, I, X),\n"
        "    acc(X, V, I, N, Acc, R).\n"
        "acc(X, V, I, N, Acc, R) :- integer(X) | A1 := Acc + X,\n"
        "    I1 := I + 1, vsum(V, I1, N, A1, R).\n"
        "main(R) :- true | new_vector(20, 0, V), fill(V, 0, 20, V1),\n"
        "    vsum(V1, 0, 20, 0, R).\n";
    // Sum of squares 0..19 = 2470.
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "2470");
}

TEST(Kl1Vector, CopyUpdateCostsMoreHeapTrafficThanDestructive)
{
    const std::string setup =
        "upd(V, 0, Out) :- true | Out = V.\n"
        "upd(V, N, Out) :- N > 0 | I := N mod 32,\n"
        "    set_vector_element(V, I, N, V1), N1 := N - 1,\n"
        "    upd(V1, N1, Out).\n"
        "updd(V, 0, Out) :- true | Out = V.\n"
        "updd(V, N, Out) :- N > 0 | I := N mod 32,\n"
        "    set_vector_element_d(V, I, N, V1), N1 := N - 1,\n"
        "    updd(V1, N1, Out).\n"
        "readv(W, I, R) :- wait(W) | vector_element(W, I, R).\n"
        "mainp(R) :- true | new_vector(32, 0, V), upd(V, 200, W),\n"
        "    readv(W, 1, R).\n"
        "maind(R) :- true | new_vector(32, 0, V), updd(V, 200, W),\n"
        "    readv(W, 1, R).\n";
    const Outcome pure = run(setup, "mainp(R).", smallConfig(1));
    const Outcome destr = run(setup, "maind(R).", smallConfig(1));
    EXPECT_EQ(pure.bindings.at("R"), destr.bindings.at("R"));
    // Copying 200 x 33 words dwarfs 200 single-word writes.
    EXPECT_GT(pure.refs.count(Area::Heap, MemOp::DW),
              destr.refs.count(Area::Heap, MemOp::DW) + 5000);
}

TEST(Kl1Vector, SurvivesGc)
{
    const std::string src =
        "churn(0, R) :- true | R = done.\n"
        "churn(N, R) :- N > 0 | new_vector(64, N, _),\n"
        "    N1 := N - 1, churn(N1, R).\n"
        "main(R) :- true | new_vector(8, 3, Keep),\n"
        "    set_vector_element(Keep, 4, 11, K1), churn(400, X),\n"
        "    fin(X, K1, R).\n"
        "fin(done, K1, R) :- true | vector_element(K1, 4, A),\n"
        "    vector_element(K1, 0, B), wrap(A, B, R).\n"
        "wrap(A, B, R) :- integer(A), integer(B) | R = pair(A, B).\n";
    Kl1Config config = smallConfig(1);
    config.enableGc = true;
    config.layout.heapWordsPerPe = 1 << 14;
    config.gcSlackWords = 1024;
    Module module = compileProgram(parseProgram(src));
    Emulator emu(std::move(module), config);
    const RunStats stats = emu.run("main(R).");
    EXPECT_GT(stats.gc.collections, 0u);
    for (const auto& [name, value] : emu.queryBindings())
        EXPECT_EQ(value, "pair(11,3)") << name;
}

TEST(Kl1VectorDeath, IndexOutOfRange)
{
    EXPECT_SIM_FAULT(run("main(R) :- true | new_vector(3, 0, V),\n"
                         "    vector_element(V, 3, R).\n",
                         "main(R)."),
                     SimFaultKind::Program, "out of range");
}

TEST(Kl1VectorDeath, UnboundVectorArgument)
{
    EXPECT_SIM_FAULT(run("main(R) :- true | vector_element(V, 0, R), mk(V).\n"
                         "mk(V) :- true | new_vector(2, 0, V).\n",
                         "main(R)."),
                     SimFaultKind::Program, "synchronize with a guard");
}

} // namespace
} // namespace pim::kl1
