/**
 * @file
 * End-to-end KL1 execution tests on small programs: unification,
 * arithmetic, streams, suspension/resumption, guard semantics.
 */

#include <gtest/gtest.h>

#include "fault_test_util.h"
#include "kl1_test_util.h"

namespace pim::kl1 {
namespace {

using testutil::Outcome;
using testutil::run;
using testutil::smallConfig;

TEST(Kl1Exec, FactSucceeds)
{
    const Outcome out = run("main.\n", "main.");
    EXPECT_EQ(out.stats.reductions, 1u);
    EXPECT_EQ(out.stats.suspensions, 0u);
}

TEST(Kl1Exec, BindQueryVariable)
{
    const Outcome out = run("main(X) :- true | X = 42.\n", "main(R).");
    EXPECT_EQ(out.bindings.at("R"), "42");
}

TEST(Kl1Exec, BuildStructure)
{
    const Outcome out =
        run("main(X) :- true | X = f(1, [a,b], g(Y)), Y = 2.\n",
            "main(R).");
    EXPECT_EQ(out.bindings.at("R"), "f(1,[a,b],g(2))");
}

TEST(Kl1Exec, Arithmetic)
{
    const Outcome out = run(
        "main(X) :- true | A := 6 * 7, B := A - 2, X := B // 4.\n",
        "main(R).");
    EXPECT_EQ(out.bindings.at("R"), "10");
}

TEST(Kl1Exec, ClauseSelectionByConstant)
{
    const std::string src =
        "f(0, R) :- true | R = zero.\n"
        "f(1, R) :- true | R = one.\n"
        "f(N, R) :- N > 1 | R = many.\n";
    EXPECT_EQ(run(src, "f(0,R).").bindings.at("R"), "zero");
    EXPECT_EQ(run(src, "f(1,R).").bindings.at("R"), "one");
    EXPECT_EQ(run(src, "f(7,R).").bindings.at("R"), "many");
}

TEST(Kl1Exec, Append)
{
    const std::string src =
        "append([], Y, Z) :- true | Z = Y.\n"
        "append([H|T], Y, Z) :- true | Z = [H|W], append(T, Y, W).\n"
        "main(R) :- true | append([1,2,3], [4,5], R).\n";
    const Outcome out = run(src, "main(R).");
    EXPECT_EQ(out.bindings.at("R"), "[1,2,3,4,5]");
    EXPECT_EQ(out.stats.reductions, 5u); // main + 4 append reductions
}

TEST(Kl1Exec, NaiveReverse)
{
    const std::string src =
        "append([], Y, Z) :- true | Z = Y.\n"
        "append([H|T], Y, Z) :- true | Z = [H|W], append(T, Y, W).\n"
        "nrev([], R) :- true | R = [].\n"
        "nrev([H|T], R) :- true | nrev(T, S), append(S, [H], R).\n"
        "main(R) :- true | nrev([1,2,3,4,5,6], R).\n";
    const Outcome out = run(src, "main(R).");
    EXPECT_EQ(out.bindings.at("R"), "[6,5,4,3,2,1]");
}

TEST(Kl1Exec, GuardArithmeticFilter)
{
    const std::string src =
        "evens([], R) :- true | R = [].\n"
        "evens([X|Xs], R) :- X mod 2 =:= 0 | R = [X|R1], evens(Xs, R1).\n"
        "evens([X|Xs], R) :- X mod 2 =\\= 0 | evens(Xs, R).\n"
        "main(R) :- true | evens([1,2,3,4,5,6,7,8], R).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "[2,4,6,8]");
}

TEST(Kl1Exec, CounterLoop)
{
    const std::string src =
        "count(0, Acc, R) :- true | R = Acc.\n"
        "count(N, Acc, R) :- N > 0 | N1 := N - 1, Acc1 := Acc + N,\n"
        "                    count(N1, Acc1, R).\n";
    EXPECT_EQ(run("x.\n" + src, "count(100, 0, R).").bindings.at("R"),
              "5050");
}

TEST(Kl1Exec, StreamProducerConsumerSuspends)
{
    // The consumer races ahead of the producer and must suspend on the
    // unbound stream tail.
    // produce/3 is spawned (queued); consume/3 tail-executes first and
    // finds the stream unbound.
    const std::string src =
        "main(R) :- true | produce(1, 50, S), consume(S, 0, R).\n"
        "produce(I, N, S) :- I > N | S = [].\n"
        "produce(I, N, S) :- I =< N | S = [I|S1], I1 := I + 1,\n"
        "                    produce(I1, N, S1).\n"
        "consume([], Acc, R) :- true | R = Acc.\n"
        "consume([X|Xs], Acc, R) :- true | Acc1 := Acc + X,\n"
        "                           consume(Xs, Acc1, R).\n";
    const Outcome out = run(src, "main(R).", smallConfig(1));
    EXPECT_EQ(out.bindings.at("R"), "1275");
    // With one PE and depth-first scheduling the consumer is spawned
    // first and must suspend at least once.
    EXPECT_GT(out.stats.suspensions, 0u);
    EXPECT_EQ(out.stats.suspensions, out.stats.resumptions);
}

TEST(Kl1Exec, PrimesSieve)
{
    const std::string src =
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
    const Outcome out = run(src, "primes(30, R).");
    EXPECT_EQ(out.bindings.at("R"), "[2,3,5,7,11,13,17,19,23,29]");
}

TEST(Kl1Exec, SynchronizingMerge)
{
    // sum/3 waits for both inputs (integer guards) before committing.
    // sum/3 tail-executes before either producer has run.
    const std::string src =
        "main(R) :- true | slowone(A), slowtwo(B), sum(A, B, R).\n"
        "slowone(A) :- true | A = 30.\n"
        "slowtwo(B) :- true | B = 12.\n"
        "sum(A, B, C) :- integer(A), integer(B) | C := A + B.\n";
    const Outcome out = run(src, "main(R).");
    EXPECT_EQ(out.bindings.at("R"), "42");
    EXPECT_GE(out.stats.suspensions, 1u);
}

TEST(Kl1Exec, WaitGuard)
{
    const std::string src =
        "main(R) :- true | echo(X, R), X = hello.\n"
        "echo(X, R) :- wait(X) | R = X.\n";
    EXPECT_EQ(run(src, "main(R).", smallConfig(1)).bindings.at("R"),
              "hello");
}

TEST(Kl1Exec, OtherwiseClause)
{
    const std::string src =
        "classify(X, R) :- X < 0 | R = negative.\n"
        "classify(X, R) :- X =:= 0 | R = zero.\n"
        "classify(_, R) :- otherwise | R = positive.\n";
    EXPECT_EQ(run(src, "classify(-3,R).").bindings.at("R"), "negative");
    EXPECT_EQ(run(src, "classify(0,R).").bindings.at("R"), "zero");
    EXPECT_EQ(run(src, "classify(9,R).").bindings.at("R"), "positive");
}

TEST(Kl1Exec, StructuralGuardEquality)
{
    const std::string src =
        "same(X, Y, R) :- X == Y | R = yes.\n"
        "same(X, Y, R) :- X \\= Y | R = no.\n";
    EXPECT_EQ(run(src, "same(f(1,[2]), f(1,[2]), R).").bindings.at("R"),
              "yes");
    EXPECT_EQ(run(src, "same(f(1,[2]), f(1,[3]), R).").bindings.at("R"),
              "no");
    EXPECT_EQ(run(src, "same(a, b, R).").bindings.at("R"), "no");
}


TEST(Kl1Exec, OtherwiseWaitsForEarlierClausesToDecide)
{
    // `otherwise` commits only once all preceding guards have failed
    // definitely. Here check/2 is called before X is bound: the first
    // clause cannot be decided yet, so the call must suspend rather
    // than commit to the otherwise clause (which would answer nonpos
    // for a positive X).
    const std::string src =
        "check(X, R) :- X > 0 | R = pos.\n"
        "check(_, R) :- otherwise | R = nonpos.\n"
        "main(R) :- true | later(X), check(X, R).\n"
        "later(X) :- true | X = 5.\n";
    const Outcome out = run(src, "main(R).", smallConfig(1));
    EXPECT_EQ(out.bindings.at("R"), "pos");
    EXPECT_GE(out.stats.suspensions, 1u);
}

TEST(Kl1Exec, OtherwiseCommitsWhenEarlierClausesFailDefinitely)
{
    const std::string src =
        "check(X, R) :- X > 0 | R = pos.\n"
        "check(_, R) :- otherwise | R = nonpos.\n";
    EXPECT_EQ(run(src, "check(-2, R).").bindings.at("R"), "nonpos");
    EXPECT_EQ(run(src, "check(3, R).").bindings.at("R"), "pos");
}

TEST(Kl1Exec, ResultBuiltinCollectsInOrder)
{
    const std::string src =
        "emit(0) :- true | true.\n"
        "emit(N) :- N > 0 | kl1_result(N), N1 := N - 1, emit(N1).\n";
    const Outcome out = run(src, "emit(3).", smallConfig(1));
    ASSERT_EQ(out.results.size(), 3u);
    EXPECT_EQ(out.results[0], "3");
    EXPECT_EQ(out.results[1], "2");
    EXPECT_EQ(out.results[2], "1");
}

TEST(Kl1Exec, ActiveUnifyTwoUnboundVariables)
{
    const std::string src =
        "main(R) :- true | link(A, B), A = B, B = 7, R = A.\n"
        "link(_, _).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "7");
}

TEST(Kl1Exec, DeepStructureUnification)
{
    const std::string src =
        "main(R) :- true | X = f(g(1), [a, h(B)], B), \n"
        "                  X = f(g(1), [a, h(5)], C), R = pair(B, C).\n";
    EXPECT_EQ(run(src, "main(R).").bindings.at("R"), "pair(5,5)");
}

TEST(Kl1ExecDeath, FailureIsFatal)
{
    EXPECT_SIM_FAULT(run("p(1).\n", "p(2)."), SimFaultKind::Program,
                     "goal failed");
}

TEST(Kl1ExecDeath, UnificationFailureIsFatal)
{
    EXPECT_SIM_FAULT(run("main :- true | 1 = 2.\n", "main."),
                     SimFaultKind::Program, "unification failure");
}

TEST(Kl1ExecDeath, DeadlockDetected)
{
    // X is never produced: the goal suspends forever.
    EXPECT_SIM_FAULT(run("main(R) :- true | echo(X, R).\n"
                         "echo(X, R) :- wait(X) | R = X.\n",
                         "main(R)."),
                     SimFaultKind::Program, "deadlock");
}

TEST(Kl1Exec, LockDeadlockIsAFaultThatUnparksThePes)
{
    // Park both PEs on each other's lock before the run. The run loop
    // finds no PE to step and reports a Deadlock fault, which un-parks
    // the waiters so the Emulator can be torn down afterwards.
    Emulator emu(compileProgram(parseProgram("main :- true | true.\n")),
                 smallConfig(2));
    System& sys = emu.system();
    const Addr a = emu.layout().segment(Area::Comm, 0).base;
    const Addr b = emu.layout().segment(Area::Comm, 1).base;
    sys.access(0, MemOp::LR, a, Area::Comm);
    sys.access(1, MemOp::LR, b, Area::Comm);
    ASSERT_TRUE(sys.access(0, MemOp::LR, b, Area::Comm).lockWait);
    ASSERT_TRUE(sys.access(1, MemOp::LR, a, Area::Comm).lockWait);
    EXPECT_SIM_FAULT(emu.run("main."), SimFaultKind::Deadlock,
                     "busy-waiting on a lock");
    EXPECT_TRUE(sys.pendingWaiters().empty());
}

TEST(Kl1Exec, DivisionByZeroIsAProgramFault)
{
    EXPECT_SIM_FAULT(run("main(R) :- true | R := 1 / 0.\n", "main(R)."),
                     SimFaultKind::Program, "division by zero");
}

TEST(Kl1Exec, DeadlockToleratedWhenConfigured)
{
    Kl1Config config = smallConfig();
    config.failOnDeadlock = false;
    const Outcome out = run("main(R) :- true | echo(X, R).\n"
                            "echo(X, R) :- wait(X) | R = X.\n",
                            "main(R).", config);
    EXPECT_EQ(out.stats.deadlockedGoals, 1u);
}

TEST(Kl1Exec, MemoryRefsAreCounted)
{
    const Outcome out = run("main(X) :- true | X = [1,2,3].\n", "main(R).");
    EXPECT_GT(out.stats.memoryRefs, 10u);
    EXPECT_GT(out.stats.instructions, 5u);
    EXPECT_GT(out.stats.makespan, 0u);
}

} // namespace
} // namespace pim::kl1
