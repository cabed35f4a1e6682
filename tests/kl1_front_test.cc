/**
 * @file
 * KL1 front-end tests: lexer, parser, term representation, and the
 * clause compiler's instruction selection.
 */

#include <gtest/gtest.h>

#include "common/sim_fault.h"
#include "fault_test_util.h"
#include "kl1/compiler.h"
#include "kl1/lexer.h"
#include "kl1/parser.h"
#include "kl1/term.h"

namespace pim::kl1 {
namespace {

// ------------------------------------------------------------- lexer --

TEST(Lexer, BasicTokens)
{
    const auto toks = tokenize("foo(X, 42) :- X > 0 | bar.");
    ASSERT_GE(toks.size(), 13u);
    EXPECT_TRUE(toks[0].is(TokKind::Atom, "foo"));
    EXPECT_TRUE(toks[1].is(TokKind::Punct, "("));
    EXPECT_TRUE(toks[2].is(TokKind::Var, "X"));
    EXPECT_TRUE(toks[4].is(TokKind::Int));
    EXPECT_EQ(toks[4].value, 42);
    EXPECT_TRUE(toks[6].is(TokKind::Punct, ":-"));
    EXPECT_TRUE(toks.back().is(TokKind::End));
}

TEST(Lexer, MultiCharOperators)
{
    const auto toks = tokenize("=:= =\\= =< >= == := \\= // :-");
    EXPECT_TRUE(toks[0].is(TokKind::Punct, "=:="));
    EXPECT_TRUE(toks[1].is(TokKind::Punct, "=\\="));
    EXPECT_TRUE(toks[2].is(TokKind::Punct, "=<"));
    EXPECT_TRUE(toks[3].is(TokKind::Punct, ">="));
    EXPECT_TRUE(toks[4].is(TokKind::Punct, "=="));
    EXPECT_TRUE(toks[5].is(TokKind::Punct, ":="));
    EXPECT_TRUE(toks[6].is(TokKind::Punct, "\\="));
    EXPECT_TRUE(toks[7].is(TokKind::Punct, "//"));
    EXPECT_TRUE(toks[8].is(TokKind::Punct, ":-"));
}

TEST(Lexer, CommentsAndLines)
{
    const auto toks = tokenize("a. % comment\n/* block\ncomment */ b.");
    ASSERT_EQ(toks.size(), 5u); // a . b . End
    EXPECT_TRUE(toks[2].is(TokKind::Atom, "b"));
    EXPECT_EQ(toks[2].line, 3);
}

TEST(Lexer, QuotedAtomsAndUnderscoreVars)
{
    const auto toks = tokenize("'Hello World' _Foo _");
    EXPECT_TRUE(toks[0].is(TokKind::Atom, "Hello World"));
    EXPECT_TRUE(toks[1].is(TokKind::Var, "_Foo"));
    EXPECT_TRUE(toks[2].is(TokKind::Var, "_"));
}

TEST(Lexer, IllegalCharacterThrowsWithPosition)
{
    try {
        tokenize("foo @ bar", "bad.fghc");
        FAIL() << "expected SimFault";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Parse);
        EXPECT_NE(std::string(fault.what()).find("bad.fghc:1:5"),
                  std::string::npos)
            << fault.what();
        EXPECT_NE(std::string(fault.what()).find("illegal character"),
                  std::string::npos)
            << fault.what();
    }
}

// ------------------------------------------------------------ parser --

TEST(Parser, FactAndRule)
{
    const Program prog = parseProgram(
        "p(1).\n"
        "p(X) :- X > 1 | q(X).\n"
        "q(_).\n");
    ASSERT_EQ(prog.procedures.size(), 2u);
    const Procedure* p = prog.find("p", 1);
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(p->clauses.size(), 2u);
    EXPECT_TRUE(p->clauses[0].guards.empty());
    EXPECT_TRUE(p->clauses[0].body.empty());
    ASSERT_EQ(p->clauses[1].guards.size(), 1u);
    EXPECT_EQ(p->clauses[1].guards[0].name, ">");
    ASSERT_EQ(p->clauses[1].body.size(), 1u);
}

TEST(Parser, CommitWithoutGuardIsEmptyGuard)
{
    const Program prog = parseProgram("p(X) :- q(X), r(X).\nq(_).\nr(_).\n");
    const Procedure* p = prog.find("p", 1);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(p->clauses[0].guards.empty());
    EXPECT_EQ(p->clauses[0].body.size(), 2u);
}

TEST(Parser, ListSyntax)
{
    const PTerm t = parseGoalTerm("p([1,2|T]).");
    ASSERT_EQ(t.args.size(), 1u);
    const PTerm& list = t.args[0];
    EXPECT_EQ(list.kind, PTerm::Kind::List);
    EXPECT_EQ(list.args[0].value, 1);
    EXPECT_EQ(list.args[1].args[0].value, 2);
    EXPECT_EQ(list.args[1].args[1].name, "T");
    EXPECT_EQ(t.toString(), "p([1|[2|T]])");
}

TEST(Parser, EmptyListAndNested)
{
    const PTerm t = parseGoalTerm("p([], [[a]], f(g(1), X)).");
    EXPECT_EQ(t.args[0].name, "[]");
    EXPECT_EQ(t.args[1].kind, PTerm::Kind::List);
    EXPECT_EQ(t.args[2].kind, PTerm::Kind::Struct);
    EXPECT_EQ(t.args[2].args[0].name, "g");
}

TEST(Parser, ArithmeticPrecedence)
{
    const PTerm t = parseGoalTerm("p(X := 1 + 2 * 3 - 4).");
    const PTerm& assign = t.args[0];
    EXPECT_EQ(assign.name, ":=");
    // 1 + 2*3 - 4 parses as (1 + (2*3)) - 4.
    const PTerm& expr = assign.args[1];
    EXPECT_EQ(expr.name, "-");
    EXPECT_EQ(expr.args[0].name, "+");
    EXPECT_EQ(expr.args[0].args[1].name, "*");
}

TEST(Parser, NegativeIntegers)
{
    const PTerm t = parseGoalTerm("p(-5, X > -1).");
    EXPECT_EQ(t.args[0].value, -5);
    EXPECT_EQ(t.args[1].args[1].value, -1);
}

TEST(Parser, ModOperator)
{
    const PTerm t = parseGoalTerm("p(X mod 3 =:= 0).");
    EXPECT_EQ(t.args[0].name, "=:=");
    EXPECT_EQ(t.args[0].args[0].name, "mod");
}

TEST(Parser, SyntaxErrorThrowsWithPosition)
{
    try {
        parseProgram("p(X :- q.\n", "prog.fghc");
        FAIL() << "expected SimFault";
    } catch (const SimFault& fault) {
        EXPECT_EQ(fault.kind(), SimFaultKind::Parse);
        const std::string what = fault.what();
        EXPECT_NE(what.find("prog.fghc:1:"), std::string::npos) << what;
        EXPECT_NE(what.find("syntax error"), std::string::npos) << what;
    }
}

// ------------------------------------------------------------- terms --

TEST(Term, TagRoundTrips)
{
    EXPECT_EQ(tagOf(makeInt(-17)), Tag::Int);
    EXPECT_EQ(intOf(makeInt(-17)), -17);
    EXPECT_EQ(intOf(makeInt(1ll << 40)), 1ll << 40);
    EXPECT_EQ(tagOf(makeAtom(7)), Tag::Atom);
    EXPECT_EQ(atomOf(makeAtom(7)), 7u);
    EXPECT_EQ(tagOf(makeRef(123)), Tag::Ref);
    EXPECT_EQ(ptrOf(makeRef(123)), 123u);
    EXPECT_EQ(tagOf(makeList(88)), Tag::List);
    EXPECT_EQ(tagOf(makeStr(99)), Tag::Str);
    EXPECT_TRUE(isUnboundAt(makeRef(5), 5));
    EXPECT_FALSE(isUnboundAt(makeRef(5), 6));
}

TEST(Term, FunctorPacking)
{
    const FunctorId f = SymbolTable::functor(42, 3);
    EXPECT_EQ(SymbolTable::functorName(f), 42u);
    EXPECT_EQ(SymbolTable::functorArity(f), 3u);
    EXPECT_EQ(funOf(makeFun(f)), f);
}

TEST(SymbolTableTest, InternIsStable)
{
    SymbolTable syms;
    EXPECT_EQ(syms.intern("[]"), SymbolTable::kNil);
    const AtomId a = syms.intern("foo");
    EXPECT_EQ(syms.intern("foo"), a);
    EXPECT_NE(syms.intern("bar"), a);
    EXPECT_EQ(syms.name(a), "foo");
}

// ---------------------------------------------------------- compiler --

Module
compile(const std::string& source)
{
    return compileProgram(parseProgram(source));
}

/** Count instructions with opcode @p op in @p module. */
int
countOps(const Module& module, Op op)
{
    int count = 0;
    for (const Instr& ins : module.code)
        count += ins.op == op;
    return count;
}

TEST(Compiler, FactCompilesToProceed)
{
    const Module m = compile("p(_).\n");
    // TryClause, Commit, Proceed, SuspendOrFail.
    ASSERT_EQ(m.code.size(), 4u);
    EXPECT_EQ(m.code[0].op, Op::TryClause);
    EXPECT_EQ(m.code[1].op, Op::Commit);
    EXPECT_EQ(m.code[2].op, Op::Proceed);
    EXPECT_EQ(m.code[3].op, Op::SuspendOrFail);
}

TEST(Compiler, TryClauseChainsToNextAlternative)
{
    const Module m = compile("p(1).\np(2).\n");
    EXPECT_EQ(m.code[0].op, Op::TryClause);
    // First clause's failure target is the second TryClause.
    const int target = m.code[0].a;
    EXPECT_EQ(m.code[target].op, Op::TryClause);
    // Second clause's failure target is the epilogue.
    EXPECT_EQ(m.code[m.code[target].a].op, Op::SuspendOrFail);
}

TEST(Compiler, HeadPatternsSelectWaitInstructions)
{
    const Module m = compile("p([], 0, a, f(X), [H|T]) :- true | q(H,T,X).\n"
                             "q(_,_,_).\n");
    EXPECT_EQ(countOps(m, Op::WaitAtom), 2); // [] and a
    EXPECT_EQ(countOps(m, Op::WaitInt), 1);
    EXPECT_EQ(countOps(m, Op::WaitStruct), 1);
    EXPECT_EQ(countOps(m, Op::WaitList), 1);
}

TEST(Compiler, RepeatedHeadVarUsesWaitSame)
{
    const Module m = compile("p(X, X).\n");
    EXPECT_EQ(countOps(m, Op::WaitSame), 1);
}

TEST(Compiler, LastGoalIsTailCall)
{
    const Module m = compile("p(X) :- true | q(X), r(X).\n"
                             "q(_).\nr(_).\n");
    EXPECT_EQ(countOps(m, Op::Spawn), 1);   // q
    EXPECT_EQ(countOps(m, Op::Execute), 1); // r (tail)
    // Execute ends the clause: no Proceed in p's block.
    EXPECT_EQ(countOps(m, Op::Proceed), 2); // facts q and r only
}

TEST(Compiler, BuiltinsAfterLastUserGoalKeepProceed)
{
    const Module m = compile("p(X) :- true | q(X), X = 1.\nq(_).\n");
    EXPECT_EQ(countOps(m, Op::Spawn), 1);   // q is not last: spawned
    EXPECT_EQ(countOps(m, Op::Execute), 0);
    EXPECT_EQ(countOps(m, Op::Unify), 1);
}

TEST(Compiler, GuardArithmeticUsesSuspendingOps)
{
    const Module m = compile("p(X) :- X mod 3 =:= 0 | true.\n"
                             "p(X) :- X mod 3 =\\= 0 | true.\n");
    EXPECT_EQ(countOps(m, Op::GArithInt), 2);
    EXPECT_EQ(countOps(m, Op::GuardCmpInt), 2);
}

TEST(Compiler, ConstantGuardFolds)
{
    const Module m = compile("p :- 1 < 2 | true.\nq :- 2 < 1 | true.\n");
    EXPECT_EQ(countOps(m, Op::GuardFail), 1);
    EXPECT_EQ(countOps(m, Op::GuardCmpInt), 0);
}

TEST(Compiler, AssignTargetStaysInRegister)
{
    const Module m = compile("p(X, Y) :- true | Y1 := X + 1, q(Y1, Y).\n"
                             "q(_,_).\n");
    // Y1 is register-valued: no PutVar for it (Y needs none either: it is
    // a head variable).
    EXPECT_EQ(countOps(m, Op::PutVar), 0);
    EXPECT_EQ(countOps(m, Op::ArithInt), 1);
}

TEST(Compiler, SharedBodyVarGetsOneCell)
{
    const Module m = compile("p :- true | q(X), r(X).\nq(_).\nr(_).\n");
    EXPECT_EQ(countOps(m, Op::PutVar), 1);
}

TEST(Compiler, WordOffsetsAccountForImmediates)
{
    const Module m = compile("p(0).\n");
    // TryClause(1 word), WaitInt(2 words), Commit(1), Proceed(1), SoF(1).
    EXPECT_EQ(m.wordOffset(0), 0u);
    EXPECT_EQ(m.wordOffset(1), 1u);
    EXPECT_EQ(m.wordOffset(2), 3u);
    EXPECT_EQ(m.totalWords(), 6u);
}

TEST(CompilerDeath, UndefinedProcedure)
{
    EXPECT_SIM_FAULT(compile("p :- true | nosuch(1).\n"),
                     SimFaultKind::Parse, "undefined procedure");
}

TEST(CompilerDeath, GuardMustBeBuiltin)
{
    EXPECT_SIM_FAULT(compile("p(X) :- myguard(X) | true.\n"),
                     SimFaultKind::Parse, "not a guard builtin");
}

TEST(CompilerDeath, BodyComparisonRejected)
{
    EXPECT_SIM_FAULT(compile("p(X) :- true | X > 1.\n"),
                     SimFaultKind::Parse, "guard builtin used in a body");
}

TEST(Compiler, Disassembly)
{
    const Module m = compile("p(0).\n");
    const std::string text = m.disassembleAll();
    EXPECT_NE(text.find("p/1:"), std::string::npos);
    EXPECT_NE(text.find("wait_int"), std::string::npos);
    EXPECT_NE(text.find("commit"), std::string::npos);
}

} // namespace
} // namespace pim::kl1
