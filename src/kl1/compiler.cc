#include "kl1/compiler.h"

#include <map>
#include <set>

#include "common/sim_fault.h"
#include "common/xassert.h"

namespace pim::kl1 {

namespace {

const std::set<std::string> kGuardBuiltins = {
    "true/0",    "otherwise/0", "integer/1", "wait/1",  "</2",
    ">/2",       "=</2",        ">=/2",      "=:=/2",   "=\\=/2",
    "==/2",      "\\=/2",
};

const std::set<std::string> kBodyBuiltins = {
    "true/0", "=/2", ":=/2", "kl1_result/1",
    "new_vector/3", "vector_element/3", "set_vector_element/4",
    "set_vector_element_d/4",
};

std::string
key(const std::string& name, std::uint32_t arity)
{
    return name + "/" + std::to_string(arity);
}

std::string
goalKey(const PTerm& goal)
{
    const std::uint32_t arity =
        goal.kind == PTerm::Kind::Struct
            ? static_cast<std::uint32_t>(goal.args.size())
            : 0;
    return key(goal.name, arity);
}

/** Compiles one clause into @p out. */
class ClauseCompiler
{
  public:
    ClauseCompiler(Module& module, const Program& program,
                   const Procedure& proc, const Clause& clause)
        : module_(module),
          program_(program),
          proc_(proc),
          clause_(clause)
    {
    }

    /** Emit the clause block (without TryClause, added by the caller). */
    void
    compile()
    {
        nextPersistent_ = proc_.arity;

        // Head matching binds pattern variables to registers.
        if (clause_.head.kind == PTerm::Kind::Struct) {
            for (std::uint32_t i = 0; i < proc_.arity; ++i)
                matchReg(static_cast<int>(i), clause_.head.args[i]);
        }
        for (const Goal& guard : clause_.guards)
            compileGuard(guard);
        emit({Op::Commit});

        // Pre-assign persistent registers to body-only named variables so
        // construction temporaries never collide with them.
        preassignBodyVars();
        tempBase_ = nextPersistent_;

        compileBody();
    }

  private:
    [[noreturn]] void
    err(const std::string& what) const
    {
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "KL1 compile error in ",
                            proc_.name, "/", proc_.arity, " (clause at line ",
                            clause_.line, "): ", what);
    }

    void
    emit(Instr ins)
    {
        module_.code.push_back(ins);
    }

    int
    allocPersistent()
    {
        if (nextPersistent_ >= kNumRegs)
            err("clause needs too many persistent registers");
        return nextPersistent_++;
    }

    int
    allocTemp()
    {
        if (nextTemp_ >= kNumRegs)
            err("clause needs too many temporary registers");
        return nextTemp_++;
    }

    void
    resetTemps()
    {
        nextTemp_ = tempBase_;
    }

    AtomId
    atom(const std::string& name)
    {
        return module_.symbols.intern(name);
    }

    FunctorId
    functorOf(const PTerm& t)
    {
        return SymbolTable::functor(
            atom(t.name), static_cast<std::uint32_t>(t.args.size()));
    }

    // ------------------------------------------------------------ head --

    void
    matchReg(int reg, const PTerm& pattern)
    {
        switch (pattern.kind) {
          case PTerm::Kind::Var: {
            if (pattern.isAnonymousVar())
                return;
            const auto it = regMap_.find(pattern.name);
            if (it == regMap_.end()) {
                regMap_[pattern.name] = reg;
                materialized_.insert(pattern.name);
            } else {
                Instr ins{Op::WaitSame};
                ins.a = reg;
                ins.b = it->second;
                emit(ins);
            }
            return;
          }
          case PTerm::Kind::Int: {
            Instr ins{Op::WaitInt};
            ins.a = reg;
            ins.imm = pattern.value;
            emit(ins);
            return;
          }
          case PTerm::Kind::Atom: {
            Instr ins{Op::WaitAtom};
            ins.a = reg;
            ins.imm = atom(pattern.name);
            emit(ins);
            return;
          }
          case PTerm::Kind::List: {
            const int car = allocPersistent();
            const int cdr = allocPersistent();
            Instr ins{Op::WaitList};
            ins.a = reg;
            ins.b = car;
            ins.c = cdr;
            emit(ins);
            matchReg(car, pattern.args[0]);
            matchReg(cdr, pattern.args[1]);
            return;
          }
          case PTerm::Kind::Struct: {
            const std::uint32_t arity =
                static_cast<std::uint32_t>(pattern.args.size());
            if (nextPersistent_ + static_cast<int>(arity) > kNumRegs)
                err("structure pattern exceeds the register file");
            const int base = nextPersistent_;
            nextPersistent_ += static_cast<int>(arity);
            Instr ins{Op::WaitStruct};
            ins.a = reg;
            ins.b = base;
            ins.imm = functorOf(pattern);
            emit(ins);
            for (std::uint32_t i = 0; i < arity; ++i)
                matchReg(base + static_cast<int>(i), pattern.args[i]);
            return;
          }
        }
    }

    // ----------------------------------------------------------- guards --

    /** Register of a guard operand (mapped variable required). */
    int
    guardReg(const PTerm& operand)
    {
        if (operand.kind != PTerm::Kind::Var)
            err("guard operand must be a variable or an integer: " +
                operand.toString());
        const auto it = regMap_.find(operand.name);
        if (it == regMap_.end())
            err("guard variable not bound by the head: " + operand.name);
        return it->second;
    }

    void
    compileGuard(const Goal& guard)
    {
        const std::string gk = goalKey(guard);
        if (!kGuardBuiltins.count(gk))
            err("not a guard builtin: " + gk);
        if (gk == "true/0")
            return;
        if (gk == "otherwise/0") {
            emit({Op::GuardOtherwise});
            return;
        }
        if (gk == "integer/1") {
            Instr ins{Op::GuardInteger};
            ins.a = guardReg(guard.args[0]);
            emit(ins);
            return;
        }
        if (gk == "wait/1") {
            Instr ins{Op::GuardWait};
            ins.a = guardReg(guard.args[0]);
            emit(ins);
            return;
        }
        if (gk == "==/2") {
            Instr ins{Op::WaitSame};
            ins.a = guardReg(guard.args[0]);
            ins.b = guardReg(guard.args[1]);
            emit(ins);
            return;
        }
        if (gk == "\\=/2") {
            Instr ins{Op::GuardDiff};
            ins.a = guardReg(guard.args[0]);
            ins.b = guardReg(guard.args[1]);
            emit(ins);
            return;
        }
        compileComparison(guard);
    }

    /** Evaluate a guard-side arithmetic expression into a register using
     *  the suspending GArith instructions. */
    int
    evalGuardExpr(const PTerm& t)
    {
        static const std::map<std::string, ArithKind> kKinds = {
            {"+", ArithKind::Add},  {"-", ArithKind::Sub},
            {"*", ArithKind::Mul},  {"//", ArithKind::Div},
            {"mod", ArithKind::Mod},
        };
        switch (t.kind) {
          case PTerm::Kind::Var:
            return guardReg(t);
          case PTerm::Kind::Int: {
            const int reg = allocPersistent();
            Instr ins{Op::PutInt};
            ins.a = reg;
            ins.imm = t.value;
            emit(ins);
            return reg;
          }
          case PTerm::Kind::Struct: {
            const auto kind = kKinds.find(t.name);
            if (kind == kKinds.end() || t.args.size() != 2)
                err("not a guard arithmetic expression: " + t.toString());
            const int lhs = evalGuardExpr(t.args[0]);
            const int dst = allocPersistent();
            if (t.args[1].kind == PTerm::Kind::Int) {
                Instr ins{Op::GArithInt};
                ins.a = dst;
                ins.b = lhs;
                ins.imm = t.args[1].value;
                ins.d = static_cast<int>(kind->second);
                emit(ins);
                return dst;
            }
            const int rhs = evalGuardExpr(t.args[1]);
            Instr ins{Op::GArith};
            ins.a = dst;
            ins.b = lhs;
            ins.c = rhs;
            ins.d = static_cast<int>(kind->second);
            emit(ins);
            return dst;
          }
          default:
            err("not a guard arithmetic expression: " + t.toString());
        }
    }

    void
    compileComparison(const Goal& guard)
    {
        static const std::map<std::string, CmpKind> kKinds = {
            {"<", CmpKind::Lt},    {"=<", CmpKind::Le},
            {">", CmpKind::Gt},    {">=", CmpKind::Ge},
            {"=:=", CmpKind::NumEq}, {"=\\=", CmpKind::NumNe},
        };
        static const std::map<std::string, std::string> kSwap = {
            {"<", ">"},   {">", "<"},   {"=<", ">="},
            {">=", "=<"}, {"=:=", "=:="}, {"=\\=", "=\\="},
        };
        const PTerm& lhs = guard.args[0];
        const PTerm& rhs = guard.args[1];
        const std::string& oper = guard.name;

        if (lhs.kind == PTerm::Kind::Int && rhs.kind == PTerm::Kind::Int) {
            // Constant fold.
            bool holds = false;
            switch (kKinds.at(oper)) {
              case CmpKind::Lt:    holds = lhs.value < rhs.value; break;
              case CmpKind::Le:    holds = lhs.value <= rhs.value; break;
              case CmpKind::Gt:    holds = lhs.value > rhs.value; break;
              case CmpKind::Ge:    holds = lhs.value >= rhs.value; break;
              case CmpKind::NumEq: holds = lhs.value == rhs.value; break;
              case CmpKind::NumNe: holds = lhs.value != rhs.value; break;
            }
            if (!holds)
                emit({Op::GuardFail});
            return;
        }
        if (rhs.kind == PTerm::Kind::Int) {
            Instr ins{Op::GuardCmpInt};
            ins.a = evalGuardExpr(lhs);
            ins.imm = rhs.value;
            ins.d = static_cast<int>(kKinds.at(oper));
            emit(ins);
            return;
        }
        if (lhs.kind == PTerm::Kind::Int) {
            Instr ins{Op::GuardCmpInt};
            ins.a = evalGuardExpr(rhs);
            ins.imm = lhs.value;
            ins.d = static_cast<int>(kKinds.at(kSwap.at(oper)));
            emit(ins);
            return;
        }
        Instr ins{Op::GuardCmp};
        ins.a = evalGuardExpr(lhs);
        ins.b = evalGuardExpr(rhs);
        ins.d = static_cast<int>(kKinds.at(oper));
        emit(ins);
    }

    // ------------------------------------------------------------- body --

    void
    collectVars(const PTerm& t, std::set<std::string>& out) const
    {
        if (t.kind == PTerm::Kind::Var) {
            if (!t.isAnonymousVar())
                out.insert(t.name);
            return;
        }
        for (const PTerm& arg : t.args)
            collectVars(arg, out);
    }

    void
    preassignBodyVars()
    {
        std::set<std::string> vars;
        for (const Goal& goal : clause_.body)
            collectVars(goal, vars);
        for (const std::string& name : vars) {
            if (!regMap_.count(name))
                regMap_[name] = allocPersistent();
        }
    }

    /** Materialize a named variable's heap cell if not yet done. */
    void
    materialize(const std::string& name)
    {
        if (materialized_.count(name))
            return;
        materialized_.insert(name);
        Instr ins{Op::PutVar};
        ins.a = regMap_.at(name);
        emit(ins);
    }

    /** Build @p t into a register and return it. */
    int
    buildTerm(const PTerm& t)
    {
        switch (t.kind) {
          case PTerm::Kind::Var: {
            if (t.isAnonymousVar()) {
                const int reg = allocTemp();
                Instr ins{Op::PutVar};
                ins.a = reg;
                emit(ins);
                return reg;
            }
            materialize(t.name);
            return regMap_.at(t.name);
          }
          case PTerm::Kind::Int: {
            const int reg = allocTemp();
            Instr ins{Op::PutInt};
            ins.a = reg;
            ins.imm = t.value;
            emit(ins);
            return reg;
          }
          case PTerm::Kind::Atom: {
            const int reg = allocTemp();
            Instr ins{Op::PutAtom};
            ins.a = reg;
            ins.imm = atom(t.name);
            emit(ins);
            return reg;
          }
          case PTerm::Kind::List: {
            const int car = buildTerm(t.args[0]);
            const int cdr = buildTerm(t.args[1]);
            const int reg = allocTemp();
            Instr ins{Op::PutList};
            ins.a = reg;
            ins.b = car;
            ins.c = cdr;
            emit(ins);
            return reg;
          }
          case PTerm::Kind::Struct: {
            std::vector<int> arg_regs;
            arg_regs.reserve(t.args.size());
            for (const PTerm& arg : t.args)
                arg_regs.push_back(buildTerm(arg));
            // PutStruct reads consecutive registers; pack them.
            const int base = packRegs(arg_regs);
            const int reg = allocTemp();
            Instr ins{Op::PutStruct};
            ins.a = reg;
            ins.b = base;
            ins.imm = functorOf(t);
            emit(ins);
            return reg;
          }
        }
        err("unreachable term kind");
    }

    /** Copy @p regs into a fresh consecutive block; return its base. */
    int
    packRegs(const std::vector<int>& regs)
    {
        // If they are already consecutive, reuse them in place.
        bool consecutive = true;
        for (std::size_t i = 1; i < regs.size(); ++i)
            consecutive &= regs[i] == regs[i - 1] + 1;
        if (consecutive && !regs.empty())
            return regs.front();
        if (regs.empty())
            return 0;
        const int base = nextTemp_;
        for (int reg : regs) {
            const int dst = allocTemp();
            if (dst != reg) {
                Instr ins{Op::Move};
                ins.a = dst;
                ins.b = reg;
                emit(ins);
            }
        }
        return base;
    }

    /** Evaluate an arithmetic expression into a register. */
    int
    evalArith(const PTerm& t)
    {
        static const std::map<std::string, ArithKind> kKinds = {
            {"+", ArithKind::Add},  {"-", ArithKind::Sub},
            {"*", ArithKind::Mul},  {"//", ArithKind::Div},
            {"mod", ArithKind::Mod},
        };
        switch (t.kind) {
          case PTerm::Kind::Var: {
            const auto it = regMap_.find(t.name);
            if (it == regMap_.end() || !materialized_.count(t.name))
                err("arithmetic on an unbound variable: " + t.name);
            return it->second;
          }
          case PTerm::Kind::Int: {
            const int reg = allocTemp();
            Instr ins{Op::PutInt};
            ins.a = reg;
            ins.imm = t.value;
            emit(ins);
            return reg;
          }
          case PTerm::Kind::Struct: {
            const auto kind = kKinds.find(t.name);
            if (kind == kKinds.end() || t.args.size() != 2)
                err("not an arithmetic expression: " + t.toString());
            const int lhs = evalArith(t.args[0]);
            if (t.args[1].kind == PTerm::Kind::Int) {
                const int dst = allocTemp();
                Instr ins{Op::ArithInt};
                ins.a = dst;
                ins.b = lhs;
                ins.imm = t.args[1].value;
                ins.d = static_cast<int>(kind->second);
                emit(ins);
                return dst;
            }
            const int rhs = evalArith(t.args[1]);
            const int dst = allocTemp();
            Instr ins{Op::Arith};
            ins.a = dst;
            ins.b = lhs;
            ins.c = rhs;
            ins.d = static_cast<int>(kind->second);
            emit(ins);
            return dst;
          }
          default:
            err("not an arithmetic expression: " + t.toString());
        }
    }

    void
    compileAssign(const Goal& goal)
    {
        const PTerm& lhs = goal.args[0];
        if (lhs.kind != PTerm::Kind::Var || lhs.isAnonymousVar())
            err("target of := must be a variable: " + goal.toString());
        if (materialized_.count(lhs.name)) {
            // The variable already has a cell (or head binding): unify.
            const int value = evalArith(goal.args[1]);
            Instr ins{Op::Unify};
            ins.a = regMap_.at(lhs.name);
            ins.b = value;
            emit(ins);
            return;
        }
        // Register-valued result: no heap cell needed.
        const int value = evalArith(goal.args[1]);
        const int dst = regMap_.at(lhs.name);
        if (dst != value) {
            Instr ins{Op::Move};
            ins.a = dst;
            ins.b = value;
            emit(ins);
        }
        materialized_.insert(lhs.name);
    }

    void
    compileBody()
    {
        // Only the final body goal may become a tail call (Execute ends
        // the clause, so anything after it would never run).
        std::size_t last_user = clause_.body.size();
        if (!clause_.body.empty() &&
            !kBodyBuiltins.count(goalKey(clause_.body.back()))) {
            last_user = clause_.body.size() - 1;
        }

        for (std::size_t i = 0; i < clause_.body.size(); ++i) {
            const Goal& goal = clause_.body[i];
            resetTemps();
            const std::string gk = goalKey(goal);
            if (gk == "true/0")
                continue;
            if (gk == "=/2") {
                const int a = buildTerm(goal.args[0]);
                const int b = buildTerm(goal.args[1]);
                Instr ins{Op::Unify};
                ins.a = a;
                ins.b = b;
                emit(ins);
                continue;
            }
            if (gk == ":=/2") {
                compileAssign(goal);
                continue;
            }
            if (gk == "kl1_result/1") {
                const int reg = buildTerm(goal.args[0]);
                Instr ins{Op::BuiltinResult};
                ins.a = reg;
                emit(ins);
                continue;
            }
            if (gk == "new_vector/3") {
                // new_vector(Size, Init, V)
                Instr ins{Op::VecNew};
                ins.a = buildTerm(goal.args[0]);
                ins.b = buildTerm(goal.args[1]);
                ins.c = buildTerm(goal.args[2]);
                emit(ins);
                continue;
            }
            if (gk == "vector_element/3") {
                // vector_element(V, I, X)
                Instr ins{Op::VecGet};
                ins.a = buildTerm(goal.args[0]);
                ins.b = buildTerm(goal.args[1]);
                ins.c = buildTerm(goal.args[2]);
                emit(ins);
                continue;
            }
            if (gk == "set_vector_element/4" ||
                gk == "set_vector_element_d/4") {
                // set_vector_element[_d](V, I, X, V1)
                Instr ins{gk == "set_vector_element/4" ? Op::VecSet
                                                       : Op::VecSetD};
                ins.a = buildTerm(goal.args[0]);
                ins.b = buildTerm(goal.args[1]);
                ins.c = buildTerm(goal.args[2]);
                ins.d = buildTerm(goal.args[3]);
                emit(ins);
                continue;
            }
            if (kGuardBuiltins.count(gk))
                err("guard builtin used in a body: " + gk);

            // User goal.
            const std::uint32_t arity =
                goal.kind == PTerm::Kind::Struct
                    ? static_cast<std::uint32_t>(goal.args.size())
                    : 0;
            if (program_.find(goal.name, arity) == nullptr)
                err("call to undefined procedure " + gk);

            std::vector<int> arg_regs;
            for (const PTerm& arg : goal.args)
                arg_regs.push_back(buildTerm(arg));
            const int base = packRegs(arg_regs);
            Instr ins{i == last_user ? Op::Execute : Op::Spawn};
            ins.a = static_cast<int>(
                module_.procIndex.at(key(goal.name, arity)));
            ins.b = static_cast<int>(arity);
            ins.c = base;
            emit(ins);
            if (i == last_user)
                return; // Execute ends the block.
        }
        emit({Op::Proceed});
    }

    Module& module_;
    const Program& program_;
    const Procedure& proc_;
    const Clause& clause_;

    std::map<std::string, int> regMap_;
    std::set<std::string> materialized_;
    int nextPersistent_ = 0;
    int tempBase_ = 0;
    int nextTemp_ = 0;
};

} // namespace

bool
isBodyBuiltin(const std::string& name, std::uint32_t arity)
{
    return kBodyBuiltins.count(key(name, arity)) != 0;
}

bool
isGuardBuiltin(const std::string& name, std::uint32_t arity)
{
    return kGuardBuiltins.count(key(name, arity)) != 0;
}

Module
compileProgram(const Program& program)
{
    Module module;

    // Pass 1: assign procedure ids (so calls can reference them).
    for (const Procedure& proc : program.procedures) {
        ProcInfo info;
        info.name = proc.name;
        info.arity = proc.arity;
        module.procIndex.emplace(key(proc.name, proc.arity),
                                 static_cast<std::uint32_t>(
                                     module.procs.size()));
        module.procs.push_back(info);
    }

    // Pass 2: compile clause chains.
    for (std::size_t p = 0; p < program.procedures.size(); ++p) {
        const Procedure& proc = program.procedures[p];
        module.procs[p].entryPc =
            static_cast<std::uint32_t>(module.code.size());
        std::vector<std::size_t> try_slots;
        for (const Clause& clause : proc.clauses) {
            try_slots.push_back(module.code.size());
            module.code.push_back({Op::TryClause});
            ClauseCompiler(module, program, proc, clause).compile();
            // Patch this clause's TryClause to point at the next block.
            module.code[try_slots.back()].a =
                static_cast<int>(module.code.size());
        }
        module.code.push_back({Op::SuspendOrFail});
    }

    module.finalize();
    return module;
}

} // namespace pim::kl1
