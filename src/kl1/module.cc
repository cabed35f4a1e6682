#include "kl1/module.h"

#include <sstream>

#include "common/sim_fault.h"
#include "common/xassert.h"

namespace pim::kl1 {

const char*
opName(Op op)
{
    switch (op) {
      case Op::TryClause:      return "try_clause";
      case Op::Commit:         return "commit";
      case Op::Proceed:        return "proceed";
      case Op::Execute:        return "execute";
      case Op::Spawn:          return "spawn";
      case Op::SuspendOrFail:  return "suspend_or_fail";
      case Op::WaitInt:        return "wait_int";
      case Op::WaitAtom:       return "wait_atom";
      case Op::WaitList:       return "wait_list";
      case Op::WaitStruct:     return "wait_struct";
      case Op::WaitSame:       return "wait_same";
      case Op::GuardCmp:       return "guard_cmp";
      case Op::GuardCmpInt:    return "guard_cmp_int";
      case Op::GuardInteger:   return "guard_integer";
      case Op::GuardWait:      return "guard_wait";
      case Op::GuardOtherwise: return "guard_otherwise";
      case Op::GuardFail:      return "guard_fail";
      case Op::GuardDiff:      return "guard_diff";
      case Op::GArith:         return "guard_arith";
      case Op::GArithInt:      return "guard_arith_int";
      case Op::PutInt:         return "put_int";
      case Op::PutAtom:        return "put_atom";
      case Op::PutVar:         return "put_var";
      case Op::PutList:        return "put_list";
      case Op::PutStruct:      return "put_struct";
      case Op::Move:           return "move";
      case Op::Unify:          return "unify";
      case Op::Arith:          return "arith";
      case Op::ArithInt:       return "arith_int";
      case Op::BuiltinResult:  return "builtin_result";
      case Op::VecNew:         return "vector_new";
      case Op::VecGet:         return "vector_get";
      case Op::VecSet:         return "vector_set";
      case Op::VecSetD:        return "vector_set_d";
    }
    return "?";
}

void
Module::finalize()
{
    wordOffsets_.resize(code.size());
    std::uint32_t offset = 0;
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
        wordOffsets_[pc] = offset;
        offset += code[pc].words();
    }
    totalWords_ = offset;
}

std::uint32_t
Module::procId(const std::string& name, std::uint32_t arity) const
{
    const std::string key = name + "/" + std::to_string(arity);
    const auto it = procIndex.find(key);
    if (it == procIndex.end())
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "undefined procedure ", key);
    return it->second;
}

std::string
Module::disassemble(std::uint32_t pc) const
{
    const Instr& ins = code[pc];
    std::ostringstream os;
    os << pc << "\t" << opName(ins.op) << " a=" << ins.a << " b=" << ins.b
       << " c=" << ins.c << " d=" << ins.d;
    if (Instr::hasImm(ins.op))
        os << " imm=" << ins.imm;
    return os.str();
}

std::string
Module::disassembleAll() const
{
    std::ostringstream os;
    for (const ProcInfo& proc : procs) {
        os << proc.name << "/" << proc.arity << ":\n";
        const std::uint32_t end =
            &proc == &procs.back()
                ? static_cast<std::uint32_t>(code.size())
                : (&proc + 1)->entryPc;
        for (std::uint32_t pc = proc.entryPc; pc < end; ++pc)
            os << "  " << disassemble(pc) << "\n";
    }
    return os.str();
}

} // namespace pim::kl1
