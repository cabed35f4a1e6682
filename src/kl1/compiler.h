/**
 * @file
 * Compiler from FGHC clauses to the KL1-B-style instruction set.
 *
 * Each procedure compiles to a chain of clause blocks:
 *
 *   TryClause(next)  <head waits>  <guards>  Commit  <body>  Proceed/Execute
 *
 * terminated by a SuspendOrFail epilogue: if any clause's passive part
 * met an unbound variable it needed, the goal suspends on those
 * variables; otherwise the program fails (SimFault(Program)).
 *
 * Register discipline: goal arguments arrive in X0..Xn-1; registers bound
 * during head matching and named body variables are persistent for the
 * clause; construction temporaries are recycled per body goal.
 */

#ifndef PIMCACHE_KL1_COMPILER_H_
#define PIMCACHE_KL1_COMPILER_H_

#include "kl1/ast.h"
#include "kl1/module.h"

namespace pim::kl1 {

/** Compile a parsed program. SimFault(Parse) on semantic errors
 *  (undefined procedures, malformed guards, register overflow). */
Module compileProgram(const Program& program);

/** True if name/arity is a body builtin handled inline by the compiler. */
bool isBodyBuiltin(const std::string& name, std::uint32_t arity);

/** True if name/arity is a legal guard builtin. */
bool isGuardBuiltin(const std::string& name, std::uint32_t arity);

} // namespace pim::kl1

#endif // PIMCACHE_KL1_COMPILER_H_
