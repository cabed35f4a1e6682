/**
 * @file
 * Assertion helpers for simulator bugs.
 *
 * PIM_ASSERT and PIM_PANIC guard internal invariants: reaching one means
 * the simulator itself is wrong, so they print "panic: file:line: ..."
 * and abort. They are always on, independent of NDEBUG, because a
 * silently incoherent cache model is worse than a slow one. Anything a
 * command line, a spec or trace file, or an FGHC program can cause is
 * not a bug and never reaches them: it is a classified SimFault
 * (common/sim_fault.h).
 */

#ifndef PIMCACHE_COMMON_XASSERT_H_
#define PIMCACHE_COMMON_XASSERT_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pim {

[[noreturn]] inline void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    std::abort();
}

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
formatMsg(Args&&... args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace pim

/** Internal invariant violation: always-on assert. */
#define PIM_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::pim::panicImpl(__FILE__, __LINE__,                            \
                             ::pim::formatMsg("assertion failed: ", #cond,  \
                                              " ", ##__VA_ARGS__));         \
        }                                                                   \
    } while (0)

/** Unconditional internal error. */
#define PIM_PANIC(...)                                                      \
    ::pim::panicImpl(__FILE__, __LINE__, ::pim::formatMsg(__VA_ARGS__))

#endif // PIMCACHE_COMMON_XASSERT_H_
