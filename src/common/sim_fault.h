/**
 * @file
 * Structured simulator fault: the one way the library reports an error
 * that a command line, a spec or trace file or an FGHC program can
 * cause. Configuration validation, the KL1 front end and emulator, the
 * trace reader, the drive loops, the coherence auditor and the lock
 * watchdog all throw it.
 *
 * A SimFault is a recoverable, catchable error: the stress harness turns
 * it into a replay line, the sweep runner into one failed row while the
 * rest of the grid drains, and every tool's main() into one structured
 * line and a family exit code (runMain). The kind classifies the failure
 * so tests and tooling can distinguish, say, a detected coherence
 * corruption from a lock deadlock. PIM_PANIC / PIM_ASSERT
 * (common/xassert.h) are for simulator bugs only, and abort.
 */

#ifndef PIMCACHE_COMMON_SIM_FAULT_H_
#define PIMCACHE_COMMON_SIM_FAULT_H_

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/xassert.h"

namespace pim {

/** Classification of a structured simulator fault. */
enum class SimFaultKind : std::uint8_t {
    Config = 0,     ///< Invalid construction parameters.
    Parse = 1,      ///< Malformed input program text.
    Corruption = 2, ///< Coherent-memory contents diverged (auditor).
    Protocol = 3,   ///< Cache-state invariant violated (auditor).
    Deadlock = 4,   ///< Every PE parked with no UL in flight (watchdog).
    Livelock = 5,   ///< Same access retried without commit (watchdog).
    Starvation = 6, ///< A parked PE aged past the LWAIT bound (watchdog).
    Timeout = 7,    ///< Wall-clock deadline exceeded (RunGuard).
    Program = 8,    ///< The FGHC program failed while running.
};

/** Stable lowercase name, used in replay lines and test assertions. */
inline const char*
simFaultKindName(SimFaultKind kind)
{
    switch (kind) {
      case SimFaultKind::Config:     return "config";
      case SimFaultKind::Parse:      return "parse";
      case SimFaultKind::Corruption: return "corruption";
      case SimFaultKind::Protocol:   return "protocol";
      case SimFaultKind::Deadlock:   return "deadlock";
      case SimFaultKind::Livelock:   return "livelock";
      case SimFaultKind::Starvation: return "starvation";
      case SimFaultKind::Timeout:    return "timeout";
      case SimFaultKind::Program:    return "program";
    }
    return "?";
}

/**
 * Process exit code for a SimFault caught at a tool's main(), one per
 * kind family so scripts can classify failures without parsing stderr
 * (docs/ROBUSTNESS.md "Structured bench exit codes"):
 *
 *   10 config, 11 parse and program,
 *   12 detection (corruption/protocol),
 *   13 liveness (deadlock/livelock/starvation),
 *   14 execution bound (timeout).
 */
inline int
simFaultExitCode(SimFaultKind kind)
{
    switch (kind) {
      case SimFaultKind::Config:     return 10;
      case SimFaultKind::Parse:
      case SimFaultKind::Program:    return 11;
      case SimFaultKind::Corruption:
      case SimFaultKind::Protocol:   return 12;
      case SimFaultKind::Deadlock:
      case SimFaultKind::Livelock:
      case SimFaultKind::Starvation: return 13;
      case SimFaultKind::Timeout:    return 14;
    }
    return 15;
}

/** A recoverable, classified simulator error. */
class SimFault : public std::runtime_error
{
  public:
    SimFault(SimFaultKind kind, std::string message)
        : std::runtime_error(std::string(simFaultKindName(kind)) + ": " +
                             message),
          kind_(kind),
          message_(std::move(message))
    {
    }

    SimFaultKind kind() const { return kind_; }

    /** The message without the kind prefix. */
    const std::string& message() const { return message_; }

  private:
    SimFaultKind kind_;
    std::string message_;
};

/**
 * The shared body of every tool's main(): run @p body and report a
 * SimFault escaping it as one structured line on stderr
 * ("<tool>: error: kind=<kind> exit=<code> <message>"), returning its
 * family exit code, so scripts can triage a failure without parsing
 * prose. The objects @p body built are destroyed while the fault
 * unwinds, so a System torn down mid-run skips its parked-PE check.
 */
template <typename Body>
int
runMain(const char* tool, Body&& body)
{
    try {
        return body();
    } catch (const SimFault& fault) {
        std::fprintf(stderr, "%s: error: kind=%s exit=%d %s\n", tool,
                     simFaultKindName(fault.kind()),
                     simFaultExitCode(fault.kind()), fault.what());
        return simFaultExitCode(fault.kind());
    }
}

} // namespace pim

/**
 * Construct a SimFault of @p kind with stream-style message arguments.
 * Use as `throw PIM_SIM_FAULT(kind, ...)`.
 */
#define PIM_SIM_FAULT(kind, ...)                                            \
    ::pim::SimFault((kind), ::pim::formatMsg(__VA_ARGS__))

#endif // PIMCACHE_COMMON_SIM_FAULT_H_
