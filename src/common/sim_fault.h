/**
 * @file
 * Structured simulator fault: the error type raised by configuration
 * validation, the KL1 front end, the coherence auditor and the lock
 * watchdog.
 *
 * Unlike PIM_PANIC / PIM_FATAL (which terminate the process), a SimFault
 * is a recoverable, catchable error: the stress harness catches it, turns
 * it into a replay line, and keeps the process alive to report. The kind
 * classifies the failure so tests and tooling can distinguish, say, a
 * detected coherence corruption from a lock deadlock.
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
};

/** Number of SimFaultKind enumerators. */
inline constexpr int kNumSimFaultKinds = 8;

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
    }
    return "?";
}

/**
 * Process exit code for a SimFault caught at a tool's main(), one per
 * kind family so scripts can classify failures without parsing stderr
 * (docs/ROBUSTNESS.md "Structured error exits"):
 *
 *   10 config, 11 parse, 12 detection (corruption/protocol),
 *   13 liveness (deadlock/livelock/starvation),
 *   14 execution bound (timeout).
 */
inline int
simFaultExitCode(SimFaultKind kind)
{
    switch (kind) {
      case SimFaultKind::Config:     return 10;
      case SimFaultKind::Parse:      return 11;
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
 * Report @p fault, caught at @p tool's main(), as one structured line on
 * stderr ("<tool>: error: kind=<kind> exit=<code> <message>") and return
 * its family exit code, so scripts can triage a failure without parsing
 * prose.
 */
inline int
reportSimFault(const char* tool, const SimFault& fault)
{
    std::fprintf(stderr, "%s: error: kind=%s exit=%d %s\n", tool,
                 simFaultKindName(fault.kind()),
                 simFaultExitCode(fault.kind()), fault.what());
    return simFaultExitCode(fault.kind());
}

} // namespace pim

/**
 * Construct a SimFault of @p kind with stream-style message arguments.
 * Use as `throw PIM_SIM_FAULT(kind, ...)`.
 */
#define PIM_SIM_FAULT(kind, ...)                                            \
    ::pim::SimFault((kind), ::pim::formatMsg(__VA_ARGS__))

#endif // PIMCACHE_COMMON_SIM_FAULT_H_
