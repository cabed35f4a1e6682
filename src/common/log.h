/**
 * @file
 * Minimal leveled logging to stderr.
 *
 * Level is process global and settable from the PIM_LOG environment
 * variable, parsed once at startup: the names error, warn, info, debug,
 * trace, or the equivalent numbers 0-4 (see README "Logging"). Defaults
 * to warn so tests and benches stay quiet.
 *
 * Every line carries a process-wide monotonic sequence number so output
 * interleaved from concurrent simulations can be ordered after the fact:
 *
 *   [42 WARN] program ended with 3 suspended goal(s)
 */

#ifndef PIMCACHE_COMMON_LOG_H_
#define PIMCACHE_COMMON_LOG_H_

#include <sstream>
#include <string>

namespace pim {

enum class LogLevel : int {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
};

/** Current global log level. */
LogLevel logLevel();

/**
 * Emit one log line (no newline needed), stamped with the next sequence
 * number. Callers check logEnabled() first.
 */
void logLine(LogLevel level, const std::string& msg);

/** True if a message at @p level would be emitted. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(logLevel());
}

} // namespace pim

#define PIM_LOG(level, ...)                                                 \
    do {                                                                    \
        if (::pim::logEnabled(level)) {                                     \
            std::ostringstream os_;                                         \
            os_ << __VA_ARGS__;                                             \
            ::pim::logLine(level, os_.str());                               \
        }                                                                   \
    } while (0)

#define PIM_INFO(...)  PIM_LOG(::pim::LogLevel::Info, __VA_ARGS__)
#define PIM_WARN(...)  PIM_LOG(::pim::LogLevel::Warn, __VA_ARGS__)
#define PIM_DEBUG(...) PIM_LOG(::pim::LogLevel::Debug, __VA_ARGS__)
#define PIM_TRACE(...) PIM_LOG(::pim::LogLevel::Trace, __VA_ARGS__)

#endif // PIMCACHE_COMMON_LOG_H_
