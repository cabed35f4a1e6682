#include "common/log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>

namespace pim {

namespace {

/** Parse PIM_LOG once at startup: a level name or a number 0-4. */
LogLevel
initialLevel()
{
    const char* env = std::getenv("PIM_LOG");
    if (env == nullptr || env[0] == '\0')
        return LogLevel::Warn;
    if (std::strcmp(env, "error") == 0)
        return LogLevel::Error;
    if (std::strcmp(env, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(env, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(env, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(env, "trace") == 0)
        return LogLevel::Trace;
    if (env[0] >= '0' && env[0] <= '4' && env[1] == '\0')
        return static_cast<LogLevel>(env[0] - '0');
    std::fprintf(stderr,
                 "[0 WARN] PIM_LOG='%s' not recognized (want error, "
                 "warn, info, debug, trace or 0-4); using warn\n",
                 env);
    return LogLevel::Warn;
}

// Fixed during static initialization, so concurrent readers need no atomic.
const LogLevel gLevel = initialLevel();

// Atomic so concurrent simulations on sweep workers can log without a
// data race; sequence numbers stay globally unique and monotonic, but
// lines from different workers may interleave in any order.
std::atomic<std::uint64_t> gSequence{0}; ///< Next line's sequence number.

const char*
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Error: return "ERROR";
      case LogLevel::Warn:  return "WARN";
      case LogLevel::Info:  return "INFO";
      case LogLevel::Debug: return "DEBUG";
      case LogLevel::Trace: return "TRACE";
    }
    return "?";
}

} // namespace

LogLevel
logLevel()
{
    return gLevel;
}

void
logLine(LogLevel level, const std::string& msg)
{
    const std::uint64_t seq =
        gSequence.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "[%llu %s] %s\n",
                 static_cast<unsigned long long>(seq), levelName(level),
                 msg.c_str());
}

} // namespace pim
