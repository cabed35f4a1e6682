/**
 * @file
 * Tiny command-line / environment option parser for benches, tools and
 * examples.
 *
 * Supports "--name value", "--name=value" and boolean "--name" flags, plus
 * environment-variable fallbacks so the whole bench directory can be
 * steered with REPRO_SCALE / REPRO_PES without editing command lines.
 */

#ifndef PIMCACHE_COMMON_OPTIONS_H_
#define PIMCACHE_COMMON_OPTIONS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace pim {

/** Parsed command-line options with typed accessors. */
class Options
{
  public:
    Options() = default;

    /**
     * Parse argv. Unknown options are accepted (benches share a parser;
     * tools that must reject them call flagsAreKnown); positional
     * arguments are collected in order.
     */
    static Options parse(int argc, const char* const* argv);

    /** True if --name was present. */
    bool has(const std::string& name) const;

    /** String value of --name, or @p fallback. */
    std::string getString(const std::string& name,
                          const std::string& fallback = "") const;

    /** Integer value of --name, or @p fallback. */
    std::int64_t getInt(const std::string& name, std::int64_t fallback) const;

    /** Double value of --name, or @p fallback. */
    double getDouble(const std::string& name, double fallback) const;

    /** Boolean flag: present without value, or value in {1,true,yes,on}. */
    bool getBool(const std::string& name, bool fallback = false) const;

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** Inject or override an option programmatically. */
    void set(const std::string& name, const std::string& value);

    /**
     * Environment fallback: value of --name if present, else env var
     * @p env_name, else @p fallback.
     */
    std::int64_t getIntEnv(const std::string& name, const char* env_name,
                           std::int64_t fallback) const;

    /**
     * Environment fallback: value of --name if present, else env var
     * @p env_name, else @p fallback.
     */
    std::string getStringEnv(const std::string& name, const char* env_name,
                             const std::string& fallback = "") const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/** Read an integer environment variable, or @p fallback. */
std::int64_t envInt(const char* name, std::int64_t fallback);

/**
 * True when every "--name" argument in @p argv is one of @p known.
 * Otherwise prints "<tool>: unknown option --name" to stderr and
 * returns false: a mistyped or retired flag would silently run with a
 * default, i.e. a different run than the one asked for.
 */
bool flagsAreKnown(const char* tool, int argc, const char* const* argv,
                   std::span<const char* const> known);

} // namespace pim

#endif // PIMCACHE_COMMON_OPTIONS_H_
