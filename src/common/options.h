/**
 * @file
 * The command-line parser of every bench, tool and example. Each binary
 * declares the flags it reads and how their values are read; parse()
 * refuses anything else before the binary does any work, so a run is
 * always exactly the run its command line names.
 */

#ifndef PIMCACHE_COMMON_OPTIONS_H_
#define PIMCACHE_COMMON_OPTIONS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace pim {

/** One flag a binary reads, and the values it accepts. */
struct Flag {
    enum Type : std::uint8_t {
        Bool,   ///< "--name" alone: takes no value, never the next argument.
        Int,    ///< A whole integer: decimal, 0x hex or 0-led octal.
        Count,  ///< An Int >= 0: cast to an unsigned worker or seed count,
                ///< -1 would ask for 2^32-1 of them.
        Double, ///< A whole floating-point number.
        String, ///< Any text.
    };
    const char* name;
    Type type;
};

/** Parsed command-line options with typed accessors. */
class Options
{
  public:
    /**
     * Parse argv against @p flags, every flag the binary reads, and at
     * most @p max_positional positional arguments. A valued flag is
     * "--name value" or "--name=value", a Bool flag "--name"; every
     * argument not starting with "--" is positional. Returns nullopt,
     * after printing "<program>: <reason>" to stderr, on an unknown
     * flag, a Bool flag given a value, a valued flag given none, a
     * number that does not parse whole, a negative Count, or one
     * positional more than the binary reads: each would otherwise run
     * something other than the run asked for.
     */
    static std::optional<Options> parse(int argc, const char* const* argv,
                                        std::span<const Flag> flags,
                                        std::size_t max_positional = 0);

    /** True if --name was given. */
    bool has(const std::string& name) const;

    /** Last value given for --name, or @p fallback. */
    std::string getString(const std::string& name,
                          const std::string& fallback = "") const;

    /** Every value given for --name, in order. */
    std::vector<std::string> getAll(const std::string& name) const;

    /** Integer value of --name, or @p fallback. */
    std::int64_t getInt(const std::string& name, std::int64_t fallback) const;

    /** Double value of --name, or @p fallback. */
    double getDouble(const std::string& name, double fallback) const;

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string>& positional() const { return positional_; }

  private:
    std::map<std::string, std::vector<std::string>> values_;
    std::vector<std::string> positional_;
};

} // namespace pim

#endif // PIMCACHE_COMMON_OPTIONS_H_
