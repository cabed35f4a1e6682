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
        Count,  ///< A whole number from 0 to 2^63-1: decimal, 0x hex or
                ///< 0-led octal. Every integer a binary reads is a size,
                ///< count, seed or bound cast to an unsigned type, where
                ///< -1 would wrap to 2^32-1 or 2^64-1.
        Double, ///< A finite floating-point number >= 0 (a time budget).
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
     * number that does not parse whole, a Count that is negative or past
     * the int64 range, a Double that is negative or not finite, or one
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

    /** Value of the Count flag --name, or @p fallback. */
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
