#include "common/options.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/strutil.h"

namespace pim {

namespace {

/**
 * What a @p type flag's value must be, when @p value is not one; nullptr
 * when it is.
 */
const char*
valueRule(Flag::Type type, const std::string& value)
{
    if (type == Flag::Bool || type == Flag::String)
        return nullptr;
    char* end = nullptr;
    if (type == Flag::Double) {
        const double number = std::strtod(value.c_str(), &end);
        const bool read = !value.empty() && *end == '\0';
        return read && std::isfinite(number) && number >= 0
                   ? nullptr
                   : "a finite number >= 0";
    }
    errno = 0;
    const long long number = std::strtoll(value.c_str(), &end, 0);
    if (value.empty() || *end != '\0' || number < 0)
        return "a whole number >= 0";
    // strtoll saturates a value past the int64 range and says so only
    // in errno.
    return errno == ERANGE ? "a whole number below 2^63" : nullptr;
}

} // namespace

std::optional<Options>
Options::parse(int argc, const char* const* argv,
               std::span<const Flag> flags, std::size_t max_positional)
{
    const std::string program =
        std::filesystem::path(argv[0]).filename().string();
    const auto refuse = [&](const std::string& reason) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(), reason.c_str());
        return std::nullopt;
    };

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            if (opts.positional_.size() == max_positional)
                return refuse("unexpected argument '" + arg + "'");
            opts.positional_.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name =
            eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag& f) { return name == f.name; });
        if (flag == flags.end())
            return refuse("unknown option --" + name);

        std::string value;
        if (eq != std::string::npos) {
            if (flag->type == Flag::Bool)
                return refuse("--" + name + " takes no value");
            value = arg.substr(eq + 1);
        } else if (flag->type != Flag::Bool) {
            if (i + 1 == argc || startsWith(argv[i + 1], "--"))
                return refuse("--" + name + " needs a value");
            value = argv[++i];
        }
        if (const char* rule = valueRule(flag->type, value))
            return refuse("--" + name + ": '" + value + "' is not " + rule);
        opts.values_[name].push_back(value);
    }
    return opts;
}

bool
Options::has(const std::string& name) const
{
    return values_.count(name) != 0;
}

std::string
Options::getString(const std::string& name, const std::string& fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second.back();
}

std::vector<std::string>
Options::getAll(const std::string& name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
}

std::int64_t
Options::getInt(const std::string& name, std::int64_t fallback) const
{
    return has(name) ? std::strtoll(getString(name).c_str(), nullptr, 0)
                     : fallback;
}

double
Options::getDouble(const std::string& name, double fallback) const
{
    return has(name) ? std::strtod(getString(name).c_str(), nullptr)
                     : fallback;
}

} // namespace pim
