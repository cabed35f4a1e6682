/**
 * @file
 * Unit tests for the common utilities.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/table.h"

namespace pim {
namespace {

TEST(StrUtil, FmtFixed)
{
    EXPECT_EQ(fmtFixed(3.14159, 2), "3.14");
    EXPECT_EQ(fmtFixed(0.5, 0), "0");  // round-half-even via printf
    EXPECT_EQ(fmtFixed(-1.005, 1), "-1.0");
    EXPECT_EQ(fmtFixed(42.0, 3), "42.000");
}

TEST(StrUtil, FmtPct)
{
    EXPECT_EQ(fmtPct(0.4287), "42.87");
    EXPECT_EQ(fmtPct(1.0, 0), "100");
    EXPECT_EQ(fmtPct(0.0), "0.00");
}

TEST(StrUtil, FmtCount)
{
    EXPECT_EQ(fmtCount(0), "0");
    EXPECT_EQ(fmtCount(999), "999");
    EXPECT_EQ(fmtCount(1000), "1,000");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(666233), "666,233");
}

TEST(StrUtil, FmtEng)
{
    EXPECT_EQ(fmtEng(13.0e6), "13.0M");
    EXPECT_EQ(fmtEng(28.9e6), "28.9M");
    EXPECT_EQ(fmtEng(4800), "4.8K");
    EXPECT_EQ(fmtEng(12), "12.0");
    EXPECT_EQ(fmtEng(2.5e9), "2.5G");
}

TEST(StrUtil, SplitAndTrim)
{
    const auto parts = splitString("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(trimString("  hi \t"), "hi");
    EXPECT_EQ(trimString(""), "");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_TRUE(startsWith("--flag", "--"));
    EXPECT_FALSE(startsWith("-", "--"));
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

const Flag kTestFlags[] = {
    {"pes", Flag::Count},    {"scale", Flag::Count},
    {"verbose", Flag::Bool}, {"quiet", Flag::Bool},
    {"smoke", Flag::Bool},   {"timeout", Flag::Double},
    {"out", Flag::String},   {"require", Flag::String},
    {"seeds", Flag::Count},
};

/** Parse all of @p argv against kTestFlags and up to two positionals. */
template <std::size_t N>
std::optional<Options>
parseTest(const char* const (&argv)[N])
{
    return Options::parse(static_cast<int>(N), argv, kTestFlags, 2);
}

TEST(Options, ParseForms)
{
    const char* const argv[] = {"prog", "--pes", "8", "--scale=2",
                                "input.fghc", "--verbose"};
    const std::optional<Options> opts = parseTest(argv);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->getInt("pes", 0), 8);
    EXPECT_EQ(opts->getInt("scale", 0), 2);
    EXPECT_TRUE(opts->has("verbose"));
    EXPECT_FALSE(opts->has("quiet"));
    ASSERT_EQ(opts->positional().size(), 1u);
    EXPECT_EQ(opts->positional()[0], "input.fghc");
}

TEST(Options, BoolFlagLeavesNextPositional)
{
    const char* const argv[] = {"prog", "input.fghc", "--verbose",
                                "main(R)."};
    const std::optional<Options> opts = parseTest(argv);
    ASSERT_TRUE(opts.has_value());
    EXPECT_TRUE(opts->has("verbose"));
    ASSERT_EQ(opts->positional().size(), 2u);
    EXPECT_EQ(opts->positional()[1], "main(R).");
}

TEST(Options, Defaults)
{
    const char* const argv[] = {"prog"};
    const std::optional<Options> opts = parseTest(argv);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->getInt("pes", 42), 42);
    EXPECT_EQ(opts->getString("out", "x"), "x");
    EXPECT_DOUBLE_EQ(opts->getDouble("timeout", 1.5), 1.5);
    EXPECT_TRUE(opts->getAll("require").empty());
}

TEST(Options, FlagsAreKnown)
{
    const char* const good[] = {"prog", "--pes", "8", "input", "--smoke"};
    EXPECT_TRUE(parseTest(good).has_value());
    const char* const with_value[] = {"prog", "--pes=8", "--smoke"};
    EXPECT_TRUE(parseTest(with_value).has_value());
    const char* const unknown[] = {"prog", "--pes=8", "--jobs=2"};
    EXPECT_FALSE(parseTest(unknown).has_value());
    const char* const prefix[] = {"prog", "--pe=8"};
    EXPECT_FALSE(parseTest(prefix).has_value());
}

TEST(Options, RefusesMalformedValues)
{
    const char* const whole[] = {"prog", "--pes=0x10", "--timeout", "0.5",
                                 "--seeds=0"};
    const std::optional<Options> opts = parseTest(whole);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->getInt("pes", 0), 16);
    EXPECT_DOUBLE_EQ(opts->getDouble("timeout", 0), 0.5);
    EXPECT_EQ(opts->getInt("seeds", 1), 0);

    const char* const exponent[] = {"prog", "--pes=1e3"};
    EXPECT_FALSE(parseTest(exponent).has_value());
    const char* const word[] = {"prog", "--scale=abc"};
    EXPECT_FALSE(parseTest(word).has_value());
    const char* const empty[] = {"prog", "--scale="};
    EXPECT_FALSE(parseTest(empty).has_value());
    const char* const unit[] = {"prog", "--timeout=2s"};
    EXPECT_FALSE(parseTest(unit).has_value());
    const char* const negative_count[] = {"prog", "--seeds=-1"};
    EXPECT_FALSE(parseTest(negative_count).has_value());
    // Every integer flag is a count: cast to an unsigned type, -1 wraps.
    const char* const negative_scale[] = {"prog", "--scale", "-1"};
    EXPECT_FALSE(parseTest(negative_scale).has_value());
    // strtoll would read this as 2^63-1.
    const char* const past_int64[] = {"prog", "--scale=99999999999999999999"};
    EXPECT_FALSE(parseTest(past_int64).has_value());
    // A time budget is finite and >= 0.
    for (const char* budget : {"--timeout=-1", "--timeout=nan",
                               "--timeout=inf"}) {
        const char* const argv[] = {"prog", budget};
        EXPECT_FALSE(parseTest(argv).has_value()) << budget;
    }
    const char* const last[] = {"prog", "--out"};
    EXPECT_FALSE(parseTest(last).has_value());
    const char* const before_flag[] = {"prog", "--out", "--smoke"};
    EXPECT_FALSE(parseTest(before_flag).has_value());
    const char* const bool_value[] = {"prog", "--smoke=1"};
    EXPECT_FALSE(parseTest(bool_value).has_value());
}

TEST(Options, RefusesUndeclaredPositionals)
{
    // A binary that reads no positional refuses one: "smoke" meant
    // --spec=smoke would otherwise run the default.
    const char* const stray[] = {"prog", "smoke", "--smoke"};
    EXPECT_FALSE(Options::parse(3, stray, kTestFlags).has_value());
    // A valued flag's separate value is not a positional.
    const char* const none[] = {"prog", "--pes", "1", "--smoke"};
    EXPECT_TRUE(Options::parse(4, none, kTestFlags).has_value());
    // One past the declared count is refused too.
    const char* const third[] = {"prog", "a.fghc", "main(R).", "extra"};
    EXPECT_FALSE(parseTest(third).has_value());
}

TEST(Options, RepeatedFlagKeepsEveryValue)
{
    const char* const argv[] = {"prog", "--require=a.b", "--require",
                                "c.0", "--out=x", "--out=y"};
    const std::optional<Options> opts = parseTest(argv);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->getAll("require"),
              (std::vector<std::string>{"a.b", "c.0"}));
    EXPECT_EQ(opts->getString("out"), "y");
}

TEST(Table, RendersAligned)
{
    Table table("T");
    table.setHeader({"bench", "value"});
    table.addRow({"Tri", "1.00"});
    table.addRow({"Semi", "0.62"});
    const std::string out = table.toString();
    EXPECT_NE(out.find("| bench |"), std::string::npos);
    EXPECT_NE(out.find("|  1.00 |"), std::string::npos);
    EXPECT_NE(out.find("Semi"), std::string::npos);
}

TEST(Table, RuleSeparators)
{
    Table table;
    table.setHeader({"a"});
    table.addRow({"1"});
    table.addRule();
    table.addRow({"2"});
    const std::string out = table.toString();
    // Header rule + added rule + top + bottom = 4 separator lines.
    int rules = 0;
    for (std::size_t pos = 0; (pos = out.find("+--", pos)) !=
                              std::string::npos; ++pos) {
        ++rules;
    }
    EXPECT_EQ(rules, 4);
}

} // namespace
} // namespace pim
