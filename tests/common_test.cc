/**
 * @file
 * Unit tests for the common utilities.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/page_table.h"
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

TEST(Options, Count32RefusesWhatThirtyTwoBitsCannotHold)
{
    const Flag flags[] = {{"pes", Flag::Count32}, {"steps", Flag::Count}};
    const auto parse = [&](const char* arg) {
        const char* const argv[] = {"prog", arg};
        return Options::parse(2, argv, flags);
    };
    const std::optional<Options> top = parse("--pes=4294967295");
    ASSERT_TRUE(top.has_value());
    EXPECT_EQ(top->getInt("pes", 0), 4294967295);
    EXPECT_TRUE(parse("--steps=4294967296").has_value());
    for (const char* arg : {"--pes=4294967296", "--pes=0x100000002",
                            "--pes=99999999999999999999", "--pes=-1"})
        EXPECT_FALSE(parse(arg).has_value()) << arg;
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

TEST(PageTable, LookupBeforeAnyWriteIsNullAndAllocatesNothing)
{
    PageTable table(2);
    for (const std::uint64_t index :
         {std::uint64_t{0}, std::uint64_t{1} << 20,
          (std::uint64_t{1} << 40) + 5}) {
        EXPECT_EQ(table.find(index), nullptr) << index;
        EXPECT_EQ(table.absentEnd(index),
                  std::numeric_limits<std::uint64_t>::max());
    }
    EXPECT_EQ(table.pages(), 0u);
    EXPECT_EQ(table.bytes(), 0u);

    // One write holds one page, its directory and a one-slot top level;
    // lookups anywhere else still allocate nothing.
    table.touch(3)[0] = 1;
    const std::uint64_t one_page =
        PageTable::kPageWords * 8 + PageTable::kDirPages * 8 + 8;
    EXPECT_EQ(table.bytes(), one_page);
    EXPECT_EQ(table.find(table.entriesPerPage()), nullptr);
    EXPECT_EQ(table.find(std::uint64_t{1} << 40), nullptr);
    EXPECT_EQ(table.pages(), 1u);
    EXPECT_EQ(table.bytes(), one_page);
}

TEST(PageTable, PagesHoldTwoKiBWhateverTheEntryWidth)
{
    for (const auto& [width, entries] :
         {std::pair{1u, 256u}, std::pair{2u, 128u}, std::pair{3u, 64u},
          std::pair{16u, 16u}, std::pair{64u, 4u}, std::pair{256u, 1u}}) {
        PageTable table(width);
        EXPECT_EQ(table.entryWords(), width);
        EXPECT_EQ(table.entriesPerPage(), entries) << width;
        table.touch(entries - 1);
        table.touch(0);
        EXPECT_EQ(table.pages(), 1u) << width;
        table.touch(entries);
        EXPECT_EQ(table.pages(), 2u) << width;
    }
}

TEST(PageTable, NewEntryReadsZero)
{
    PageTable table(3);
    std::uint64_t* entry = table.touch(77);
    for (std::uint32_t w = 0; w < 3; ++w)
        EXPECT_EQ(entry[w], 0u);
    entry[1] = 9;
    EXPECT_EQ(table.find(77)[1], 9u);
    for (const std::uint64_t neighbour : {76u, 78u}) {
        const std::uint64_t* words = table.find(neighbour);
        ASSERT_NE(words, nullptr);
        for (std::uint32_t w = 0; w < 3; ++w)
            EXPECT_EQ(words[w], 0u);
    }
    EXPECT_EQ(table.touch(77), entry);
    EXPECT_EQ(table.pages(), 1u);
}

TEST(PageTable, IndicesPastTwoToThe33AcrossPageAndDirectoryEdges)
{
    PageTable table(2);
    const std::uint64_t page = table.entriesPerPage();
    const std::uint64_t dir = page * PageTable::kDirPages;
    const std::uint64_t edge = (std::uint64_t{1} << 33) + 5 * dir;
    // Both sides of a directory edge, of the page edge after it, and of
    // the next directory edge.
    const std::uint64_t indices[] = {edge - 1,        edge,
                                     edge + page - 1, edge + page,
                                     edge + dir - 1,  edge + dir};
    for (const std::uint64_t index : indices)
        table.touch(index)[1] = index;
    for (const std::uint64_t index : indices) {
        const std::uint64_t* words = table.find(index);
        ASSERT_NE(words, nullptr) << index;
        EXPECT_EQ(words[0], 0u) << index;
        EXPECT_EQ(words[1], index) << index;
    }
    EXPECT_EQ(table.pages(), 5u);

    // An unwritten page inside a written directory, and an unwritten
    // directory, read null and are each skipped in one step.
    EXPECT_EQ(table.find(edge + 2 * page), nullptr);
    EXPECT_EQ(table.absentEnd(edge + 2 * page), edge + 3 * page);
    EXPECT_EQ(table.find(edge - 2 * dir + 7), nullptr);
    EXPECT_EQ(table.absentEnd(edge - 2 * dir + 7), edge - dir);
    EXPECT_EQ(table.absentEnd(edge + 5 * dir),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(table.pages(), 5u);
}

TEST(PageTable, WideningKeepsEveryBit)
{
    PageTable table(1);
    const std::uint64_t page = table.entriesPerPage();
    const std::pair<std::uint64_t, std::uint64_t> writes[] = {
        {0, 1},
        {page - 1, ~std::uint64_t{0}},
        {page, 0x8000000000000001ull},
        {page * PageTable::kDirPages, 0x1234},
        {(std::uint64_t{1} << 33) + 3, 0xfeedull << 40},
    };
    for (const auto& [index, value] : writes)
        *table.touch(index) = value;

    table.widen(3);
    EXPECT_EQ(table.entryWords(), 3u);
    EXPECT_EQ(table.entriesPerPage(), 64u);
    for (const auto& [index, value] : writes) {
        std::uint64_t* words = table.find(index);
        ASSERT_NE(words, nullptr) << index;
        EXPECT_EQ(words[0], value) << index;
        EXPECT_EQ(words[1], 0u) << index;
        EXPECT_EQ(words[2], 0u) << index;
        words[2] = ~value;
    }

    table.widen(16);
    for (const auto& [index, value] : writes) {
        const std::uint64_t* words = table.find(index);
        ASSERT_NE(words, nullptr) << index;
        EXPECT_EQ(words[0], value) << index;
        EXPECT_EQ(words[2], ~value) << index;
        EXPECT_EQ(words[15], 0u) << index;
    }
    // Only pages holding a set bit were laid out again.
    EXPECT_EQ(table.pages(), std::size(writes));
    EXPECT_EQ(table.find(3 * page), nullptr);
}

TEST(PageTable, ClearEmptiesTheTable)
{
    PageTable table(2);
    const std::uint64_t indices[] = {0, std::uint64_t{1} << 20,
                                     std::uint64_t{1} << 34};
    for (const std::uint64_t index : indices)
        table.touch(index)[0] = 1;
    EXPECT_EQ(table.pages(), 3u);
    table.clear();
    EXPECT_EQ(table.pages(), 0u);
    EXPECT_EQ(table.bytes(), 0u);
    for (const std::uint64_t index : indices)
        EXPECT_EQ(table.find(index), nullptr) << index;
    EXPECT_EQ(table.entryWords(), 2u);

    // A cleared table takes writes again, zeroed.
    std::uint64_t* words = table.touch(std::uint64_t{1} << 34);
    EXPECT_EQ(words[0], 0u);
    EXPECT_EQ(table.pages(), 1u);
}

} // namespace
} // namespace pim
