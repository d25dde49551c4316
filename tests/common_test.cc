/**
 * @file
 * Unit tests for the common utilities.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/options.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/table.h"
#include "common/xassert.h"

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

TEST(Options, ParseForms)
{
    // Note: "--flag value" is greedy, so positional arguments go before
    // trailing boolean flags (or use --flag=value).
    const char* argv[] = {"prog", "--pes", "8", "--scale=2",
                          "input.fghc", "--verbose"};
    const Options opts = Options::parse(6, argv);
    EXPECT_EQ(opts.getInt("pes", 0), 8);
    EXPECT_EQ(opts.getInt("scale", 0), 2);
    EXPECT_TRUE(opts.getBool("verbose"));
    EXPECT_FALSE(opts.getBool("quiet"));
    ASSERT_EQ(opts.positional().size(), 1u);
    EXPECT_EQ(opts.positional()[0], "input.fghc");
}

TEST(Options, Defaults)
{
    const char* argv[] = {"prog"};
    const Options opts = Options::parse(1, argv);
    EXPECT_EQ(opts.getInt("missing", 42), 42);
    EXPECT_EQ(opts.getString("missing", "x"), "x");
    EXPECT_DOUBLE_EQ(opts.getDouble("missing", 1.5), 1.5);
}

TEST(Options, SetOverrides)
{
    Options opts;
    opts.set("a", "3");
    EXPECT_EQ(opts.getInt("a", 0), 3);
    opts.set("a", "4");
    EXPECT_EQ(opts.getInt("a", 0), 4);
}

TEST(Options, UnknownOptionNamesTheFirstUnlisted)
{
    const char* argv[] = {"prog", "--pes=8", "--par-jobs=2", "--zeta"};
    const Options opts = Options::parse(4, argv);
    EXPECT_EQ(opts.unknownOption({"pes", "zeta"}), "par-jobs");
    EXPECT_EQ(opts.unknownOption({"pes", "par-jobs"}), "zeta");
    EXPECT_EQ(opts.unknownOption({"pes", "par-jobs", "zeta"}), "");
}

TEST(XAssertDeath, PanicFlushesBufferedStdout)
{
    // A panicking bench must keep the tables it already printed: the
    // child sends stdout to a file (fully buffered), prints, panics.
    const std::string path = ::testing::TempDir() + "pim_panic_flush.txt";
    std::remove(path.c_str());
    EXPECT_DEATH(
        {
            if (std::freopen(path.c_str(), "w", stdout) == nullptr)
                std::abort();
            std::printf("partial table\n");
            PIM_PANIC("boom");
        },
        "boom");
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "partial table\n");
    std::remove(path.c_str());
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
