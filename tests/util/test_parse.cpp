/**
 * @file
 * Tests for the strict input layer: the number parser every config,
 * plan, script, trace and flag value goes through, the boolean
 * spellings, the list splitter and the shared event-script lexer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/parse.h"

namespace {

using namespace nps::util;

TEST(Parse, WholeTokensParse)
{
    EXPECT_EQ(parseNumber<int>("-7", "x"), -7);
    EXPECT_EQ(parseNumber<unsigned>("42", "x"), 42u);
    EXPECT_EQ(parseNumber<uint64_t>("18446744073709551615", "x"),
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(parseNumber<uint64_t>("9223372036854775808", "x"),
              uint64_t{1} << 63);
    EXPECT_DOUBLE_EQ(parseNumber<double>("2.5", "x"), 2.5);
    EXPECT_DOUBLE_EQ(parseNumber<double>("-1e-3", "x"), -1e-3);
    EXPECT_EQ(parseNumber<double>("0.30000000000000004", "x"), 0.1 + 0.2);
    EXPECT_EQ(parseNumber<unsigned>("5", "x", 5, 5), 5u);
}

TEST(Parse, BoolSpellings)
{
    for (const char *t : {"true", "YES", "On", "1"})
        EXPECT_TRUE(parseBool(t, "x")) << t;
    for (const char *t : {"false", "No", "off", "0"})
        EXPECT_FALSE(parseBool(t, "x")) << t;
}

TEST(Parse, MalformedValuesDie)
{
    // Every message names the input and quotes the raw token.
    EXPECT_DEATH(parseNumber<double>("abc", "[s] d"),
                 "\\[s\\] d: 'abc' is not a finite number");
    EXPECT_DEATH(parseBool("maybe", "[s] b"),
                 "\\[s\\] b: 'maybe' is not a boolean");
    EXPECT_DEATH(parseNumber<long>("1.5", "[s] i"),
                 "\\[s\\] i: '1.5' is not an integer");
    EXPECT_DEATH(parseNumber<long>("", "[s] i"), "'' is not an integer");
}

TEST(Parse, PartialTokensDie)
{
    EXPECT_DEATH(parseNumber<size_t>("10junk", "t"), "'10junk'");
    EXPECT_DEATH(parseNumber<size_t>(" 10", "t"), "' 10'");
    EXPECT_DEATH(parseNumber<size_t>("+10", "t"), "'\\+10'");
    EXPECT_DEATH(parseNumber<size_t>("0x10", "t"), "'0x10'");
    EXPECT_DEATH(parseNumber<double>("1.5x", "t"), "'1.5x'");
}

TEST(Parse, SignsOnUnsignedTypesDie)
{
    EXPECT_DEATH(parseNumber<unsigned>("-1", "[ec] period"),
                 "\\[ec\\] period: '-1' is not an integer in "
                 "\\[0, 4294967295\\]");
    EXPECT_DEATH(parseNumber<uint64_t>("-5", "t"), "'-5'");
}

TEST(Parse, OverflowDies)
{
    EXPECT_DEATH(parseNumber<unsigned>("4294967296", "u"), "'4294967296'");
    EXPECT_DEATH(parseNumber<uint64_t>("18446744073709551616", "u"),
                 "'18446744073709551616'");
    EXPECT_DEATH(parseNumber<int>("2147483648", "i"), "'2147483648'");
    EXPECT_DEATH(parseNumber<double>("1e999", "d"), "'1e999'");
}

TEST(Parse, NonFiniteDoublesDie)
{
    for (const char *t : {"nan", "NaN", "-nan", "inf", "-inf", "infinity"})
        EXPECT_DEATH(parseNumber<double>(t, "d"), "is not a finite number")
            << t;
}

TEST(Parse, RangeIsEnforced)
{
    EXPECT_DEATH(parseNumber<unsigned>("0", "[obs] publish_every", 1),
                 "'0' is not an integer in \\[1, 4294967295\\]");
    EXPECT_DEATH(parseNumber<double>("1.5", "p", 0.0, 1.0),
                 "'1.5' is not a finite number in \\[0, 1\\]");
    EXPECT_DEATH(parseNumber<double>("-0.1", "p", 0.0, 1.0), "'-0.1'");
}

TEST(Parse, TrimAndSplitList)
{
    EXPECT_EQ(trim(" \ta b \r"), "a b");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(splitList(" gm:0 ,, em:* ,", ','),
              (std::vector<std::string>{"gm:0", "em:*"}));
    EXPECT_TRUE(splitList("", ',').empty());
}

TEST(Parse, LexClausesStripsCommentsAndSplits)
{
    auto clauses = lexClauses("outage em 1 10 20 ; stuck 3 4 5 # note\n"
                              "# whole-line comment\n"
                              " ;; \n"
                              "noise  7\t8 9 0.1");
    ASSERT_EQ(clauses.size(), 3u);
    EXPECT_EQ(clauses[0].text, "outage em 1 10 20");
    EXPECT_EQ(clauses[0].tokens,
              (std::vector<std::string>{"outage", "em", "1", "10", "20"}));
    EXPECT_EQ(clauses[1].text, "stuck 3 4 5");
    EXPECT_EQ(clauses[2].tokens.size(), 5u);
    EXPECT_TRUE(lexClauses("# only a comment\n\n").empty());
}

} // namespace
