/**
 * @file
 * Tests for the INI parser/writer. The document is text only; typed
 * values are covered by tests/util/test_parse.cpp.
 */

#include <gtest/gtest.h>

#include "util/ini.h"

namespace {

using namespace nps::util;

TEST(Ini, BasicParse)
{
    auto ini = parseIni("[a]\nx = 1\ny = hello world\n[b]\nz=2\n");
    EXPECT_TRUE(ini.has("a", "x"));
    EXPECT_EQ(ini.get("a", "x"), "1");
    EXPECT_EQ(ini.get("a", "y"), "hello world");
    EXPECT_EQ(ini.get("b", "z"), "2");
    EXPECT_FALSE(ini.has("a", "z"));
    EXPECT_EQ(ini.get("a", "missing", "dflt"), "dflt");
}

TEST(Ini, CommentsAndBlanksIgnored)
{
    auto ini = parseIni("# top comment\n\n[s]\n; note\nk = v\n");
    EXPECT_EQ(ini.get("s", "k"), "v");
    EXPECT_EQ(ini.sections().size(), 1u);
}

TEST(Ini, WhitespaceTrimmed)
{
    auto ini = parseIni("[ s ]\n  key\t =  value with spaces  \n");
    EXPECT_EQ(ini.get("s", "key"), "value with spaces");
}

TEST(Ini, DuplicateKeyTakesLast)
{
    auto ini = parseIni("[s]\nk = 1\nk = 2\n");
    EXPECT_EQ(ini.get("s", "k"), "2");
    EXPECT_EQ(ini.keys("s").size(), 1u);
}

TEST(Ini, SectionsMerge)
{
    auto ini = parseIni("[s]\na = 1\n[t]\nb = 2\n[s]\nc = 3\n");
    EXPECT_EQ(ini.get("s", "a"), "1");
    EXPECT_EQ(ini.get("s", "c"), "3");
    EXPECT_EQ(ini.sections().size(), 2u);
}

TEST(Ini, EmptySectionRegistered)
{
    auto ini = parseIni("[empty]\n[full]\nk = v\n");
    ASSERT_EQ(ini.sections().size(), 2u);
    EXPECT_EQ(ini.sections()[0], "empty");
    EXPECT_TRUE(ini.keys("empty").empty());
}

TEST(Ini, MalformedSyntaxDies)
{
    EXPECT_DEATH(parseIni("[unclosed\nk = v\n"), "malformed section");
    EXPECT_DEATH(parseIni("[s]\nno equals sign\n"), "expected");
    EXPECT_DEATH(parseIni("k = v\n"), "outside any section");
    EXPECT_DEATH(parseIni("[]\n"), "section");
    EXPECT_DEATH(parseIni("[s]\n= v\n"), "empty key");
}

TEST(Ini, RoundTrip)
{
    IniDocument doc;
    doc.set("alpha", "x", "1");
    doc.set("alpha", "y", "two words");
    doc.set("beta", "z", "3.5");
    auto back = parseIni(doc.toText());
    EXPECT_EQ(back.get("alpha", "x"), "1");
    EXPECT_EQ(back.get("alpha", "y"), "two words");
    EXPECT_EQ(back.get("beta", "z"), "3.5");
}

TEST(Ini, KeysPreserveInsertionOrder)
{
    auto ini = parseIni("[s]\nb = 1\na = 2\nc = 3\n");
    auto keys = ini.keys("s");
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "b");
    EXPECT_EQ(keys[1], "a");
    EXPECT_EQ(keys[2], "c");
}

TEST(Ini, MissingFileDies)
{
    EXPECT_DEATH(readIniFile("/nonexistent/x.ini"), "cannot open");
}

} // namespace
