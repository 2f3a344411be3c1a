/** @file Tests for the CLI flag parser and the text table printer. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hh"
#include "common/table.hh"

namespace abndp
{

namespace
{

CliFlags
parse(std::initializer_list<const char *> args)
{
    std::vector<char *> argv;
    static char prog[] = "prog";
    argv.push_back(prog);
    std::vector<std::string> storage(args.begin(), args.end());
    for (auto &s : storage)
        argv.push_back(s.data());
    return CliFlags(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Cli, ParsesEqualsForm)
{
    auto f = parse({"--scale=14", "--alpha=2.5", "--name=pr"});
    EXPECT_EQ(f.getUint("scale", 0), 14u);
    EXPECT_DOUBLE_EQ(f.getDouble("alpha", 0.0), 2.5);
    EXPECT_EQ(f.getString("name", ""), "pr");
}

TEST(Cli, ParsesSpaceForm)
{
    auto f = parse({"--scale", "15", "--flag"});
    EXPECT_EQ(f.getUint("scale", 0), 15u);
    EXPECT_TRUE(f.getBool("flag", false));
}

TEST(Cli, DefaultsWhenMissing)
{
    auto f = parse({});
    EXPECT_EQ(f.getInt("x", -7), -7);
    EXPECT_EQ(f.getString("y", "dflt"), "dflt");
    EXPECT_FALSE(f.has("x"));
}

TEST(Cli, BooleanSpellings)
{
    auto f = parse({"--a=true", "--b=0", "--c=yes", "--d=off"});
    EXPECT_TRUE(f.getBool("a", false));
    EXPECT_FALSE(f.getBool("b", true));
    EXPECT_TRUE(f.getBool("c", false));
    EXPECT_FALSE(f.getBool("d", true));
}

TEST(Cli, CollectsPositionals)
{
    auto f = parse({"file1", "--x=1", "file2"});
    ASSERT_EQ(f.positional().size(), 2u);
    EXPECT_EQ(f.positional()[0], "file1");
    EXPECT_EQ(f.positional()[1], "file2");
}

TEST(Cli, RejectUnreadPassesOnceEveryFlagIsRead)
{
    auto f = parse({"--a=1", "--b", "2", "--c"});
    f.getInt("a", 0);
    EXPECT_TRUE(f.has("b"));
    f.getBool("c", false);
    f.getString("never-given", ""); // looking up an absent flag is fine
    f.rejectUnread();
}

TEST(CliDeath, RejectUnreadNamesEveryUnreadFlag)
{
    auto f = parse({"--workload=pr", "--trace=t.csv", "--scael=9"});
    f.getString("workload", "");
    EXPECT_DEATH(f.rejectUnread(), "unknown flag\\(s\\) --scael, --trace");
}

TEST(Table, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2.50"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2.50  |"), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(std::uint64_t{42}), "42");
}

TEST(TableDeath, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width mismatch");
}

} // namespace abndp
