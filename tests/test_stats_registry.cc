/**
 * @file
 * Unit tests for the hierarchical stats registry (src/obs): flattened
 * naming, value formatting, interval-delta semantics, and the stat-type
 * adapters (counter, scalar, distribution, histogram, vector, formula).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/stats_registry.hh"

namespace
{

using namespace abndp;

std::string
dumpToString(const obs::StatsRegistry &reg)
{
    std::ostringstream oss;
    reg.dump(oss);
    return oss.str();
}

TEST(StatsRegistry, FormatIntegerValuesArePlainDecimal)
{
    EXPECT_EQ(obs::formatStatValue(0.0, true), "0");
    EXPECT_EQ(obs::formatStatValue(42.0, true), "42");
    EXPECT_EQ(obs::formatStatValue(1e15, true), "1000000000000000");
}

TEST(StatsRegistry, FormatFloatValuesAreFixedSixDigits)
{
    EXPECT_EQ(obs::formatStatValue(0.0, false), "0.000000");
    EXPECT_EQ(obs::formatStatValue(0.5, false), "0.500000");
    EXPECT_EQ(obs::formatStatValue(1234.5678901, false), "1234.567890");
    // Fixed notation even for values the default format would print in
    // scientific notation.
    EXPECT_EQ(obs::formatStatValue(1e-7, false), "0.000000");
}

TEST(StatsRegistry, FlattenedNamesFollowTheHierarchy)
{
    obs::StatsRegistry reg;
    stats::Counter c;
    reg.root().child("mem").child("dram").addCounter("reads", &c);
    ++c;

    std::string dump = dumpToString(reg);
    EXPECT_NE(dump.find("mem.dram.reads"), std::string::npos);
    EXPECT_NE(dump.find(" 1\n"), std::string::npos);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatsRegistry, ChildReturnsTheSameNodeForTheSameName)
{
    obs::StatsRegistry reg;
    obs::StatNode &a = reg.root().child("grp");
    obs::StatNode &b = reg.root().child("grp");
    EXPECT_EQ(&a, &b);
}

TEST(StatsRegistry, DistributionFlattensIntoFiveStats)
{
    obs::StatsRegistry reg;
    stats::Distribution d;
    d.sample(1.0);
    d.sample(3.0);
    reg.root().addDistribution("lat", &d);

    EXPECT_EQ(reg.size(), 5u);
    std::string dump = dumpToString(reg);
    EXPECT_NE(dump.find("lat.samples"), std::string::npos);
    EXPECT_NE(dump.find("lat.mean"), std::string::npos);
    EXPECT_NE(dump.find("lat.min"), std::string::npos);
    EXPECT_NE(dump.find("lat.max"), std::string::npos);
    EXPECT_NE(dump.find("lat.stddev"), std::string::npos);
    EXPECT_NE(dump.find("2.000000"), std::string::npos); // mean
}

TEST(StatsRegistry, HistogramFlattensIntoBucketsPlusOverflow)
{
    obs::StatsRegistry reg;
    stats::Histogram h(0.0, 10.0, 4);
    h.sample(1.0);  // bucket0
    h.sample(9.0);  // bucket3
    h.sample(-1.0); // underflow
    h.sample(11.0); // overflow
    reg.root().addHistogram("hist", &h);

    EXPECT_EQ(reg.size(), 6u);
    std::string dump = dumpToString(reg);
    EXPECT_NE(dump.find("hist.bucket0"), std::string::npos);
    EXPECT_NE(dump.find("hist.bucket3"), std::string::npos);
    EXPECT_NE(dump.find("hist.underflow"), std::string::npos);
    EXPECT_NE(dump.find("hist.overflow"), std::string::npos);
}

TEST(StatsRegistry, VectorFlattensPerElement)
{
    obs::StatsRegistry reg;
    double vals[3] = {1.0, 2.0, 3.0};
    reg.root().addVector(
        "perUnit", {"0", "1", "2"},
        [&vals](std::size_t i) { return vals[i]; },
        obs::StatKind::Gauge, false);

    EXPECT_EQ(reg.size(), 3u);
    std::string dump = dumpToString(reg);
    EXPECT_NE(dump.find("perUnit.0"), std::string::npos);
    EXPECT_NE(dump.find("perUnit.2"), std::string::npos);
}

TEST(StatsRegistry, FormulaEvaluatesAtDumpTime)
{
    obs::StatsRegistry reg;
    double v = 1.0;
    reg.root().addFormula("ratio", [&v] { return v; });

    EXPECT_NE(dumpToString(reg).find("1.000000"), std::string::npos);
    v = 0.25;
    EXPECT_NE(dumpToString(reg).find("0.250000"), std::string::npos);
}

TEST(StatsRegistry, IntervalCountersPrintDeltas)
{
    obs::StatsRegistry reg;
    stats::Counter c;
    stats::Scalar g;
    reg.root().addCounter("events", &c);
    reg.root().addScalar("level", &g);

    c += 10;
    g.set(5.0);
    reg.beginInterval();

    c += 7;
    g.set(9.0);
    std::ostringstream first;
    reg.dumpInterval(first, "interval 1");
    // Counter prints the delta since beginInterval; gauge the current.
    EXPECT_NE(first.str().find("interval 1"), std::string::npos);
    EXPECT_NE(first.str().find(" 7\n"), std::string::npos);
    EXPECT_NE(first.str().find("9.000000"), std::string::npos);

    // A second interval with no counter activity prints a zero delta.
    std::ostringstream second;
    reg.dumpInterval(second, "interval 2");
    EXPECT_NE(second.str().find(" 0\n"), std::string::npos);
    EXPECT_NE(second.str().find("9.000000"), std::string::npos);
}

TEST(StatsRegistry, ReadMatchesWildcardComponentsInDumpOrder)
{
    obs::StatsRegistry reg;
    int calls = 0;
    auto value = [&calls](double v) {
        return [&calls, v] {
            ++calls;
            return v;
        };
    };
    for (int u : {0, 1, 10}) {
        obs::StatNode &un = reg.root().child("unit" + std::to_string(u));
        for (int c = 0; c < 2; ++c)
            un.child("core" + std::to_string(c))
                .addValue("busy", value(10.0 * u + c),
                          obs::StatKind::Counter, true);
        un.child("pb").addValue("hits", value(u), obs::StatKind::Counter,
                                true);
    }
    stats::Distribution d;
    d.sample(4.0);
    reg.root().child("mem").addDistribution("lat", &d);
    int untouched = 0;
    reg.root().addFormula("expensive", [&untouched] {
        ++untouched;
        return 0.0;
    });

    EXPECT_EQ(reg.read("unit*.pb.hits"), (std::vector<double>{0, 1, 10}));
    EXPECT_EQ(reg.read("unit*.core*.busy"),
              (std::vector<double>{0, 1, 10, 11, 100, 101}));
    EXPECT_EQ(reg.read("unit1*.core1.busy"),
              (std::vector<double>{11, 101}));
    EXPECT_EQ(reg.read("unit10.pb.hits"), (std::vector<double>{10}));
    // Entry names with dots (distribution parts) match component-wise.
    EXPECT_EQ(reg.read("mem.lat.mean"), (std::vector<double>{4.0}));
    EXPECT_EQ(reg.read("mem.*.max"), (std::vector<double>{4.0}));
    // A node is not a stat, and `*` never spans a dot.
    EXPECT_TRUE(reg.read("unit*.pb").empty());
    EXPECT_TRUE(reg.read("unit*.hits").empty());
    EXPECT_TRUE(reg.read("nope").empty());
    EXPECT_EQ(calls, 3 + 6 + 2 + 1);
    EXPECT_EQ(untouched, 0);
}

TEST(StatsRegistry, DumpIsStableAcrossCalls)
{
    obs::StatsRegistry reg;
    stats::Counter c;
    reg.root().child("a").addCounter("x", &c);
    reg.root().child("b").addCounter("y", &c);
    EXPECT_EQ(dumpToString(reg), dumpToString(reg));
}

} // namespace
