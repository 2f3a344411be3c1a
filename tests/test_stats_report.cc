/**
 * @file Tests for the --stats report (registry dump plus host time)
 * and the JSON report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/ndp_system.hh"
#include "core/stats_report.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

struct ReportFixture
{
    ReportFixture()
        : cfg(applyDesign(SystemConfig{}, Design::HlbM)), sys(cfg)
    {
        auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
        metrics = sys.run(*wl);
    }

    SystemConfig cfg;
    NdpSystem sys;
    RunMetrics metrics;
};

} // namespace

TEST(StatsReport, DumpContainsAllSections)
{
    ReportFixture f;
    std::ostringstream oss;
    printStats(oss, f.sys, f.metrics);
    std::string out = oss.str();
    for (const char *key :
         {"system.finalTick", "system.tasks", "net.interHops",
          "net.packets", "sched.decisions", "unit0.pb.hits",
          "unit0.core0.l1d.hits", "mem.campHitRate",
          "unit0.traveller.occupancyBlocks", "unit0.dram.reads",
          "unit0.dram.refreshes", "mem.readLatencyNs.mean",
          "energy.totalPj", "lb.tasksShedIntra", "lb.blocksMigrated",
          "sim.hostSeconds", "sim.eventsPerSec"})
        EXPECT_NE(out.find(key), std::string::npos) << key;

    // The report is the registry dump followed by exactly the two
    // host-time lines the registry leaves out.
    std::ostringstream reg;
    f.sys.statsRegistry().dump(reg);
    ASSERT_EQ(out.compare(0, reg.str().size(), reg.str()), 0);
    std::string tail = out.substr(reg.str().size());
    EXPECT_EQ(std::count(tail.begin(), tail.end(), '\n'), 2) << tail;
    EXPECT_EQ(tail.rfind("sim.hostSeconds", 0), 0u) << tail;
}

TEST(StatsReport, NoTravellerSectionWithoutCache)
{
    SystemConfig cfg = applyDesign(SystemConfig{}, Design::B);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    RunMetrics m = sys.run(*wl);
    std::ostringstream oss;
    printStats(oss, sys, m);
    EXPECT_EQ(oss.str().find("traveller"), std::string::npos);
}

TEST(StatsReport, JsonIsWellFormedEnough)
{
    ReportFixture f;
    std::ostringstream oss;
    dumpJson(oss, f.cfg, f.metrics);
    std::string out = oss.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '}');
    // Balanced braces and the headline keys.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    for (const char *key : {"\"ticks\":", "\"interHops\":",
                            "\"energyPj\":", "\"total\":"})
        EXPECT_NE(out.find(key), std::string::npos) << key;
}

TEST(StatsReport, DumpIsStableUnderAmbientStreamState)
{
    ReportFixture f;
    std::ostringstream pristine;
    printStats(pristine, f.sys, f.metrics);

    // A caller-perturbed stream (precision, scientific notation, odd
    // fill) must not change a single byte: every float goes through
    // obs::formatStatValue(), which carries its own explicit format.
    std::ostringstream perturbed;
    perturbed << std::scientific << std::setprecision(2)
              << std::setfill('*');
    std::string prefix = perturbed.str();
    printStats(perturbed, f.sys, f.metrics);
    EXPECT_EQ(pristine.str(), perturbed.str().substr(prefix.size()));
}

TEST(StatsReport, DumpFloatsUseFixedNotation)
{
    ReportFixture f;
    std::ostringstream oss;
    printStats(oss, f.sys, f.metrics);
    std::string out = oss.str();
    // Energy values and events/s are large enough that default
    // formatting would print scientific notation; the report must
    // never contain it.
    std::istringstream lines(out);
    std::string l;
    while (std::getline(lines, l))
        EXPECT_EQ(l.find("e+"), std::string::npos) << l;
    // coreUtilization is a fraction formatted with fixed six digits.
    EXPECT_NE(out.find("0."), std::string::npos);
}

TEST(StatsReport, JsonValuesMatchMetrics)
{
    ReportFixture f;
    std::ostringstream oss;
    dumpJson(oss, f.cfg, f.metrics);
    std::string out = oss.str();
    EXPECT_NE(out.find("\"ticks\":" + std::to_string(f.metrics.ticks)),
              std::string::npos);
    EXPECT_NE(out.find("\"tasks\":" + std::to_string(f.metrics.tasks)),
              std::string::npos);
}

} // namespace abndp
