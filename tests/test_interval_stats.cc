/** @file Tests for the --stats-interval dumps of batch and serving runs. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/ndp_system.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/** One interval block: its header line and its stat values. */
struct IntervalBlock
{
    std::string header;
    std::map<std::string, double> values;
};

/** Run @p workload-tiny under @p cfg, dumping into a temp file. */
std::vector<IntervalBlock>
runAndReadIntervals(SystemConfig cfg, const std::string &workload,
                    RunMetrics &m)
{
    char tmpl[] = "/tmp/abndp_interval_XXXXXX";
    int fd = mkstemp(tmpl);
    EXPECT_GE(fd, 0);
    close(fd);
    cfg.statsOut = tmpl;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny(workload));
    m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());

    std::vector<IntervalBlock> blocks;
    std::ifstream in(cfg.statsOut);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("interval ", 0) == 0) {
            blocks.push_back({line, {}});
            continue;
        }
        std::istringstream iss(line);
        std::string name;
        double v = 0.0;
        iss >> name >> v;
        EXPECT_FALSE(blocks.empty()) << "stat before any header: " << line;
        if (!blocks.empty())
            blocks.back().values[name] = v;
    }
    std::remove(cfg.statsOut.c_str());
    return blocks;
}

double
sumOf(const std::vector<IntervalBlock> &blocks, const std::string &name)
{
    double sum = 0.0;
    for (const auto &b : blocks)
        sum += b.values.at(name);
    return sum;
}

} // namespace

TEST(IntervalStats, BatchDumpsOneBlockPerEpoch)
{
    // Under B the initial tasks are placed while they are emitted, so
    // the decision deltas sum to the total only if the interval base
    // is taken before the workload starts.
    for (Design d : {Design::O, Design::B}) {
        SystemConfig cfg = applyDesign(SystemConfig{}, d);
        cfg.statsInterval = 1;
        RunMetrics m;
        auto blocks = runAndReadIntervals(cfg, "pr", m);
        ASSERT_GT(m.epochs, 1u);
        EXPECT_EQ(blocks.size(), m.epochs) << designName(d);
        EXPECT_EQ(blocks.front().header.rfind(
                      "interval epochs [0, 1) tick ", 0),
                  0u);
        EXPECT_EQ(sumOf(blocks, "system.tasks"),
                  static_cast<double>(m.tasks))
            << designName(d);
        EXPECT_EQ(sumOf(blocks, "sched.decisions"),
                  static_cast<double>(m.schedDecisions))
            << designName(d);
    }
}

TEST(IntervalStats, ServingDumpsEveryNWindowsAndTheTail)
{
    SystemConfig cfg = applyDesign(SystemConfig{}, Design::O);
    cfg.serving.requests = 1000;
    cfg.serving.ratePerUs = 4.0;
    cfg.serving.zipfS = 0.99;
    cfg.statsInterval = 2;
    RunMetrics m;
    auto blocks = runAndReadIntervals(cfg, "kv", m);
    ASSERT_GT(m.epochs, 2u);
    // One block per two windows, plus the stretch after the last
    // window boundary up to the final completion.
    EXPECT_EQ(blocks.size(), m.epochs / 2 + 1);
    EXPECT_EQ(blocks.front().header.rfind("interval windows [0, 2) tick ",
                                          0),
              0u);
    EXPECT_EQ(sumOf(blocks, "serving.injected"),
              static_cast<double>(m.servingInjected));
    EXPECT_EQ(sumOf(blocks, "serving.completedDirect"),
              static_cast<double>(m.servingCompletedDirect));
    EXPECT_EQ(sumOf(blocks, "serving.windows"),
              static_cast<double>(m.servingWindows));
}

TEST(IntervalStatsDeath, UnwritablePathIsFatal)
{
    SystemConfig cfg = applyDesign(SystemConfig{}, Design::B);
    cfg.statsInterval = 1;
    cfg.statsOut = "/nonexistent-dir/intervals.stats";
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    EXPECT_DEATH(sys.run(*wl), "cannot open stats output file");
}

} // namespace abndp
