/**
 * @file
 * Decorator fidelity: the timing probes must not change what the
 * simulator does. At each workload's smallest size, a traced cell's
 * stats dump must be byte-identical to an untraced one, and the
 * workload decorator must keep the two engine contracts it can break
 * silently (hint-arena rotation, the QueryService face).
 */

#include <gtest/gtest.h>

#include "cell.hh"
#include "workloads/factory.hh"

namespace perfbench
{
namespace
{

class Fidelity : public ::testing::TestWithParam<std::string>
{};

TEST_P(Fidelity, TracedDumpMatchesUntraced)
{
    CellParams p;
    p.workload = GetParam();
    p.small = true;
    p.inputSeed = 7;
    p.simSeed = 3;
    const CellResult plain = runCell(p);
    p.traced = true;
    const CellResult traced = runCell(p);

    ASSERT_TRUE(plain.verified);
    ASSERT_TRUE(traced.verified);
    ASSERT_FALSE(plain.dump.empty());
    EXPECT_EQ(plain.dump, traced.dump);
    EXPECT_GT(traced.probe.execCalls, 0u);
    EXPECT_GT(traced.probe.chooseCalls, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Fidelity,
                         ::testing::ValuesIn(workloadNames()));

TEST(Fidelity, EndEpochRotatesWrappedArena)
{
    // The engine rotates only the arena of the workload it is handed;
    // without a forwarded rotation the wrapped workload's hint storage
    // would grow for the whole run.
    abndp::WorkloadSpec spec = abndp::WorkloadSpec::tiny("pr");
    Probe probe;
    TimedWorkload wl(abndp::makeWorkload(spec), probe);
    abndp::TaskArena &arena = wl.inner().taskArena();
    const int *first = arena.alloc<int>(1);
    wl.endEpoch(0);
    wl.endEpoch(1);
    EXPECT_EQ(first, arena.alloc<int>(1));
}

TEST(Fidelity, ForwardsQueryService)
{
    abndp::WorkloadSpec spec = abndp::WorkloadSpec::tiny("kv");
    auto inner = abndp::makeWorkload(spec);
    const auto *innerSvc = dynamic_cast<abndp::QueryService *>(inner.get());
    ASSERT_NE(innerSvc, nullptr);
    Probe probe;
    TimedWorkload wl(std::move(inner), probe);
    abndp::Workload &asWorkload = wl;
    auto *svc = dynamic_cast<abndp::QueryService *>(&asWorkload);
    ASSERT_NE(svc, nullptr);

    abndp::SimAllocator alloc(abndp::SystemConfig{});
    wl.setup(alloc);
    EXPECT_EQ(svc->keySpace(), innerSvc->keySpace());
    svc->beginServing(16);
    EXPECT_TRUE(innerSvc->servingActive());
    EXPECT_GE(innerSvc->servedRecords().capacity(), 16u);
    svc->makeQueryTask(0, 0);
    EXPECT_EQ(innerSvc->servedRecords().size(), 1u);
    EXPECT_GT(probe.execS, 0.0);
}

} // namespace
} // namespace perfbench
