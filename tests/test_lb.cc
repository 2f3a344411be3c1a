/**
 * @file
 * Unit and small-integration tests of the hierarchical load balancer
 * (src/sched/lb): per-tier balancer plans, the hotness tracker and
 * home-indirection contracts the differential suite locks at scale,
 * the two-tier engine's shed/migration planning, and the end-to-end
 * HLB design points — including the gating rule that an unconfigured
 * balancer leaves the stats tree (and therefore every pre-HLB golden)
 * untouched.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cache/camp_mapping.hh"
#include "core/ndp_system.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"
#include "sched/lb/balancers.hh"
#include "sched/lb/data_hotness.hh"
#include "sched/lb/home_indirection.hh"
#include "sched/lb/lb_engine.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

LbConfig
lbKnobs()
{
    LbConfig cfg;
    cfg.enabled = true;
    cfg.idleThreshold = 2;
    cfg.chunkSize = 4;
    cfg.reserveFrac = 0.5;
    return cfg;
}

} // namespace

// ---- Per-tier balancers (src/sched/lb/balancers) ----------------------

TEST(LbBalancers, StealingPullsFromMostLoadedDonor)
{
    // Thief 0 is idle (0 <= idleThreshold); donor 1 has excess 8 above
    // the threshold, so the steal-half rule takes min(chunk, 8/2) = 4.
    auto moves = planTier(LbTierKind::Stealing, lbKnobs(), {0, 10}, {});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, 1u);
    EXPECT_EQ(moves[0].to, 0u);
    EXPECT_EQ(moves[0].count, 4u);
}

TEST(LbBalancers, StealingLeavesIdleDonorsAlone)
{
    // Everyone at or below the idle threshold: nothing worth shedding.
    EXPECT_TRUE(
        planTier(LbTierKind::Stealing, lbKnobs(), {0, 2}, {}).empty());
}

TEST(LbBalancers, AverageLevelsTowardIntegerMean)
{
    // Mean of {8, 0, 4} is 4: member 0 sheds its surplus of 4 into
    // member 1's deficit; member 2 is already on target.
    auto moves = planTier(LbTierKind::Average, lbKnobs(), {8, 0, 4}, {});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, 0u);
    EXPECT_EQ(moves[0].to, 1u);
    EXPECT_EQ(moves[0].count, 4u);
}

TEST(LbBalancers, AverageSkipsDegenerateMeans)
{
    // Integer mean 0: levelling toward it would drain every member.
    EXPECT_TRUE(
        planTier(LbTierKind::Average, lbKnobs(), {1, 0}, {}).empty());
}

TEST(LbBalancers, ReserveShrinksHotOwnersTarget)
{
    // Mean of {6, 2} is 4. Member 0 owns all tracked hotness, so its
    // target shrinks to floor(4 * (1 - 0.5)) = 2 and it sheds down to
    // it — but only into member 1's deficit of 2 (targets cap intake).
    auto moves =
        planTier(LbTierKind::Reserve, lbKnobs(), {6, 2}, {1.0, 0.0});
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].from, 0u);
    EXPECT_EQ(moves[0].to, 1u);
    EXPECT_EQ(moves[0].count, 2u);
}

TEST(LbBalancers, ReserveWithoutHotnessDegeneratesToAverage)
{
    auto reserve =
        planTier(LbTierKind::Reserve, lbKnobs(), {8, 0, 4}, {});
    auto average =
        planTier(LbTierKind::Average, lbKnobs(), {8, 0, 4}, {});
    ASSERT_EQ(reserve.size(), average.size());
    for (std::size_t i = 0; i < reserve.size(); ++i) {
        EXPECT_EQ(reserve[i].from, average[i].from);
        EXPECT_EQ(reserve[i].to, average[i].to);
        EXPECT_EQ(reserve[i].count, average[i].count);
    }
}

TEST(LbBalancers, DegenerateMembershipsPlanNothing)
{
    EXPECT_TRUE(planTier(LbTierKind::Stealing, lbKnobs(), {5}, {}).empty());
    EXPECT_TRUE(planTier(LbTierKind::None, lbKnobs(), {9, 0}, {}).empty());
}

// ---- DataHotness (differential suite covers the full op mix) ----------

TEST(DataHotness, TopKOrdersByCountThenBlock)
{
    DataHotness hot(1, 4, 1);
    for (int i = 0; i < 3; ++i)
        hot.record(0, 0x1000, 1);
    hot.record(0, 0x2000, 2);
    hot.record(0, 0x0800, 3);
    auto top = hot.topK(0);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].block, 0x1000u);
    EXPECT_EQ(top[0].cnt, 3u);
    // Equal counts break ties toward the lower block address.
    EXPECT_EQ(top[1].block, 0x0800u);
    EXPECT_EQ(top[2].block, 0x2000u);
}

TEST(DataHotness, MajorityVoteTracksDominantRequester)
{
    DataHotness hot(1, 2, 1);
    hot.record(0, 0x40, 5);
    hot.record(0, 0x40, 7);
    hot.record(0, 0x40, 7);
    hot.record(0, 0x40, 7);
    auto top = hot.topK(0);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].reqId, 7u);
}

TEST(DataHotness, DecayHalvesAndFreesSlots)
{
    DataHotness hot(1, 2, 1);
    for (int i = 0; i < 4; ++i)
        hot.record(0, 0x40, 1);
    hot.record(0, 0x80, 2);
    hot.decayAll();     // 4 -> 2, 1 -> 0 (slot freed)
    auto top = hot.topK(0);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].block, 0x40u);
    EXPECT_EQ(top[0].cnt, 2u);
    EXPECT_EQ(hot.totalCount(0), 2u);
}

// ---- HomeIndirection --------------------------------------------------

TEST(HomeIndirection, ResolvesOverlayAndErasesOnBaseRestore)
{
    HomeIndirection indir;
    EXPECT_FALSE(indir.active());
    EXPECT_EQ(indir.resolve(0x1000, 3), 3u);

    indir.set(0x1000, 7, 3);
    EXPECT_TRUE(indir.active());
    EXPECT_EQ(indir.resolve(0x1000, 3), 7u);
    EXPECT_EQ(indir.resolve(0x2000, 3), 3u);

    // Re-homing back to the base erases the entry outright.
    indir.set(0x1000, 3, 3);
    EXPECT_FALSE(indir.active());
    EXPECT_EQ(indir.entries(), 0u);
}

// ---- LbEngine: two-tier planning and migration ------------------------

namespace
{

/** 2x1 mesh, 2 units/stack: stacks {0,1} and {2,3}. */
SystemConfig
engineConfig()
{
    SystemConfig cfg;
    cfg.meshX = 2;
    cfg.meshY = 1;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 1;
    cfg.traveller.campCount = 1;
    cfg.lb = lbKnobs();
    return cfg;
}

} // namespace

TEST(LbEngine, PlansIntraThenInterOverSnapshots)
{
    auto cfg = engineConfig();
    Topology topo(cfg);
    LbEngine engine(cfg.lb, topo);

    // Stack 0 holds {10, 0}: the intra stealing tier moves 4 to the
    // idle unit. Stack totals are {10, 6}; the inter average tier
    // levels stack 1 up to the mean of 8 with 2 tasks, pinned to the
    // pre-shed most loaded donor (unit 0) and least loaded receiver
    // (unit 2, lowest id among the tied pair).
    auto cmds = engine.planSheds({10, 0, 3, 3});
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_FALSE(cmds[0].inter);
    EXPECT_EQ(cmds[0].victim, 0u);
    EXPECT_EQ(cmds[0].thief, 1u);
    EXPECT_EQ(cmds[0].count, 4u);
    EXPECT_TRUE(cmds[1].inter);
    EXPECT_EQ(cmds[1].victim, 0u);
    EXPECT_EQ(cmds[1].thief, 2u);
    EXPECT_EQ(cmds[1].count, 2u);
}

TEST(LbEngine, MigrationHonorsThresholdCooldownAndCap)
{
    auto cfg = engineConfig();
    cfg.lb.decayShift = 0;      // isolate the cooldown from decay
    cfg.lb.migration.enabled = true;
    cfg.lb.migration.threshold = 3;
    cfg.lb.migration.cooldownWindows = 2;
    cfg.lb.migration.maxPerExchange = 8;
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    LbEngine engine(cfg.lb, topo);

    // Find a block the static map homes at unit 0 and heat it from a
    // remote requester until it crosses the migration threshold.
    Addr hotBlock = 0;
    bool found = false;
    for (Addr a = 0; a < (1ull << 22) && !found; a += cachelineBytes) {
        if (camps.homeOf(a) == 0) {
            hotBlock = a;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    engine.hotness().record(0, hotBlock, 2);
    engine.hotness().record(0, hotBlock, 2);
    EXPECT_TRUE(engine.planMigrations(camps).empty()) << "below threshold";

    engine.hotness().record(0, hotBlock, 2);
    auto cmds = engine.planMigrations(camps);
    ASSERT_EQ(cmds.size(), 1u);
    EXPECT_EQ(cmds[0].block, hotBlock);
    EXPECT_EQ(cmds[0].from, 0u);
    EXPECT_EQ(cmds[0].to, 2u);

    // Planning dropped the hotness entry and armed the cooldown: even
    // re-heated past the threshold, the block must rest two windows.
    for (int i = 0; i < 5; ++i)
        engine.hotness().record(0, hotBlock, 2);
    EXPECT_TRUE(engine.planMigrations(camps).empty()) << "cooldown";
    engine.onWindow();
    engine.onWindow();
    EXPECT_EQ(engine.planMigrations(camps).size(), 1u);
}

TEST(LbEngine, MigrationSkipsSelfAndUnknownRequesters)
{
    auto cfg = engineConfig();
    cfg.lb.migration.enabled = true;
    cfg.lb.migration.threshold = 1;
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    LbEngine engine(cfg.lb, topo);

    // The address space is range-partitioned: stride by unit-region
    // fractions to land in unit 1's range.
    Addr block = 0;
    bool found = false;
    const Addr total =
        static_cast<Addr>(cfg.memBytesPerUnit) * cfg.numUnits();
    for (Addr a = 0; a < total && !found; a += cfg.memBytesPerUnit / 4) {
        if (camps.homeOf(a) == 1) {
            block = a;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    // Majority requester == home: moving it nowhere is not a plan.
    engine.hotness().record(1, block, 1);
    engine.hotness().record(1, block, 1);
    EXPECT_TRUE(engine.planMigrations(camps).empty());
}

// ---- End-to-end: the HLB design points --------------------------------

namespace
{

SystemConfig
smallConfig(Design d)
{
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 2;
    return applyDesign(cfg, d);
}

/** Run pr-tiny under @p d and return (metrics, full stats dump). */
std::pair<RunMetrics, std::string>
runSmall(Design d)
{
    auto cfg = smallConfig(d);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify()) << designName(d);
    std::ostringstream oss;
    sys.statsRegistry().dump(oss);
    return {m, oss.str()};
}

} // namespace

TEST(HlbEndToEnd, HlbRunsShedsAndVerifies)
{
    auto [m, dump] = runSmall(Design::Hlb);
    EXPECT_GT(m.tasks, 0u);
    // The balancer's stats node exists and the migration counters stay
    // zero without the migration engine.
    EXPECT_NE(dump.find("tasksShedIntra"), std::string::npos);
    EXPECT_EQ(m.blocksMigrated, 0u);
    EXPECT_EQ(m.migrationInvalidations, 0u);
    EXPECT_EQ(m.migrationTrafficBytes, 0u);
}

TEST(HlbEndToEnd, HlbMigMaintainsMigrationConservation)
{
    auto [m, dump] = runSmall(Design::HlbM);
    EXPECT_GT(m.tasks, 0u);
    EXPECT_NE(dump.find("blocksMigrated"), std::string::npos);
    // HLB-mig caches camps (Traveller on), so the conservation law the
    // machine checker enforces per run holds in the reported metrics:
    // one stale-camp invalidation per re-homed block.
    EXPECT_EQ(m.migrationInvalidations, m.blocksMigrated);
}

TEST(HlbEndToEnd, UnconfiguredBalancerLeavesStatsTreeUntouched)
{
    // The gating rule behind the feature-off golden guarantee: no lb
    // node, no shed counters, no migration counters anywhere in a
    // classic design's dump.
    auto [m, dump] = runSmall(Design::O);
    EXPECT_EQ(dump.find("tasksShedIntra"), std::string::npos);
    EXPECT_EQ(dump.find("blocksMigrated"), std::string::npos);
    EXPECT_EQ(m.tasksShedIntra, 0u);
    EXPECT_EQ(m.tasksShedInter, 0u);
    EXPECT_EQ(m.blocksMigrated, 0u);
}

} // namespace abndp
