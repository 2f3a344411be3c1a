/**
 * @file
 * Tests for the scheduling-policy / design-point registries: builtin
 * seeding, name-based construction, and — the point of the exercise —
 * that a brand-new policy registered from this translation unit
 * composes into a runnable design without touching any core file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "sched/policy_registry.hh"
#include "sched/scheduler.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/**
 * Toy window policy that never keeps a task: every scheduling-window
 * decision sends it to the next unit. The per-task forward-hop budget
 * bounds the resulting descriptor ping-pong, so runs still terminate.
 */
class AlwaysForwardPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "always-forward"; }

    UnitId
    choose(Scheduler &sched, const Task &task, UnitId creator) override
    {
        (void)task;
        return static_cast<UnitId>((creator + 1) % sched.unitCount());
    }

    bool usesSchedulingWindow() const override { return true; }
};

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

TEST(PolicyRegistry, BuiltinsAreSeeded)
{
    auto policies = registeredPolicyNames();
    EXPECT_TRUE(contains(policies, "local"));
    EXPECT_TRUE(contains(policies, "memmatch"));
    EXPECT_TRUE(contains(policies, "hybrid"));

    auto designs = registeredDesignPoints();
    for (const char *d : {"H", "B", "Sm", "Sl", "Sh", "C", "O"})
        EXPECT_TRUE(contains(designs, d)) << d;
}

TEST(PolicyRegistry, MakeByNameAndBuiltinMapping)
{
    SystemConfig cfg;
    auto p = makeSchedulingPolicy("memmatch", cfg);
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name(), "memmatch");

    EXPECT_STREQ(builtinPolicyName(SchedPolicy::Colocate), "local");
    EXPECT_STREQ(builtinPolicyName(SchedPolicy::LowestDistance),
                 "memmatch");
    EXPECT_STREQ(builtinPolicyName(SchedPolicy::Hybrid), "hybrid");
}

TEST(PolicyRegistryDeathTest, UnknownNamesAreFatal)
{
    SystemConfig cfg;
    EXPECT_DEATH((void)makeSchedulingPolicy("no-such-policy", cfg),
                 "unknown scheduling policy");
    EXPECT_DEATH((void)composeDesign(cfg, "no-such-design"),
                 "unknown design point");
}

TEST(PolicyRegistry, ComposeDesignMatchesApplyDesign)
{
    SystemConfig base;
    const auto registered = registeredDesignPoints();
    for (Design d : allDesigns()) {
        const std::string name = designName(d);
        EXPECT_EQ(designFromName(name), d) << name;
        EXPECT_TRUE(contains(registered, name)) << name;

        SystemConfig byName = composeDesign(base, name);
        SystemConfig byEnum = applyDesign(base, d);
        EXPECT_EQ(byName.sched.workStealing, byEnum.sched.workStealing)
            << name;
        EXPECT_EQ(byName.traveller.style, byEnum.traveller.style) << name;
        EXPECT_EQ(byName.lb.enabled, byEnum.lb.enabled) << name;
        EXPECT_EQ(byName.lb.migration.enabled,
                  byEnum.lb.migration.enabled) << name;
        EXPECT_DOUBLE_EQ(byName.sched.hybridAlpha,
                         byEnum.sched.hybridAlpha) << name;
        // The name route sets policyName; both must build the same
        // policy object.
        EXPECT_STREQ(makeConfiguredPolicy(byName)->name(),
                     makeConfiguredPolicy(byEnum)->name()) << name;
    }

    // The NDP list is every design but the host-only H, in order.
    std::vector<Design> ndp;
    for (Design d : allDesigns())
        if (d != Design::H)
            ndp.push_back(d);
    EXPECT_EQ(ndpDesigns(), ndp);
}

TEST(PolicyRegistry, NewPolicyComposesIntoRunnableDesign)
{
    // Register a policy and a design point from this file only — no
    // edits to the scheduler, config, or epoch engine — and run a
    // workload under it.
    registerSchedulingPolicy("always-forward", [](const SystemConfig &) {
        return std::make_unique<AlwaysForwardPolicy>();
    });
    registerDesignPoint("AF",
                        {"always-forward", false, CacheStyle::None});
    EXPECT_TRUE(contains(registeredPolicyNames(), "always-forward"));
    EXPECT_TRUE(contains(registeredDesignPoints(), "AF"));

    SystemConfig cfg = composeDesign(SystemConfig{}, "AF");
    NdpSystem sys(cfg);
    EXPECT_STREQ(sys.scheduler().policy().name(), "always-forward");
    EXPECT_TRUE(sys.scheduler().usesSchedulingWindow());

    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.tasks, 0u);
    // Every scheduling-window decision forwarded its task.
    EXPECT_GT(m.forwardedTasks, 0u);
}

} // namespace abndp
