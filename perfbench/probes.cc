#include "probes.hh"

#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sched/policy_registry.hh"

namespace perfbench
{

using namespace abndp;

namespace
{

Probe *activeProbe = nullptr;

/** Times choose() of the policy it wraps; forwards everything else. */
class TimedPolicy : public SchedulingPolicy
{
  public:
    TimedPolicy(std::unique_ptr<SchedulingPolicy> inner, Probe &probe)
        : wrapped(std::move(inner)), probe(probe)
    {}

    const char *name() const override { return wrapped->name(); }

    UnitId
    choose(Scheduler &sched, const Task &task, UnitId creator) override
    {
        const auto t0 = Clock::now();
        const UnitId u = wrapped->choose(sched, task, creator);
        probe.chooseS += secondsSince(t0);
        ++probe.chooseCalls;
        return u;
    }

    bool
    usesSchedulingWindow() const override
    {
        return wrapped->usesSchedulingWindow();
    }

    bool stealing() const override { return wrapped->stealing(); }

    const SchedulingPolicy *inner() const override { return wrapped.get(); }

  private:
    std::unique_ptr<SchedulingPolicy> wrapped;
    Probe &probe;
};

/**
 * Forwards child enqueues to the engine and accumulates the host time
 * they take, so workload callbacks can report self time.
 */
class TimedSink : public TaskSink
{
  public:
    explicit TimedSink(TaskSink &engine) : engine(engine) {}

    void
    enqueueTask(Task &&task) override
    {
        const auto t0 = Clock::now();
        engine.enqueueTask(std::move(task));
        nestedS += secondsSince(t0);
    }

    double nestedS = 0.0;

  private:
    TaskSink &engine;
};

} // namespace

void
registerTimedPolicy()
{
    registerSchedulingPolicy(timedPolicyName, [](const SystemConfig &cfg) {
        if (activeProbe == nullptr)
            fatal("perfbench: timed policy built without an active probe");
        return std::make_unique<TimedPolicy>(
            makeSchedulingPolicy(builtinPolicyName(cfg.sched.policy), cfg),
            *activeProbe);
    });
}

void
setActiveProbe(Probe *probe)
{
    activeProbe = probe;
}

TimedWorkload::TimedWorkload(std::unique_ptr<Workload> inner, Probe &probe)
    : wrapped(std::move(inner)), probe(probe)
{}

void
TimedWorkload::setup(SimAllocator &alloc)
{
    const auto t0 = Clock::now();
    wrapped->setup(alloc);
    probe.setupS += secondsSince(t0);
}

void
TimedWorkload::emitInitialTasks(TaskSink &sink)
{
    TimedSink timed(sink);
    const auto t0 = Clock::now();
    wrapped->emitInitialTasks(timed);
    probe.execS += secondsSince(t0) - timed.nestedS;
}

void
TimedWorkload::executeTask(const Task &task, TaskSink &sink)
{
    TimedSink timed(sink);
    const auto t0 = Clock::now();
    wrapped->executeTask(task, timed);
    probe.execS += secondsSince(t0) - timed.nestedS;
    ++probe.execCalls;
}

void
TimedWorkload::endEpoch(std::uint64_t ts)
{
    const auto t0 = Clock::now();
    wrapped->taskArena().rotate();
    wrapped->endEpoch(ts);
    probe.epochS += secondsSince(t0);
}

QueryService &
TimedWorkload::service() const
{
    auto *svc = dynamic_cast<QueryService *>(wrapped.get());
    if (svc == nullptr)
        fatal("perfbench: workload ", wrapped->name(),
              " is not a QueryService");
    return *svc;
}

std::uint64_t
TimedWorkload::keySpace() const
{
    return service().keySpace();
}

Task
TimedWorkload::makeQueryTask(std::uint64_t key, std::uint64_t seq)
{
    const auto t0 = Clock::now();
    Task task = service().makeQueryTask(key, seq);
    probe.execS += secondsSince(t0);
    return task;
}

void
TimedWorkload::onBeginServing()
{
    // beginServing() is not virtual: the engine calls it on this
    // decorator, which reserved its own (unused) log for the expected
    // request count. Hand that count on and give the memory back.
    const std::uint64_t expected = servedLog.capacity();
    std::vector<ServedRecord>().swap(servedLog);
    service().beginServing(expected);
}

} // namespace perfbench
