/**
 * @file
 * Host-time probes the benchmark places around the simulator's public
 * seams, from outside the library:
 *
 *  - TimedPolicy, a SchedulingPolicy decorator registered with
 *    registerSchedulingPolicy() and selected through
 *    cfg.sched.policyName, wraps the design's own built-in policy and
 *    times every choose();
 *  - TimedWorkload, a forwarding Workload (and QueryService) decorator,
 *    times the workload callbacks the engine makes, minus the engine
 *    work nested inside them (child enqueues).
 *
 * Probes only observe: a traced run must dump stats byte-identical to
 * an untraced one (fidelity_test.cc).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "workloads/query_service.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host time and call counts gathered by one traced cell. */
struct Probe
{
    /** SchedulingPolicy::choose(), wherever the engine calls it. */
    double chooseS = 0.0;
    std::uint64_t chooseCalls = 0;
    /** Workload::setup(): layout in the simulated address space. */
    double setupS = 0.0;
    /**
     * Workload self time creating and executing tasks: executeTask,
     * emitInitialTasks and makeQueryTask, minus the child enqueues
     * they make into the engine.
     */
    double execS = 0.0;
    std::uint64_t execCalls = 0;
    /** Workload::endEpoch(): bulk-synchronous state swaps. */
    double epochS = 0.0;
};

/** Registry name of the timed policy decorator. */
inline constexpr const char *timedPolicyName = "perfbench.timed";

/**
 * Register TimedPolicy under timedPolicyName (idempotent). Its factory
 * builds the built-in policy cfg.sched.policy names and charges every
 * choose() to the probe set by setActiveProbe().
 */
void registerTimedPolicy();

/** Probe that policies built from now on charge (not owned). */
void setActiveProbe(Probe *probe);

/**
 * Forwarding decorator around a workload. It is a QueryService too,
 * because the serving driver finds that interface by dynamic_cast on
 * the workload it is handed.
 */
class TimedWorkload : public abndp::Workload, public abndp::QueryService
{
  public:
    TimedWorkload(std::unique_ptr<abndp::Workload> inner, Probe &probe);

    std::string name() const override { return wrapped->name(); }
    void setup(abndp::SimAllocator &alloc) override;
    void emitInitialTasks(abndp::TaskSink &sink) override;
    void executeTask(const abndp::Task &task,
                     abndp::TaskSink &sink) override;
    /**
     * Also rotates the wrapped workload's hint arena: the engine only
     * rotates the arena of the workload it is handed (this one).
     */
    void endEpoch(std::uint64_t ts) override;
    bool verify() const override { return wrapped->verify(); }

    std::uint64_t keySpace() const override;
    abndp::Task makeQueryTask(std::uint64_t key,
                              std::uint64_t seq) override;
    bool
    verifyServed() const override
    {
        return service().verifyServed();
    }

    abndp::Workload &inner() { return *wrapped; }

  protected:
    void onBeginServing() override;

  private:
    /** The wrapped workload's serving face; fatal() if it has none. */
    abndp::QueryService &service() const;

    std::unique_ptr<abndp::Workload> wrapped;
    Probe &probe;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
