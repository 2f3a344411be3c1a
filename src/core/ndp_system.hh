/**
 * @file
 * The epoch engine of the ABNDP machine: it owns the array of NdpUnit
 * components, the global services (memory system, scheduler, unified
 * access path, fault/energy models), and the discrete-event loop
 * executing bulk-synchronous epochs.
 *
 * Per-unit structure — cores, task queues with scheduling and prefetch
 * windows (Figure 4), the prefetch buffer — lives in NdpUnit; the
 * core-to-DRAM timing walk lives in AccessPath; placement decisions
 * are delegated to the Scheduler's SchedulingPolicy object. What
 * remains here is the epoch barrier, the dispatch/steal/forward event
 * choreography, and run-wide bookkeeping.
 *
 * Queue organization per unit (Figure 4): newly created tasks enter the
 * creating unit's *pending* queue; the unit's task scheduler — operating
 * in parallel with the cores — examines the scheduling window at the
 * pending queue's head and either keeps each task locally or forwards it
 * to the chosen unit's *ready* queue. The prefetch window covers the head
 * of the ready queue; cores dispatch from it. Policies without a
 * scheduling window place tasks directly into the target ready queue at
 * creation.
 */

#ifndef ABNDP_CORE_NDP_SYSTEM_HH
#define ABNDP_CORE_NDP_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/access_path.hh"
#include "core/mem_system.hh"
#include "core/metrics.hh"
#include "core/ndp_unit.hh"
#include "energy/energy.hh"
#include "fault/fault_model.hh"
#include "mem/allocator.hh"
#include "net/topology.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sched/scheduler.hh"
#include "serve/latency_recorder.hh"
#include "sim/event_queue.hh"
#include "tasking/task.hh"
#include "workloads/workload.hh"

namespace abndp
{

namespace check
{
class MachineChecker;
} // namespace check

class LbEngine;
struct ShedCmd;

/** A complete simulated ABNDP machine. */
class NdpSystem : public TaskSink
{
  public:
    explicit NdpSystem(const SystemConfig &cfg);

    /** Out of line: unique_ptr member of a forward-declared type. */
    ~NdpSystem();

    /** Simulated allocator for workload setup. */
    SimAllocator &allocator() { return alloc; }

    /**
     * Run a workload to completion (or cfg.maxEpochs) and return the
     * collected metrics. A system instance runs one workload once.
     * With cfg.serving enabled this dispatches to the open-loop
     * serving driver instead of the epoch engine; the workload must
     * then implement QueryService.
     */
    RunMetrics run(Workload &wl);

    // ---- TaskSink ----
    void enqueueTask(Task &&task) override;

    // ---- Introspection for tests ----
    const SystemConfig &config() const { return cfg; }
    const Topology &topology() const { return topo; }
    MemSystem &memSystem() { return mem; }
    Scheduler &scheduler() { return sched; }
    EventQueue &eventQueue() { return eq; }
    const FaultModel &faultModel() const { return faults; }
    const EnergyAccount &energyAccount() const { return energy; }

    /**
     * The machine invariant checker, non-null iff
     * cfg.checkInvariants is set (tests flip its collect mode).
     */
    check::MachineChecker *invariantChecker() { return checker.get(); }

    /** The per-unit components (tests may inspect queue state). */
    NdpUnit &unit(UnitId u) { return units[u]; }
    std::size_t numUnits() const { return units.size(); }

    /** The unified core-to-DRAM access chain. */
    AccessPath &accessPath() { return path; }

    /** The hierarchical stats registry (populated at construction). */
    obs::StatsRegistry &statsRegistry() { return statsReg; }
    const obs::StatsRegistry &statsRegistry() const { return statsReg; }

    /** The event tracer (enabled iff cfg.traceOut is nonempty). */
    obs::Tracer &eventTracer() { return tracer; }
    const obs::Tracer &eventTracer() const { return tracer; }

  private:
    /**
     * The batch epoch engine (run() body when serving is off). Fills
     * only the batch-only per-epoch vectors of @p m; run() harvests
     * every other field.
     */
    void batchRun(Workload &wl, RunMetrics &m);

    /**
     * The end-of-run harvest shared by both drivers: copies every
     * counter into @p m (the serving fields only when servingMode).
     */
    void harvestMetrics(RunMetrics &m);

    // ---- Online serving driver (docs/ARCHITECTURE.md) ----

    /**
     * The open-loop serving driver: injects cfg.serving.requests
     * independent query tasks at seeded stochastic arrival times and
     * drives the event loop without epoch drain barriers. Exchange
     * snapshots, watchdog re-arms, and meter reclamation ride on a
     * periodic *window* chain instead of the epoch barrier.
     */
    void serveRun(Workload &wl);

    /**
     * One arrival: draw tenant and key, apply admission control, and
     * inject the query task; then self-schedule the next arrival.
     */
    void serveArrival();

    /** Place one admitted query task into the live queues. */
    void injectServingTask(Task &&task);

    /** Self-rescheduling serving window (exchange/watchdog/reclaim). */
    void armServingWindow(Tick interval);

    /** Completion-side latency/conservation accounting (serving). */
    void recordServedCompletion(UnitId u, std::uint32_t c);

    /** Move staged tasks into the live queues and start everything. */
    void startEpoch(std::uint64_t ts);

    /** Give idle cores work (and trigger stealing when empty). */
    void tryDispatch(UnitId u);

    /** Scheduling-window pump for unit @p u (one decision). */
    void pumpScheduler(UnitId u);

    /** Issue hint prefetches for tasks entering the prefetch window. */
    void issuePrefetches(UnitId u);

    /** Attempt to steal work for idle unit @p u. */
    void attemptSteal(UnitId u);

    /** Periodic workload information exchange chain. */
    void scheduleExchange();

    // ---- Hierarchical load balancing (src/sched/lb) ----

    /**
     * One lb exchange window: snapshot ready-queue depths, execute
     * the tier balancers' shed commands, run the migration planner
     * (batch of MemSystem::migrateBlock calls), and close the
     * engine's window (hotness decay). Rides every exchange-snapshot
     * site — epoch start, the in-epoch exchange chain, and the
     * serving window.
     */
    void runLbExchange();

    /** Execute one shed command through the steal transfer path. */
    void executeShed(const ShedCmd &cmd);

    /**
     * Abort with a diagnostic dump — simulated tick, epoch, and
     * per-unit pending/ready queue depths — instead of hanging or
     * dying bare. @p simulatorBug picks panic() (deadlock = internal
     * invariant broken) vs fatal() (watchdog = user-set budget hit).
     */
    [[noreturn]] void dumpStallDiagnostics(const std::string &reason,
                                           bool simulatorBug);

    // ---- Unit-failure tolerance (docs/ARCHITECTURE.md) ----

    /** A tracked task delivery awaiting its ack. */
    struct TaskTransit
    {
        Task task;
        UnitId from = invalidUnit;
        UnitId dst = invalidUnit;
        /** Receiver may re-forward (scheduling-window path). */
        bool reexamine = false;
        bool delivered = false;
        /** Set on ack timeout: a late delivery event must drop it. */
        bool abandoned = false;
    };

    /** A tracked steal-batch delivery awaiting its ack. */
    struct StealTransit
    {
        std::vector<Task> batch;
        UnitId victim = invalidUnit;
        UnitId thief = invalidUnit;
        bool delivered = false;
        bool abandoned = false;
    };

    /**
     * Re-arm this epoch's failure/recovery transitions. The barrier
     * clears the event queue, so transitions still in the future must
     * be rescheduled every epoch; past ones apply immediately (guarded
     * by unitsDown so the application is idempotent).
     */
    void armFailureTransitions();

    /** Take the configured unit set down and recover its queued work. */
    void applyUnitFailures();

    /** Bring the failed unit set back up (transient window end). */
    void applyUnitRecovery();

    /** Drain a dead unit's live and staged queues, re-injecting all. */
    void recoverUnitTasks(UnitId dead);

    /** Re-inject one live-queue task drained from a dead unit. */
    void reinjectLiveTask(UnitId dead, Task task);

    /** Ship a forwarded task with delivery-ack tracking. */
    void trackDelivery(std::shared_ptr<TaskTransit> tr, Tick deliverAt);

    /** Ack timeout expired: redispatch to a live unit after backoff. */
    void redispatchTask(std::shared_ptr<TaskTransit> tr);

    /** Redispatch budget burnt: deliver with a live-unit fallback. */
    void deliverDirect(std::shared_ptr<TaskTransit> tr, Tick deliverAt);

    /** Re-inject a steal batch whose thief died or whose ack expired. */
    void reinjectStealBatch(std::shared_ptr<StealTransit> tr,
                            bool timedOut);

    /** Populate the stats registry from every modelled unit. */
    void buildStats();

    /**
     * Pooled payloads for the non-failure forward/steal transits: the
     * event kernel stores captures inline, so a forward ships a pool
     * index (trivially copyable) instead of heap-allocating a
     * shared_ptr<Task> (or a task vector) per hop. Slots recycle
     * through free lists and batch slots keep their vector capacity,
     * so steady-state forwarding and stealing allocate nothing. An
     * in-flight slot always carries not-yet-executed tasks, which hold
     * activeRemaining > 0 — the epoch barrier (which clears pending
     * events) cannot fire while a slot is live.
     */
    std::uint32_t grabFwdSlot(Task &&task);
    std::uint32_t grabBatchSlot();
    std::vector<Task> fwdPool;
    std::vector<std::uint32_t> fwdPoolFree;
    std::vector<std::vector<Task>> batchPool;
    std::vector<std::uint32_t> batchPoolFree;

    SystemConfig cfg;
    Topology topo;
    FaultModel faults;
    EnergyAccount energy;
    SimAllocator alloc;
    /** Event tracer; constructed before mem/sched which hold pointers. */
    obs::Tracer tracer;
    MemSystem mem;
    Scheduler sched;
    EventQueue eq;
    obs::StatsRegistry statsReg;
    AccessPath path;
    /** Armed iff cfg.checkInvariants (src/check; observational only). */
    std::unique_ptr<check::MachineChecker> checker;

    std::vector<NdpUnit> units;
    Workload *workload = nullptr;

    std::uint64_t curEpoch = 0;
    /** Tasks of the current epoch not yet completed. */
    std::uint64_t activeRemaining = 0;
    /** Tasks staged for the next epoch across all units. */
    std::uint64_t stagedCount = 0;
    /** Unit whose task is currently being functionally executed. */
    UnitId creatorCtx = invalidUnit;
    bool exchangeScheduled = false;
    /** Tick of the most recent task completion (end-to-end time). */
    Tick lastCompletionTick = 0;
    /** The active policy routes tasks through the scheduling window. */
    bool windowPolicy = false;

    /** Re-forward budget per task between scheduling windows. */
    static constexpr std::uint8_t maxForwardHops = 2;

    Tick schedDecisionTicks;

    // Run-wide counters.
    std::uint64_t initialSpread = 0;
    std::uint64_t totalTasks = 0;
    std::uint64_t epochsDone = 0;
    Tick epochBusy = 0;
    std::uint64_t epochTaskCount = 0;
    std::uint64_t stealAttempts = 0;
    std::uint64_t stolenTasks = 0;
    std::uint64_t forwardedTasks = 0;

    // Unit-failure recovery state. All of it stays untouched (and all
    // recovery code paths unreachable) unless failuresOn, so runs
    // without a configured unit failure remain bit-identical.
    /** Unit failures configured; gates every recovery path. */
    bool failuresOn = false;
    /** The configured failure set is currently applied. */
    bool unitsDown = false;
    /** The failure transition fired at least once this run. */
    bool everFailed = false;
    /** Per-destination deliveries sent but not yet acked. */
    std::vector<std::uint32_t> acksOutstanding;
    /** Tasks executed this epoch that the recovery protocol touched. */
    std::uint64_t epochRecoveredCount = 0;
    std::uint64_t tasksRecovered = 0;
    std::uint64_t tasksRedispatched = 0;
    std::uint64_t recoveryTrafficBytes = 0;

    // Online serving state. All of it stays untouched (and the
    // serving branches in the shared dispatch path unreachable)
    // unless servingMode, so batch runs remain bit-identical.
    /** Serving driver active; gates the shared-path branches. */
    bool servingMode = false;
    /** Stream generator state (arrival process, sampler, service). */
    struct ServeState;
    std::unique_ptr<ServeState> srv;
    /** Per-request latency log (exact percentiles at dump time). */
    serve::LatencyRecorder servingLat;
    /** Per-tenant latency logs (tenant id indexes the vector). */
    std::vector<serve::LatencyRecorder> servingTenantLat;
    std::uint64_t servingInjected = 0;
    std::uint64_t servingRejected = 0;
    std::uint64_t servingCompletedDirect = 0;
    std::uint64_t servingCompletedRecovered = 0;
    std::uint64_t servingWindows = 0;

    // Hierarchical load-balancing state. All of it stays untouched
    // (and runLbExchange unreachable) unless lbOn, so runs without a
    // configured balancer remain bit-identical.
    /** Hierarchical lb configured; gates the exchange-window hook. */
    bool lbOn = false;
    /** Tier balancers + hotness tracker + migration planner. */
    std::unique_ptr<LbEngine> lbEngine;
    /** Scratch queue-depth snapshot, reused every lb exchange. */
    std::vector<std::uint32_t> lbQlen;
    /** Tasks shed by the intra-stack (crossbar) tier. */
    std::uint64_t tasksShedIntra = 0;
    /** Tasks shed by the inter-stack (mesh) tier. */
    std::uint64_t tasksShedInter = 0;
};

} // namespace abndp

#endif // ABNDP_CORE_NDP_SYSTEM_HH
