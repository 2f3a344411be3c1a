#include "core/ndp_system.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <utility>

#include "check/machine_checker.hh"
#include "common/logging.hh"
#include "sched/lb/lb_engine.hh"
#include "serve/arrival.hh"
#include "serve/zipf.hh"
#include "workloads/query_service.hh"

namespace abndp
{

/**
 * Serving stream generator state: the seeded arrival process, the
 * Zipfian key sampler, the tenant mix, and the QueryService face of
 * the workload. Out of line so the header needs no serve/ generator
 * includes; exists only for the duration of a serving run.
 */
struct NdpSystem::ServeState
{
    serve::ArrivalProcess arrivals;
    serve::ZipfianSampler zipf;
    QueryService *svc;
    /** Cumulative normalized tenant-weight distribution. */
    std::vector<double> tenantCdf;
    /** Dense sequence numbers handed to admitted requests. */
    std::uint64_t admitted = 0;

    ServeState(const ServingConfig &sc, std::uint64_t systemSeed,
               std::uint64_t keys, QueryService *svc_)
        : arrivals(sc, systemSeed), zipf(keys, sc.zipfS), svc(svc_)
    {
        std::vector<double> w = sc.tenantWeights;
        if (w.empty())
            w.assign(sc.tenants, 1.0);
        double total = 0.0;
        for (double x : w)
            total += x;
        double cum = 0.0;
        tenantCdf.reserve(w.size());
        for (double x : w) {
            cum += x;
            tenantCdf.push_back(cum / total);
        }
    }

    /** Map one uniform draw in [0, 1) to a tenant id. */
    std::uint8_t
    tenantFor(double u) const
    {
        std::size_t t = static_cast<std::size_t>(
            std::upper_bound(tenantCdf.begin(), tenantCdf.end(), u)
            - tenantCdf.begin());
        return static_cast<std::uint8_t>(
            std::min(t, tenantCdf.size() - 1));
    }
};

NdpSystem::~NdpSystem() = default;

NdpSystem::NdpSystem(const SystemConfig &cfg_)
    : cfg(cfg_),
      topo((cfg.validate(), cfg)),
      faults(cfg),
      energy(cfg),
      alloc(cfg),
      tracer(!cfg.traceOut.empty(),
             static_cast<std::size_t>(cfg.traceBufferEvents)),
      mem(cfg, topo, alloc.map(), energy, &faults, &tracer),
      sched(cfg, topo, mem.campMapping(), &faults, &tracer),
      path(cfg, mem, energy, faults),
      units(cfg.numUnits()),
      windowPolicy(sched.usesSchedulingWindow()),
      schedDecisionTicks(static_cast<Tick>(cfg_.sched.decisionNs
                                           * ticksPerNs)),
      exchangeTicks(cfg_.sched.exchangeIntervalCycles
                    * cfg_.ticksPerCycle())
{
    eq.setWatchdog(cfg.fault.watchdog.maxEpochTicks,
                   cfg.fault.watchdog.maxEpochEvents);

    for (UnitId u = 0; u < cfg.numUnits(); ++u)
        units[u].init(cfg, u);

    failuresOn = faults.unitFailuresEnabled();
    acksOutstanding.assign(units.size(), 0);

    if (cfg.serving.enabled()) {
        // Construct the recorders here (not in serveRun) so the stats
        // lambdas built below never see an unsized tenant vector.
        auto slo = static_cast<Tick>(cfg.serving.sloNs * ticksPerNs);
        servingLat = serve::LatencyRecorder(slo);
        servingTenantLat.assign(cfg.serving.tenants,
                                serve::LatencyRecorder(slo));
    }

    lbOn = cfg.lb.enabled;
    if (lbOn) {
        lbEngine = std::make_unique<LbEngine>(cfg.lb, topo);
        mem.setHotnessTracker(&lbEngine->hotness());
        lbQlen.assign(units.size(), 0);
    }

    if (cfg.checkInvariants) {
        checker = std::make_unique<check::MachineChecker>(*this);
        mem.network().setCheckContext(&checker->context());
    }

    buildStats();
}

void
NdpSystem::buildStats()
{
    obs::StatNode &root = statsReg.root();

    obs::StatNode &sys = root.child("system");
    sys.addCounter("epochs", &epochsDone);
    sys.addCounter("tasks", &totalTasks);
    sys.addCounter("forwardedTasks", &forwardedTasks);
    sys.addCounter("stolenTasks", &stolenTasks);
    sys.addCounter("stealAttempts", &stealAttempts);
    sys.addValue("finalTick",
                 [this]() { return static_cast<double>(lastCompletionTick); },
                 obs::StatKind::Gauge, true);
    sys.addValue("simEvents",
                 [this]() { return static_cast<double>(eq.executed()); },
                 obs::StatKind::Counter, true);
    sys.addFormula("coreUtilization", [this]() {
        // Mean busy fraction over all cores up to the last completion.
        if (lastCompletionTick == 0)
            return 0.0;
        double busy = 0.0;
        for (const auto &unit : units)
            for (const auto &core : unit.cores)
                busy += static_cast<double>(core.activeTicks);
        return busy
            / (static_cast<double>(lastCompletionTick)
               * static_cast<double>(cfg.numCores()));
    });
    sys.addFormula("loadImbalance", [this]() {
        // max / mean of per-unit executed-task counts (1.0 = balanced).
        double sum = 0.0, mx = 0.0;
        for (const auto &unit : units) {
            auto n = static_cast<double>(unit.tasksRun());
            sum += n;
            mx = std::max(mx, n);
        }
        double mean = sum / static_cast<double>(units.size());
        return mean > 0.0 ? mx / mean : 0.0;
    });
    std::vector<std::string> unitNames;
    unitNames.reserve(units.size());
    for (UnitId u = 0; u < units.size(); ++u)
        unitNames.push_back(std::to_string(u));
    sys.addVector("unitTasksRun", unitNames,
                  [this](std::size_t u) {
                      return static_cast<double>(units[u].tasksRun());
                  },
                  obs::StatKind::Counter, true);

    // Recovery stats exist only when a unit failure is configured, so
    // failure-free stat dumps (and the golden suite) are unchanged.
    if (cfg.fault.unitFailure.enabled()) {
        obs::StatNode &rec = root.child("recovery");
        rec.addValue("unitsDown",
                     [this]() {
                         return static_cast<double>(faults.downCount());
                     },
                     obs::StatKind::Gauge, true);
        rec.addValue("unitsFailed",
                     [this]() {
                         return everFailed
                             ? static_cast<double>(
                                   faults.failedUnits().size())
                             : 0.0;
                     },
                     obs::StatKind::Counter, true);
        rec.addCounter("tasksRecovered", &tasksRecovered);
        rec.addCounter("tasksRedispatched", &tasksRedispatched);
        rec.addCounter("recoveryTrafficBytes", &recoveryTrafficBytes);
    }

    // Serving stats exist only when a request stream is configured, so
    // batch stat dumps (and the batch golden suite) are unchanged.
    // Percentiles select at dump time from the full latency log —
    // O(n), observational only.
    if (cfg.serving.enabled()) {
        obs::StatNode &sv = root.child("serving");
        sv.addCounter("injected", &servingInjected);
        sv.addCounter("rejected", &servingRejected);
        sv.addCounter("completedDirect", &servingCompletedDirect);
        sv.addCounter("completedRecovered", &servingCompletedRecovered);
        sv.addValue("sloMisses",
                    [this]() {
                        return static_cast<double>(servingLat.sloMisses());
                    },
                    obs::StatKind::Counter, true);
        sv.addCounter("windows", &servingWindows);
        sv.addFormula("meanNs", [this]() {
            return servingLat.meanTicks() / ticksPerNs;
        });
        const std::pair<const char *, double> tails[] = {
            {"p50Ns", 0.50}, {"p95Ns", 0.95}, {"p99Ns", 0.99},
            {"p999Ns", 0.999}};
        for (const auto &[name, q] : tails)
            sv.addFormula(name, [this, q = q]() {
                return static_cast<double>(servingLat.percentile(q))
                    / ticksPerNs;
            });
        sv.addFormula("goodputQps", [this]() {
            // Completed-within-SLO requests per simulated second.
            if (lastCompletionTick == 0)
                return 0.0;
            double ok = static_cast<double>(
                servingLat.samples() - servingLat.sloMisses());
            return ok / (static_cast<double>(lastCompletionTick) * 1e-12);
        });
        sv.addFormula("sloMissRate", [this]() {
            // Rejections count as misses: open-loop load shed is load
            // the tenant offered and the machine did not serve in time.
            if (servingInjected == 0)
                return 0.0;
            return static_cast<double>(servingRejected
                                       + servingLat.sloMisses())
                / static_cast<double>(servingInjected);
        });
        std::vector<std::string> tenantNames;
        tenantNames.reserve(cfg.serving.tenants);
        for (std::uint32_t t = 0; t < cfg.serving.tenants; ++t)
            tenantNames.push_back(std::to_string(t));
        sv.addVector("tenantCompleted", tenantNames,
                     [this](std::size_t t) {
                         return static_cast<double>(
                             servingTenantLat[t].samples());
                     },
                     obs::StatKind::Counter, true);
        sv.addVector("tenantP99Ns", tenantNames,
                     [this](std::size_t t) {
                         return static_cast<double>(
                                    servingTenantLat[t].percentile(0.99))
                             / ticksPerNs;
                     },
                     obs::StatKind::Gauge, false);
    }

    // Lb stats exist only when the hierarchical balancer is
    // configured, so classic stat dumps (and every pre-existing
    // golden family) are unchanged.
    if (cfg.lb.enabled) {
        obs::StatNode &lb = root.child("lb");
        lb.addCounter("tasksShedIntra", &tasksShedIntra);
        lb.addCounter("tasksShedInter", &tasksShedInter);
        mem.regLbStats(lb);
    }

    sched.regStats(root.child("sched"));
    mem.network().regStats(root.child("net"));
    mem.regStats(root.child("mem"));

    obs::StatNode &en = root.child("energy");
    const EnergyAccount &ea = energy;
    en.addFormula("coreSramPj", [&ea] { return ea.breakdown().coreSramPj; });
    en.addFormula("dramMemPj", [&ea] { return ea.breakdown().dramMemPj; });
    en.addFormula("dramCachePj",
                  [&ea] { return ea.breakdown().dramCachePj; });
    en.addFormula("netPj", [&ea] { return ea.breakdown().netPj; });
    en.addFormula("staticPj", [&ea] { return ea.breakdown().staticPj; });
    en.addFormula("totalPj", [&ea] { return ea.breakdown().total(); });

    for (UnitId u = 0; u < units.size(); ++u) {
        obs::StatNode &un = root.child("unit" + std::to_string(u));
        units[u].regStats(un);
        mem.dram(u).regStats(un.child("dram"));
        if (mem.cachingEnabled())
            mem.traveller(u).regStats(un.child("traveller"));
    }
}

void
NdpSystem::enqueueTask(Task &&task)
{
    abndp_assert(workload != nullptr, "enqueue outside a run");
    // The serving driver injects every task itself (emitInitialTasks
    // is never called), so any enqueue here is a child enqueue from
    // executeTask — and query tasks must be independent: there is no
    // next timestamp for a child to run in.
    if (servingMode)
        panic("serving mode forbids child enqueues: workload ",
              workload->name(), " enqueued a task with func ",
              task.func, " from inside a query execution");
    if (creatorCtx == invalidUnit) {
        abndp_assert(task.timestamp == curEpoch,
                     "initial tasks must carry the current timestamp");
    } else {
        abndp_assert(task.timestamp == curEpoch + 1,
                     "child tasks must carry timestamp + 1");
    }

    Addr main_addr = !task.hint.data.empty() ? task.hint.data[0]
        : (!task.writes.empty() ? task.writes[0] : invalidAddr);
    // Affinity follows the migration-aware mapping (identical to the
    // static map for every design without re-homing).
    task.mainHome = main_addr != invalidAddr
        ? mem.campMapping().homeOf(main_addr)
        : (creatorCtx != invalidUnit ? creatorCtx : 0);
    task.finalizeBlocks(workload->taskArena());
    task.loadEstimate = sched.estimateLoad(task);

    UnitId creator = creatorCtx != invalidUnit ? creatorCtx : task.mainHome;

    if (windowPolicy) {
        // Figure 4: generated tasks enter the creating unit's queue; the
        // scheduling window decides their final placement later, with
        // fresher workload information. Initial tasks have no creating
        // unit: the runtime injects them round-robin so no single unit's
        // scheduler serializes the whole initial batch.
        if (creatorCtx == invalidUnit)
            creator = static_cast<UnitId>(initialSpread++ % units.size());
        sched.onEnqueued(creator, task.loadEstimate, creator);
        units[creator].stagedPending.push_back(std::move(task));
    } else {
        UnitId dst = sched.choose(task, creator);
        sched.onEnqueued(dst, task.loadEstimate, creator);
        units[dst].stagedReady.push_back(std::move(task));
    }
    ++stagedCount;
}

std::uint32_t
NdpSystem::grabFwdSlot(Task &&task)
{
    if (fwdPoolFree.empty()) {
        fwdPool.push_back(std::move(task));
        return static_cast<std::uint32_t>(fwdPool.size() - 1);
    }
    std::uint32_t idx = fwdPoolFree.back();
    fwdPoolFree.pop_back();
    fwdPool[idx] = std::move(task);
    return idx;
}

std::uint32_t
NdpSystem::grabBatchSlot()
{
    if (batchPoolFree.empty()) {
        batchPool.emplace_back();
        return static_cast<std::uint32_t>(batchPool.size() - 1);
    }
    std::uint32_t idx = batchPoolFree.back();
    batchPoolFree.pop_back();
    return idx;
}

void
NdpSystem::pumpScheduler(UnitId u)
{
    auto &unit = units[u];
    if (failuresOn && !faults.isLive(u))
        return;
    if (unit.schedBusy || unit.pending.empty())
        return;
    unit.schedBusy = true;
    // A straggler unit's hardware scorer is clocked down with its cores.
    auto decision = static_cast<Tick>(
        schedDecisionTicks * faults.computeSlowdown(u, eq.now()));
    eq.scheduleIn(decision, [this, u] {
        auto &unit = units[u];
        unit.schedBusy = false;
        // The unit may have died while the decision was in flight; its
        // pending queue was drained by the recovery protocol.
        if (failuresOn && !faults.isLive(u))
            return;
        if (unit.pending.empty())
            return;
        Task task = std::move(unit.pending.front());
        unit.pending.pop_front();

        UnitId dst = sched.choose(task, u);
        if (dst == u) {
            unit.ready.push_back(std::move(task));
            tryDispatch(u);
        } else {
            sched.onForwarded(u, dst, task.loadEstimate, u);
            ++forwardedTasks;
            if (tracer.enabled())
                tracer.record(obs::TraceEvent::TaskForward, u,
                              obs::Tracer::laneSched, eq.now(), 0, dst);
            ++task.forwardHops;
            // Ship the task descriptor to its execution unit. A receiver
            // that knows (from its true local queue) that it was a stale
            // choice may re-forward, up to a small hop budget; this
            // breaks the dogpiles a shared stale snapshot causes.
            bool reexamine = task.forwardHops < maxForwardHops;
            Tick t = eq.now();
            t += mem.network().transfer(u, dst, 32, t).latency;
            if (failuresOn) {
                // Failure-tolerant path: the delivery carries an ack
                // with a timeout; expiry redispatches the task to a
                // live unit (docs/ARCHITECTURE.md).
                auto tr = std::make_shared<TaskTransit>();
                tr->task = std::move(task);
                tr->from = u;
                tr->dst = dst;
                tr->reexamine = reexamine;
                trackDelivery(tr, t);
            } else {
                const std::uint32_t idx = grabFwdSlot(std::move(task));
                auto deliver = [this, idx, dst, reexamine] {
                    Task moved = std::move(fwdPool[idx]);
                    fwdPoolFree.push_back(idx);
                    if (reexamine) {
                        units[dst].pending.push_back(std::move(moved));
                        pumpScheduler(dst);
                    } else {
                        units[dst].ready.push_back(std::move(moved));
                        tryDispatch(dst);
                    }
                };
                // The event kernel stores captures inline with no heap
                // fallback; this forwarding closure (this + pool index
                // + UnitId + bool) is the largest one this file
                // schedules and must fit the fixed slot.
                static_assert(
                    EventQueue::callbackFits<decltype(deliver)>,
                    "NdpSystem forwarding capture no longer fits "
                    "the event kernel's inline slot; grow "
                    "EventQueue::callbackCapacity");
                eq.schedule(t, std::move(deliver));
            }
        }
        pumpScheduler(u);
    });
}

void
NdpSystem::issuePrefetches(UnitId u)
{
    auto &unit = units[u];
    std::uint32_t window = std::min<std::uint32_t>(
        cfg.sched.prefetchWindow,
        static_cast<std::uint32_t>(unit.ready.size()));
    Tick now = eq.now();
    while (unit.prefetchedCount < window) {
        Task &task = unit.ready[unit.prefetchedCount];
        if (!task.prefetched)
            path.prefetchTask(unit, task, now);
        ++unit.prefetchedCount;
    }
}

void
NdpSystem::tryDispatch(UnitId u)
{
    auto &unit = units[u];
    // A down unit dispatches nothing (fail-stop at task granularity:
    // tasks already issued to cores complete, new work is refused).
    if (failuresOn && !faults.isLive(u))
        return;
    for (std::uint32_t c = 0; c < unit.cores.size(); ++c) {
        auto &core = unit.cores[c];
        if (core.busy)
            continue;
        if (unit.ready.empty())
            break;

        issuePrefetches(u);
        Task task = std::move(unit.ready.front());
        unit.ready.pop_front();
        if (unit.prefetchedCount > 0)
            --unit.prefetchedCount;
        sched.onDequeued(u, task.loadEstimate);

        // Functional execution: real computation + child enqueues.
        creatorCtx = u;
        workload->executeTask(task, *this);
        creatorCtx = invalidUnit;

        Tick now = eq.now();
        Tick end = path.executeTask(unit, c, task, now);
        if (end == now)
            end = now + 1; // every task takes at least one tick
        core.busy = true;
        core.activeTicks += end - now;
        ++epochTaskCount;
        if (task.recovered)
            ++epochRecoveredCount;
        ++core.tasksRun;
        ++totalTasks;
        if (tracer.enabled())
            tracer.record(obs::TraceEvent::TaskRun, u,
                          static_cast<std::uint16_t>(c), now, end - now,
                          task.func);

        if (servingMode) {
            // Stash the request identity on the core so the completion
            // event below can record its latency without growing the
            // capture (the task dies with this scope).
            core.servingArrival = task.servingArrival;
            core.servingTenant = task.tenant;
            core.servingRecovered = task.recovered;
        }

        eq.schedule(end, [this, u, c] {
            units[u].cores[c].busy = false;
            abndp_assert(activeRemaining > 0);
            --activeRemaining;
            lastCompletionTick = eq.now();
            if (servingMode)
                recordServedCompletion(u, c);
            tryDispatch(u);
        });
    }

    if (unit.ready.empty() && unit.pending.empty()
        && sched.stealingEnabled() && !unit.stealInFlight
        && activeRemaining > 0) {
        if (unit.anyIdleCore())
            attemptSteal(u);
    }
}

void
NdpSystem::attemptSteal(UnitId u)
{
    auto &unit = units[u];
    ++stealAttempts;

    // Probe a few random victims and steal from the one with the longest
    // queue (work stealing from busier units, Section 2.3).
    constexpr std::uint32_t probes = 4;
    UnitId victim = invalidUnit;
    std::size_t best_len = 0;
    for (std::uint32_t i = 0; i < probes; ++i) {
        auto v = static_cast<UnitId>(unit.rng.below(units.size()));
        if (v == u)
            continue;
        // Never steal from a down unit: its queues were drained by the
        // recovery protocol and it cannot answer the probe.
        if (failuresOn && !faults.isLive(v))
            continue;
        std::size_t len = units[v].ready.size();
        if (len > best_len) {
            best_len = len;
            victim = v;
        }
    }

    if (victim == invalidUnit) {
        // Nothing to steal right now: back off exponentially and retry
        // while the epoch still has work in flight.
        unit.stealBackoff = std::min<Tick>(
            std::max<Tick>(unit.stealBackoff * 2, 500 * ticksPerNs),
            16000 * ticksPerNs);
        unit.stealInFlight = true;
        eq.scheduleIn(unit.stealBackoff, [this, u] {
            units[u].stealInFlight = false;
            if (activeRemaining > 0)
                tryDispatch(u);
        });
        return;
    }

    unit.stealBackoff = 0;
    auto &vic = units[victim];
    std::uint32_t batch = std::min<std::uint32_t>(
        cfg.sched.stealBatch,
        static_cast<std::uint32_t>((best_len + 1) / 2));
    abndp_assert(batch > 0);

    // The batch is built in place: directly in the tracked transit on
    // the failure-tolerant path, or in a recycled pool slot (keeping
    // its vector capacity) on the common path.
    std::shared_ptr<StealTransit> tr;
    std::uint32_t slotIdx = 0;
    if (failuresOn)
        tr = std::make_shared<StealTransit>();
    else
        slotIdx = grabBatchSlot();
    std::vector<Task> &stolen = failuresOn ? tr->batch
                                           : batchPool[slotIdx];
    double load = 0.0;
    for (std::uint32_t i = 0; i < batch && !vic.ready.empty(); ++i) {
        Task t = std::move(vic.ready.back());
        vic.ready.pop_back();
        t.prefetched = false;
        load += t.loadEstimate;
        stolen.push_back(std::move(t));
    }
    vic.prefetchedCount = std::min<std::uint32_t>(
        vic.prefetchedCount, static_cast<std::uint32_t>(vic.ready.size()));
    sched.onStolen(victim, u, load);
    stolenTasks += stolen.size();
    if (tracer.enabled())
        tracer.record(obs::TraceEvent::TaskSteal, u,
                      obs::Tracer::laneSched, eq.now(), 0,
                      (static_cast<std::uint64_t>(victim) << 32)
                          | stolen.size());

    // Round trip: steal request + task descriptors back.
    Tick t = eq.now();
    t += mem.network().transfer(u, victim, PacketSizes::request, t).latency;
    auto desc_bytes = static_cast<std::uint32_t>(16 + 32 * stolen.size());
    t += mem.network().transfer(victim, u, desc_bytes, t).latency;

    unit.stealInFlight = true;
    if (failuresOn) {
        // Tracked delivery: the batch carries an ack with a timeout so
        // a thief that dies with the batch in flight cannot lose it.
        tr->victim = victim;
        tr->thief = u;
        ++acksOutstanding[u];
        eq.schedule(t, [this, tr] {
            if (tr->abandoned)
                return;
            tr->delivered = true;
            --acksOutstanding[tr->thief];
            units[tr->thief].stealInFlight = false;
            if (!faults.isLive(tr->thief)) {
                reinjectStealBatch(tr, false);
                return;
            }
            auto &thief = units[tr->thief];
            for (auto &task : tr->batch)
                thief.ready.push_back(std::move(task));
            tr->batch.clear();
            tryDispatch(tr->thief);
        });
        eq.scheduleIn(faults.ackTimeoutTicks(), [this, tr] {
            if (tr->delivered || tr->abandoned)
                return;
            tr->abandoned = true;
            --acksOutstanding[tr->thief];
            units[tr->thief].stealInFlight = false;
            reinjectStealBatch(tr, true);
        });
        return;
    }
    eq.schedule(t, [this, u, slotIdx] {
        auto &thief = units[u];
        thief.stealInFlight = false;
        auto &delivered = batchPool[slotIdx];
        for (auto &task : delivered)
            thief.ready.push_back(std::move(task));
        delivered.clear();
        batchPoolFree.push_back(slotIdx);
        tryDispatch(u);
    });
}

void
NdpSystem::armFailureTransitions()
{
    Tick now = eq.now();
    Tick fail = faults.failAtTick();
    Tick recover = faults.recoverAtTick();
    if (!unitsDown && (recover == 0 || now < recover)) {
        if (now >= fail) {
            applyUnitFailures();
        } else {
            eq.schedule(fail, [this] {
                if (!unitsDown)
                    applyUnitFailures();
            });
        }
    }
    if (recover != 0) {
        if (unitsDown && now >= recover) {
            applyUnitRecovery();
        } else if (now < recover) {
            eq.schedule(recover, [this] {
                if (unitsDown)
                    applyUnitRecovery();
            });
        }
    }
}

void
NdpSystem::applyUnitFailures()
{
    unitsDown = true;
    everFailed = true;
    for (UnitId dead : faults.failedUnits())
        faults.markDown(dead);
    // Copies homed on a down unit can no longer be kept coherent with
    // its re-homed range: purge them from every camp cache and
    // prefetch buffer. The purges count as evictions, so the occupancy
    // conservation law (src/check) keeps holding mid-epoch.
    if (mem.cachingEnabled())
        for (UnitId dead : faults.failedUnits())
            mem.invalidateHomedOn(dead);
    for (auto &unit : units)
        unit.pb->invalidateMatching([this](Addr block) {
            return !faults.isLive(mem.campMapping().homeOf(block));
        });
    // Drain every dead unit's queues and re-inject the tasks so no
    // work is lost (task conservation under failure).
    for (UnitId dead : faults.failedUnits())
        recoverUnitTasks(dead);
}

void
NdpSystem::applyUnitRecovery()
{
    unitsDown = false;
    for (UnitId dead : faults.failedUnits())
        faults.markUp(dead);
    // The recovered units come back with empty queues; scheduling
    // decisions, steals, and the next exchange snapshot repopulate
    // them. Kick their dispatch loop so they can start stealing now.
    for (UnitId u : faults.failedUnits())
        tryDispatch(u);
}

void
NdpSystem::recoverUnitTasks(UnitId dead)
{
    auto &unit = units[dead];
    unit.prefetchedCount = 0;
    while (!unit.pending.empty()) {
        Task task = std::move(unit.pending.front());
        unit.pending.pop_front();
        reinjectLiveTask(dead, std::move(task));
    }
    while (!unit.ready.empty()) {
        Task task = std::move(unit.ready.front());
        unit.ready.pop_front();
        reinjectLiveTask(dead, std::move(task));
    }
    // Staged (next-epoch) tasks re-stage onto live units keeping their
    // queue kind; staging is bookkeeping, so no delivery events — only
    // the descriptor traffic is modelled.
    UnitId buddy = faults.rehomeOf(dead);
    while (!unit.stagedPending.empty()) {
        Task task = std::move(unit.stagedPending.front());
        unit.stagedPending.pop_front();
        task.recovered = true;
        ++tasksRecovered;
        recoveryTrafficBytes += 32;
        mem.network().transfer(dead, buddy, 32, eq.now());
        sched.onStolen(dead, buddy, task.loadEstimate);
        units[buddy].stagedPending.push_back(std::move(task));
    }
    while (!unit.stagedReady.empty()) {
        Task task = std::move(unit.stagedReady.front());
        unit.stagedReady.pop_front();
        task.recovered = true;
        task.prefetched = false;
        ++tasksRecovered;
        UnitId dst = sched.choose(task, buddy);
        recoveryTrafficBytes += 32;
        mem.network().transfer(dead, dst, 32, eq.now());
        sched.onStolen(dead, dst, task.loadEstimate);
        units[dst].stagedReady.push_back(std::move(task));
    }
}

void
NdpSystem::reinjectLiveTask(UnitId dead, Task task)
{
    task.recovered = true;
    task.prefetched = false;
    ++tasksRecovered;
    UnitId buddy = faults.rehomeOf(dead);
    UnitId dst = sched.choose(task, buddy);
    sched.onStolen(dead, dst, task.loadEstimate);
    recoveryTrafficBytes += 32;
    Tick t = eq.now();
    t += mem.network().transfer(dead, dst, 32, t).latency;
    auto moved = std::make_shared<Task>(std::move(task));
    eq.schedule(t, [this, dst, moved] {
        UnitId target = faults.isLive(dst) ? dst : faults.rehomeOf(dst);
        units[target].ready.push_back(std::move(*moved));
        tryDispatch(target);
    });
}

void
NdpSystem::trackDelivery(std::shared_ptr<TaskTransit> tr, Tick deliverAt)
{
    ++acksOutstanding[tr->dst];
    auto deliver = [this, tr] {
        // A dead receiver never acks; the timeout event recovers.
        if (tr->abandoned || !faults.isLive(tr->dst))
            return;
        tr->delivered = true;
        --acksOutstanding[tr->dst];
        auto &unit = units[tr->dst];
        if (tr->reexamine) {
            unit.pending.push_back(std::move(tr->task));
            pumpScheduler(tr->dst);
        } else {
            unit.ready.push_back(std::move(tr->task));
            tryDispatch(tr->dst);
        }
    };
    static_assert(EventQueue::callbackFits<decltype(deliver)>,
                  "tracked-delivery capture no longer fits the event "
                  "kernel's inline slot");
    eq.schedule(deliverAt, std::move(deliver));
    eq.scheduleIn(faults.ackTimeoutTicks(), [this, tr] {
        if (tr->delivered || tr->abandoned)
            return;
        tr->abandoned = true;
        --acksOutstanding[tr->dst];
        redispatchTask(tr);
    });
}

void
NdpSystem::redispatchTask(std::shared_ptr<TaskTransit> tr)
{
    Task &task = tr->task;
    task.recovered = true;
    if (task.redispatchCount < faults.maxRedispatch())
        ++task.redispatchCount;
    ++tasksRedispatched;
    // Exponential backoff (capped shift) before the resend; the
    // creator's live buddy acts for it if the creator itself is down.
    Tick wait = faults.redispatchBackoffTicks(task.redispatchCount - 1);
    UnitId from = faults.isLive(tr->from) ? tr->from
        : faults.rehomeOf(tr->from);
    eq.scheduleIn(wait, [this, tr, from] {
        auto nt = std::make_shared<TaskTransit>();
        nt->task = std::move(tr->task);
        nt->from = from;
        nt->reexamine = false;
        UnitId dst = sched.choose(nt->task, from);
        sched.onStolen(tr->dst, dst, nt->task.loadEstimate);
        nt->dst = dst;
        recoveryTrafficBytes += 32;
        Tick t = eq.now();
        t += mem.network().transfer(from, dst, 32, t).latency;
        if (nt->task.redispatchCount >= faults.maxRedispatch())
            deliverDirect(nt, t);
        else
            trackDelivery(nt, t);
    });
}

void
NdpSystem::deliverDirect(std::shared_ptr<TaskTransit> tr, Tick deliverAt)
{
    // Unconditional delivery with a live fallback applied at arrival,
    // so a task whose redispatch budget is burnt cannot strand on a
    // unit that died while it was in flight.
    eq.schedule(deliverAt, [this, tr] {
        UnitId dst = tr->dst;
        if (!faults.isLive(dst)) {
            UnitId live = faults.rehomeOf(dst);
            sched.onStolen(dst, live, tr->task.loadEstimate);
            dst = live;
        }
        units[dst].ready.push_back(std::move(tr->task));
        tryDispatch(dst);
    });
}

void
NdpSystem::reinjectStealBatch(std::shared_ptr<StealTransit> tr,
                              bool timedOut)
{
    UnitId from = faults.isLive(tr->thief) ? tr->thief
        : faults.rehomeOf(tr->thief);
    for (auto &task : tr->batch) {
        task.recovered = true;
        task.prefetched = false;
        if (timedOut)
            ++tasksRedispatched;
        else
            ++tasksRecovered;
        UnitId dst = sched.choose(task, from);
        sched.onStolen(tr->thief, dst, task.loadEstimate);
        recoveryTrafficBytes += 32;
        Tick t = eq.now();
        t += mem.network().transfer(from, dst, 32, t).latency;
        auto moved = std::make_shared<Task>(std::move(task));
        eq.schedule(t, [this, dst, moved] {
            UnitId target = faults.isLive(dst) ? dst
                : faults.rehomeOf(dst);
            units[target].ready.push_back(std::move(*moved));
            tryDispatch(target);
        });
    }
    tr->batch.clear();
}

void
NdpSystem::scheduleExchange()
{
    if (exchangeScheduled)
        return;
    exchangeScheduled = true;
    // Self-rescheduling chain: refresh the snapshot every interval while
    // the current epoch still has live tasks.
    struct Chain
    {
        static void
        arm(NdpSystem &sys)
        {
            sys.eq.scheduleIn(sys.exchangeTicks, [&sys] {
                sys.sched.exchangeSnapshot(sys.eq.now());
                if (sys.lbOn)
                    sys.runLbExchange();
                if (sys.activeRemaining > 0) {
                    arm(sys);
                } else {
                    sys.exchangeScheduled = false;
                }
            });
        }
    };
    Chain::arm(*this);
}

void
NdpSystem::runLbExchange()
{
    // Snapshot the ready-queue depths — the same information the
    // exchange protocol broadcasts, so consulting it here adds no
    // extra communication beyond the shed commands themselves.
    for (UnitId u = 0; u < units.size(); ++u)
        lbQlen[u] = failuresOn && !faults.isLive(u)
            ? 0
            : static_cast<std::uint32_t>(units[u].ready.size());
    for (const ShedCmd &cmd : lbEngine->planSheds(lbQlen))
        executeShed(cmd);

    // Re-homing rides the same window. Skipped while units are down:
    // a dead home's range is buddy-served, and migrating out of it
    // would race the recovery re-homing (documented simplification).
    if (cfg.lb.migration.enabled && !(failuresOn && unitsDown)) {
        for (const MigrationCmd &m :
                 lbEngine->planMigrations(mem.campMapping()))
            mem.migrateBlock(m.block, m.to, eq.now());
    }
    lbEngine->onWindow();
}

void
NdpSystem::executeShed(const ShedCmd &cmd)
{
    // Mirrors the steal transfer (attemptSteal): pop from the back of
    // the victim's ready queue, one request packet out, descriptors
    // back, pooled batch slot in flight.
    if (failuresOn
        && (!faults.isLive(cmd.victim) || !faults.isLive(cmd.thief)))
        return;
    auto &vic = units[cmd.victim];
    auto count = std::min<std::uint32_t>(
        cmd.count, static_cast<std::uint32_t>(vic.ready.size()));
    if (count == 0)
        return;

    const std::uint32_t slotIdx = grabBatchSlot();
    std::vector<Task> &shed = batchPool[slotIdx];
    double load = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
        Task t = std::move(vic.ready.back());
        vic.ready.pop_back();
        t.prefetched = false;
        load += t.loadEstimate;
        shed.push_back(std::move(t));
    }
    vic.prefetchedCount = std::min<std::uint32_t>(
        vic.prefetchedCount,
        static_cast<std::uint32_t>(vic.ready.size()));
    sched.onStolen(cmd.victim, cmd.thief, load);
    (cmd.inter ? tasksShedInter : tasksShedIntra) += count;
    if (tracer.enabled())
        tracer.record(obs::TraceEvent::TaskSteal, cmd.thief,
                      obs::Tracer::laneSched, eq.now(), 0,
                      (static_cast<std::uint64_t>(cmd.victim) << 32)
                          | count);

    Tick t = eq.now();
    t += mem.network().transfer(cmd.thief, cmd.victim,
                                PacketSizes::request, t).latency;
    auto desc_bytes = static_cast<std::uint32_t>(16 + 32 * count);
    t += mem.network().transfer(cmd.victim, cmd.thief, desc_bytes,
                                t).latency;

    const UnitId dst = cmd.thief;
    eq.schedule(t, [this, dst, slotIdx] {
        // The thief may have died with the batch in flight; its live
        // buddy takes the work (same fallback deliverDirect applies).
        UnitId target = failuresOn && !faults.isLive(dst)
            ? faults.rehomeOf(dst) : dst;
        auto &delivered = batchPool[slotIdx];
        for (auto &task : delivered)
            units[target].ready.push_back(std::move(task));
        delivered.clear();
        batchPoolFree.push_back(slotIdx);
        tryDispatch(target);
    });
}

void
NdpSystem::startEpoch(std::uint64_t ts)
{
    curEpoch = ts;
    activeRemaining = 0;
    if (tracer.enabled())
        tracer.record(obs::TraceEvent::EpochBegin,
                      obs::Tracer::systemUnit, 0, eq.now(), 0, ts);
    for (auto &unit : units)
        activeRemaining += unit.beginEpoch();
    stagedCount = 0;

    // Failure/recovery transitions must be re-armed every epoch: the
    // barrier cancelled all pending events. Runs before the exchange
    // snapshot so the first snapshot already sees the liveness mask.
    if (failuresOn)
        armFailureTransitions();

    if (windowPolicy || sched.stealingEnabled() || lbOn) {
        // The barrier is already a global synchronization point, so the
        // workload information exchange piggybacks on it; further
        // exchanges follow every interval within the epoch.
        sched.exchangeSnapshot(eq.now());
        if (lbOn)
            runLbExchange();
        scheduleExchange();
    }

    for (UnitId u = 0; u < units.size(); ++u) {
        pumpScheduler(u);
        tryDispatch(u);
    }
}

void
NdpSystem::dumpStallDiagnostics(const std::string &reason,
                                bool simulatorBug)
{
    std::ostringstream oss;
    oss << reason << "\n";
    oss << "  tick " << eq.now() << " (" << eq.now() / 1000.0
        << " ns), epoch " << curEpoch << ", " << activeRemaining
        << " tasks live, " << eq.size() << " events pending, "
        << eq.executed() << " executed\n";
    if (failuresOn) {
        std::uint32_t unacked = 0;
        for (std::uint32_t a : acksOutstanding)
            unacked += a;
        oss << "  liveness: " << units.size() - faults.downCount()
            << "/" << units.size() << " units live, " << unacked
            << " un-acked deliveries, " << tasksRecovered
            << " tasks recovered, " << tasksRedispatched
            << " redispatched\n";
    }
    oss << "  per-unit queue depths (units with work or busy cores):\n";
    std::uint32_t listed = 0;
    constexpr std::uint32_t maxListed = 32;
    for (UnitId u = 0; u < units.size(); ++u) {
        const auto &unit = units[u];
        std::uint32_t busy = unit.busyCores();
        std::uint32_t unacked = failuresOn ? acksOutstanding[u] : 0;
        bool down = failuresOn && !faults.isLive(u);
        if (unit.pending.empty() && unit.ready.empty() && busy == 0
            && unacked == 0 && !down)
            continue;
        if (++listed > maxListed) {
            oss << "    ... (further units elided)\n";
            break;
        }
        oss << "    unit " << u << ": pending=" << unit.pending.size()
            << " ready=" << unit.ready.size() << " busyCores=" << busy;
        if (unit.schedBusy)
            oss << " schedBusy";
        if (unit.stealInFlight)
            oss << " stealInFlight";
        if (unacked > 0)
            oss << " unackedDeliveries=" << unacked;
        if (down)
            oss << " [down]";
        if (faults.isStraggler(u))
            oss << " [straggler]";
        oss << "\n";
    }
    if (listed == 0)
        oss << "    (none: all queues empty and all cores idle)\n";
    if (simulatorBug)
        panic(oss.str());
    fatal(oss.str());
}

RunMetrics
NdpSystem::run(Workload &wl)
{
    abndp_assert(workload == nullptr,
                 "NdpSystem::run() may be called once");
    // Host-side self-measurement (simulator throughput). Wall-clock is
    // reporting only and never feeds back into simulation state.
    const auto hostStart = std::chrono::steady_clock::now();

    RunMetrics m;
    intervalStats(0);
    if (cfg.serving.enabled())
        serveRun(wl);
    else
        batchRun(wl, m);
    intervalStats(servingMode ? servingWindows : epochsDone, true);

    energy.finalizeStatic(lastCompletionTick);
    m.harvest(statsReg);

    if (checker)
        checker->onRunEnd(m);

    if (!cfg.traceOut.empty()) {
        std::ofstream tf(cfg.traceOut);
        if (!tf)
            fatal("cannot open trace output file: ", cfg.traceOut);
        tracer.exportChromeJson(tf);
    }

    m.hostSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - hostStart).count();
    return m;
}

void
NdpSystem::intervalStats(std::uint64_t done, bool final)
{
    if (cfg.statsInterval == 0)
        return;
    if (intervalOs == nullptr) {
        intervalOs = &std::cout;
        if (!cfg.statsOut.empty()) {
            intervalFile = std::make_unique<std::ofstream>(cfg.statsOut);
            if (!*intervalFile)
                fatal("cannot open stats output file: ", cfg.statsOut);
            intervalOs = intervalFile.get();
        }
        statsReg.beginInterval();
        return;
    }
    // Every epoch and window takes time, so an unchanged tick means
    // nothing happened since the last dump.
    if (final ? eq.now() == intervalTick : done % cfg.statsInterval != 0)
        return;
    statsReg.dumpInterval(*intervalOs, logging_detail::concat(
        "interval ", servingMode ? "windows" : "epochs", " [", intervalFrom,
        ", ", done, ") tick ", eq.now()));
    intervalFrom = done;
    intervalTick = eq.now();
}

void
NdpSystem::batchRun(Workload &wl, RunMetrics &m)
{
    workload = &wl;
    wl.setup(alloc);

    curEpoch = 0;
    wl.emitInitialTasks(*this);

    std::uint64_t ts = 0;
    while (stagedCount > 0 && (cfg.maxEpochs == 0 || ts < cfg.maxEpochs)) {
        // Epoch boundary: this epoch's staged hints live in the arena
        // generation children must not share; the generation freed here
        // held epoch ts-2's hints, whose tasks have all completed.
        wl.taskArena().rotate();
        Tick epoch_begin = eq.now();
        eq.armWatchdog();
        // Epoch-start invariants run before startEpoch() dispatches
        // anything (dispatch already touches the caches).
        if (checker)
            checker->onEpochStart(ts, stagedCount);
        startEpoch(ts);
        // Drain the epoch: stop as soon as every task completed so that
        // periodic bookkeeping events (exchange ticks, steal backoffs)
        // cannot stretch the barrier, then cancel them.
        while (activeRemaining > 0) {
            if (!eq.runOne())
                dumpStallDiagnostics(
                    "deadlock: live tasks but no events", true);
            reclaimPastPages();
            if (eq.watchdogTripped())
                dumpStallDiagnostics(
                    logging_detail::concat(
                        "watchdog: epoch ", ts, " exceeded its budget (",
                        eq.watchdogEvents(), " events, ",
                        eq.watchdogTicks() / 1000, " ns simulated; "
                        "limits: maxEpochEvents=",
                        cfg.fault.watchdog.maxEpochEvents,
                        ", maxEpochTicks=",
                        cfg.fault.watchdog.maxEpochTicks, ")"),
                    false);
        }
        if (checker)
            checker->onEpochEnd(ts, epochTaskCount - epochRecoveredCount,
                                epochRecoveredCount, stagedCount);
        eq.clearPending();
        exchangeScheduled = false;
        for (auto &unit : units)
            unit.resetTransient();
        m.epochTicks.push_back(lastCompletionTick - epoch_begin);
        m.epochTasks.push_back(epochTaskCount);
        epochTaskCount = 0;
        epochRecoveredCount = 0;

        // Bulk-synchronous timestamp boundary: invalidate all cached
        // primary data (tag clear; no writebacks) and apply updates.
        mem.bulkInvalidate();
        for (auto &unit : units)
            unit.invalidatePrimaryData();
        wl.endEpoch(ts);
        ++ts;
        epochsDone = ts;
        intervalStats(ts);
    }

    if (ts == 0)
        warn("workload ", wl.name(), " emitted no initial tasks; zero "
             "epochs were simulated and every metric is zero");
}

void
NdpSystem::injectServingTask(Task &&task)
{
    Addr main_addr = !task.hint.data.empty() ? task.hint.data[0]
        : (!task.writes.empty() ? task.writes[0] : invalidAddr);
    task.mainHome = main_addr != invalidAddr
        ? mem.campMapping().homeOf(main_addr) : 0;
    // No finalizeBlocks(): serving tasks outlive every epoch-arena
    // generation, so blocks stays empty (the access path derives the
    // block list from the hint) and only hintLines is memoized.
    task.hintLines = task.hint.totalLines();
    task.loadEstimate = sched.estimateLoad(task);
    ++activeRemaining;

    if (windowPolicy) {
        // Figure-4 path, without the staging detour: arrivals have no
        // creating unit, so they spread round-robin into live pending
        // queues and the scheduling window places them from there.
        auto creator =
            static_cast<UnitId>(initialSpread++ % units.size());
        if (failuresOn && !faults.isLive(creator))
            creator = faults.rehomeOf(creator);
        sched.onEnqueued(creator, task.loadEstimate, creator);
        units[creator].pending.push_back(std::move(task));
        pumpScheduler(creator);
    } else {
        UnitId dst = sched.choose(task, task.mainHome);
        if (failuresOn && !faults.isLive(dst))
            dst = faults.rehomeOf(dst);
        sched.onEnqueued(dst, task.loadEstimate, task.mainHome);
        units[dst].ready.push_back(std::move(task));
        tryDispatch(dst);
    }
}

void
NdpSystem::serveArrival()
{
    const ServingConfig &sc = cfg.serving;
    // Tenant and key are drawn for every arrival, admitted or not, so
    // admission decisions can never shift the stream's draw sequence.
    Rng &krng = srv->arrivals.keyRng();
    std::uint8_t tenant = sc.tenants > 1 ? srv->tenantFor(krng.uniform())
                                         : 0;
    std::uint64_t key = srv->zipf(krng);
    ++servingInjected;

    if (sc.maxOutstanding == 0 || activeRemaining < sc.maxOutstanding) {
        Task task = srv->svc->makeQueryTask(key, srv->admitted++);
        task.servingArrival = eq.now();
        task.tenant = tenant;
        injectServingTask(std::move(task));
    } else {
        ++servingRejected;
    }

    if (servingInjected < sc.requests)
        eq.schedule(srv->arrivals.nextArrival(eq.now()),
                    [this] { serveArrival(); });
}

void
NdpSystem::armServingWindow()
{
    // The serving analogue of the epoch boundary, minus the barrier:
    // the watchdog budget re-arms and the schedulers refresh their
    // exchange snapshot. Nothing drains, and no cache is invalidated:
    // primary data is read-only under serving, so there is no
    // timestamp boundary.
    eq.scheduleIn(exchangeTicks, [this] {
        ++servingWindows;
        eq.armWatchdog();
        if (windowPolicy || sched.stealingEnabled())
            sched.exchangeSnapshot(eq.now());
        if (lbOn)
            runLbExchange();
        intervalStats(servingWindows);
        armServingWindow();
    });
}

void
NdpSystem::reclaimPastPages()
{
    const Tick now = eq.now();
    if (now < nextReclaimTick)
        return;
    // Pending events fire at or after now() and book bandwidth at or
    // after their own tick, so pages wholly below now() are dead.
    mem.discardBefore(now);
    nextReclaimTick = (now / exchangeTicks + 1) * exchangeTicks;
}

void
NdpSystem::recordServedCompletion(UnitId u, std::uint32_t c)
{
    const CoreState &core = units[u].cores[c];
    Tick latency = eq.now() - core.servingArrival;
    servingLat.record(latency);
    servingTenantLat[core.servingTenant].record(latency);
    if (core.servingRecovered)
        ++servingCompletedRecovered;
    else
        ++servingCompletedDirect;
}

void
NdpSystem::serveRun(Workload &wl)
{
    workload = &wl;
    auto *svc = dynamic_cast<QueryService *>(&wl);
    if (svc == nullptr)
        fatal("workload ", wl.name(), " cannot be served: it does not "
              "implement QueryService (point-query serving needs kv, "
              "knn, sssp, or astar)");
    servingMode = true;

    wl.setup(alloc);
    const ServingConfig &sc = cfg.serving;
    abndp_assert(svc->keySpace() > 0, "empty key space after setup");
    svc->beginServing(sc.requests);
    srv = std::make_unique<ServeState>(sc, cfg.seed, svc->keySpace(),
                                       svc);
    servingLat.reserve(sc.requests);

    curEpoch = 0;
    eq.armWatchdog();
    if (failuresOn)
        armFailureTransitions();
    if (windowPolicy || sched.stealingEnabled())
        sched.exchangeSnapshot(eq.now());
    // No lb exchange here: the queues are empty until the first
    // arrival, so the first useful window is the armed one below.
    armServingWindow();
    eq.schedule(srv->arrivals.nextArrival(eq.now()),
                [this] { serveArrival(); });

    // Drive the open loop: run until the stream is exhausted and every
    // admitted request completed. There is no drain barrier in between
    // — new arrivals keep injecting while earlier requests execute.
    while (activeRemaining > 0 || servingInjected < sc.requests) {
        if (!eq.runOne())
            dumpStallDiagnostics(
                "deadlock: serving stream live but no events", true);
        reclaimPastPages();
        if (eq.watchdogTripped())
            dumpStallDiagnostics(
                logging_detail::concat(
                    "watchdog: serving window exceeded its budget (",
                    eq.watchdogEvents(), " events, ",
                    eq.watchdogTicks() / 1000, " ns simulated; limits: "
                    "maxEpochEvents=",
                    cfg.fault.watchdog.maxEpochEvents,
                    ", maxEpochTicks=",
                    cfg.fault.watchdog.maxEpochTicks,
                    "); the open-loop arrival rate may exceed what "
                    "this design can sustain"),
                false);
    }
    // Only bookkeeping chains remain (windows, steal backoffs).
    eq.clearPending();
}

} // namespace abndp
