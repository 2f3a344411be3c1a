/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the hot
 * simulator primitives — camp mapping, cache probes, the event queue,
 * DRAM/network reservations, scheduler scoring, block migration and
 * graph setup.
 * These guard the simulator's own performance, not the paper's
 * results.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/camp_mapping.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/traveller_cache.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "core/mem_system.hh"
#include "energy/energy.hh"
#include "mem/address_map.hh"
#include "mem/meter_backend.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sched/scheduler.hh"
#include "sim/bandwidth_meter.hh"
#include "sim/event_queue.hh"
#include "workloads/graph_gen.hh"

namespace abndp
{

namespace
{

SystemConfig
cachedConfig()
{
    SystemConfig cfg;
    cfg.traveller.style = CacheStyle::TravellerSramTags;
    return cfg;
}

void
BM_Mix64(benchmark::State &state)
{
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = mix64(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_Mix64);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_EventQueueSchedule(benchmark::State &state)
{
    EventQueue eq;
    Tick t = 0;
    for (auto _ : state) {
        eq.schedule(++t, [] {});
        if (eq.size() > 1024)
            eq.runAll();
    }
}
BENCHMARK(BM_EventQueueSchedule);

void
BM_CampCandidates(benchmark::State &state)
{
    auto cfg = cachedConfig();
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    CandidateList cl;
    Addr a = 0;
    for (auto _ : state) {
        camps.candidates(a, cl);
        benchmark::DoNotOptimize(cl.loc[0]);
        a += 64;
    }
}
BENCHMARK(BM_CampCandidates);

void
BM_NearestCandidate(benchmark::State &state)
{
    auto cfg = cachedConfig();
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            camps.nearestCandidate(a, static_cast<UnitId>(a / 64 % 128)));
        a += 64;
    }
}
BENCHMARK(BM_NearestCandidate);

void
BM_L1Access(benchmark::State &state)
{
    SystemConfig cfg;
    SetAssocCache l1(cfg.l1d);
    Addr a = 0;
    for (auto _ : state) {
        if (!l1.access(a))
            l1.insert(a);
        a = (a + 64) % (1 << 20);
    }
}
BENCHMARK(BM_L1Access);

void
BM_TravellerLookupInsert(benchmark::State &state)
{
    auto cfg = cachedConfig();
    TravellerCache tc(cfg, 1);
    Addr a = 0;
    for (auto _ : state) {
        if (!tc.lookup(a))
            tc.maybeInsert(a);
        a = (a + 64) % (1 << 22);
    }
}
BENCHMARK(BM_TravellerLookupInsert);

void
BM_DramAccess(benchmark::State &state)
{
    SystemConfig cfg;
    EnergyAccount energy(cfg);
    MeterBackend dram(cfg, energy);
    Tick t = 0;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.access(a, 64, false, false, t));
        a += 4096;
        t += 100000;
    }
}
BENCHMARK(BM_DramAccess);

void
BM_NetworkTransfer(benchmark::State &state)
{
    SystemConfig cfg;
    Topology topo(cfg);
    EnergyAccount energy(cfg);
    Network net(cfg, topo, energy);
    Tick t = 0;
    UnitId dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.transfer(0, dst, 80, t));
        dst = (dst + 17) % 128;
        if (dst == 0)
            dst = 1;
        t += 100000;
    }
}
BENCHMARK(BM_NetworkTransfer);

void
BM_BandwidthMeterReserve(benchmark::State &state)
{
    BandwidthMeter m;
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.reserve(t, 50));
        t += 60;
    }
}
BENCHMARK(BM_BandwidthMeterReserve);

/**
 * reserve() on a saturated meter. BM_BandwidthMeterReserve asks for
 * less than the capacity, so nearly every call takes the fast path.
 * Here a hub stream asks for ~3x the capacity with starts jittered back
 * into its own backlog, an island stream builds a second full run a
 * few pages ahead that the hub's frontier later crosses, and sparse
 * small reservations leave partly filled buckets further out, so
 * reserveSlow walks skip chains and fullUpTo jumps across a backlog
 * of tens of pages. One pattern of 64k reservations replays from a
 * reset meter, so every round does the same work in bounded memory.
 */
void
BM_BandwidthMeterSaturated(benchmark::State &state)
{
    constexpr Tick width = 256 * ticksPerNs;
    constexpr Tick pageTicks = 1024 * width;
    struct Op
    {
        Tick t, service;
    };
    std::vector<Op> ops(1 << 16);
    Rng gen(0x5a7u);
    Tick base = 0, island = 3 * pageTicks;
    for (Op &op : ops) {
        base += gen.below(width);
        const std::uint64_t kind = gen.below(16);
        if (kind < 11) {
            op.t = base - std::min(base, gen.below(4 * width));
            op.service = gen.below(4 * width) + 1;
        } else if (kind < 15) {
            island += gen.below(width / 2);
            op.t = island + gen.below(4 * width);
            op.service = gen.below(3 * width) + 1;
        } else {
            op.t = base + gen.below(8 * pageTicks);
            op.service = gen.below(width / 4) + 1;
        }
    }

    BandwidthMeter m(width);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.reserve(ops[i].t, ops[i].service));
        if (++i == ops.size()) {
            i = 0;
            m.reset();
        }
    }
}
BENCHMARK(BM_BandwidthMeterSaturated);

/**
 * One HLB-mig re-homing on the Table-1 machine: DRAM read and write,
 * one NoC data packet, the stale-copy probe of all 128 camp caches,
 * and the indirection update. Every migrated block starts cached in
 * every camp cache; the caches are rewarmed (untimed) after each pass.
 */
void
BM_MigrateBlock(benchmark::State &state)
{
    SystemConfig cfg = applyDesign(SystemConfig{}, Design::HlbM);
    Topology topo(cfg);
    AddressMap amap(cfg);
    EnergyAccount energy(cfg);
    MemSystem mem(cfg, topo, amap, energy);

    // Blocks spread over every home and over distinct camp sets.
    std::vector<Addr> blocks(4096);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i] = amap.unitBase(static_cast<UnitId>(i % cfg.numUnits()))
            + i * cachelineBytes;
    auto warm = [&] {
        for (UnitId u = 0; u < cfg.numUnits(); ++u)
            for (Addr b : blocks)
                mem.traveller(u).maybeInsert(b);
    };
    warm();

    Tick t = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        Addr b = blocks[i];
        UnitId to = (mem.campMapping().homeOf(b) + 1) % cfg.numUnits();
        mem.migrateBlock(b, to, t);
        t += 100000;
        if (++i == blocks.size()) {
            i = 0;
            state.PauseTiming();
            warm();
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_MigrateBlock);

/** Graph setup: a scale-16 undirected R-MAT graph (edge draws + CSR). */
void
BM_MakeRmatGraph(benchmark::State &state)
{
    RmatParams p;
    p.scale = 16;
    for (auto _ : state)
        benchmark::DoNotOptimize(makeRmatGraph(p).numEdges());
}
BENCHMARK(BM_MakeRmatGraph)->Unit(benchmark::kMillisecond);

/** PageRank's in-edge CSR of a scale-16 directed R-MAT graph. */
void
BM_PageRankTranspose(benchmark::State &state)
{
    RmatParams p;
    p.scale = 16;
    p.undirected = false;
    Graph g = makeRmatGraph(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(g.transposed().numEdges());
}
BENCHMARK(BM_PageRankTranspose)->Unit(benchmark::kMillisecond);

void
BM_SchedulerChoose(benchmark::State &state)
{
    auto cfg = cachedConfig();
    cfg.sched.policy = SchedPolicy::Hybrid;
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    Scheduler sched(cfg, topo, camps);

    // A representative vertex task: one main record + 16 neighbors.
    Task task;
    Rng rng(3);
    for (int i = 0; i < 17; ++i)
        task.hint.data.push_back(amap.unitBase(
                                     static_cast<UnitId>(rng.below(128)))
                                 + rng.below(1 << 20) * 64);
    task.mainHome = amap.homeOf(task.hint.data[0]);
    task.loadEstimate = sched.estimateLoad(task);

    UnitId creator = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.choose(task, creator));
        creator = (creator + 1) % 128;
    }
}
BENCHMARK(BM_SchedulerChoose);

} // namespace
} // namespace abndp

BENCHMARK_MAIN();
