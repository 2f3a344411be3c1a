/**
 * @file
 * Reference-model differential testing (src/check/ref_models.hh):
 * seeded operation generators drive each optimized core structure in
 * lock-step against its slow, obviously-correct reference and compare
 * every return value and counter. >= 10k operations per pair.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/prefetch_buffer.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/traveller_cache.hh"
#include "check/ref_models.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "energy/energy.hh"
#include "mem/ddr_backend.hh"
#include "sched/lb/data_hotness.hh"
#include "sched/lb/home_indirection.hh"
#include "serve/latency_recorder.hh"
#include "serve/zipf.hh"
#include "sim/bandwidth_meter.hh"
#include "sim/event_queue.hh"
#include "workloads/graph.hh"
#include "workloads/graph_gen.hh"

namespace abndp
{

namespace
{

constexpr std::uint64_t kOps = 12000;

/** Block-aligned address in a small window (forces set conflicts). */
Addr
drawBlockAddr(Rng &gen, std::uint64_t blocks = 768)
{
    return gen.below(blocks) * cachelineBytes;
}

} // namespace

// ---- SetAssocCache vs RefSetAssocCache --------------------------------

struct CacheGeomCase
{
    const char *name;
    std::uint64_t sets;
    std::uint32_t assoc;
    ReplPolicy repl;
    bool hashed;
};

class SetAssocDifferential
    : public ::testing::TestWithParam<CacheGeomCase>
{
};

TEST_P(SetAssocDifferential, LockStepAgainstReference)
{
    const CacheGeomCase &g = GetParam();
    constexpr std::uint64_t seed = 0xd1ffu;
    SetAssocCache opt(g.sets, g.assoc, g.repl, seed, g.hashed);
    check::RefSetAssocCache ref(g.sets, g.assoc, g.repl, seed, g.hashed);

    Rng gen(0xa5a5a5a5u);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen);
        switch (gen.below(8)) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(opt.access(a), ref.access(a)) << "op " << i;
            break;
          case 3:
          case 4:
          case 5:
            ASSERT_EQ(opt.insert(a), ref.insert(a)) << "op " << i;
            break;
          case 6:
            ASSERT_EQ(opt.contains(a), ref.contains(a)) << "op " << i;
            break;
          default:
            ASSERT_EQ(opt.invalidate(a), ref.invalidate(a))
                << "op " << i;
            break;
        }
        if (i % 4096 == 4095) {
            opt.invalidateAll();
            ref.invalidateAll();
        }
        if (i % 512 == 0) {
            ASSERT_EQ(opt.occupancy(), ref.occupancy()) << "op " << i;
        }
    }
    EXPECT_EQ(opt.hits(), ref.hits());
    EXPECT_EQ(opt.misses(), ref.misses());
    EXPECT_EQ(opt.insertions(), ref.insertions());
    EXPECT_EQ(opt.evictions(), ref.evictions());
    EXPECT_EQ(opt.occupancy(), ref.occupancy());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocDifferential,
    ::testing::Values(
        CacheGeomCase{"l1_like_lru", 64, 4, ReplPolicy::Lru, true},
        CacheGeomCase{"random_repl", 64, 4, ReplPolicy::Random, true},
        CacheGeomCase{"fifo_lowbit", 32, 2, ReplPolicy::Fifo, false},
        CacheGeomCase{"non_pow2_sets", 48, 3, ReplPolicy::Lru, true},
        CacheGeomCase{"direct_mapped", 128, 1, ReplPolicy::Lru, false}),
    [](const auto &info) { return std::string(info.param.name); });

// ---- TravellerCache vs RefTravellerCache ------------------------------

class TravellerDifferential : public ::testing::TestWithParam<double>
{
};

TEST_P(TravellerDifferential, LockStepAgainstReference)
{
    // Both sides mix the same raw seed into the same dedicated stream,
    // so bypass and victim draws line up one-to-one.
    SystemConfig cfg;
    cfg.memBytesPerUnit = 1ull << 22; // small cache: evictions happen
    cfg.traveller.bypassProb = GetParam();
    cfg.validate();
    TravellerCache opt(cfg, cfg.seed);
    check::RefTravellerCache ref(cfg.travellerSets(), cfg.traveller.assoc,
                                 cfg.traveller.repl,
                                 cfg.traveller.bypassProb, cfg.seed);

    Rng gen(0x77aaull);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen, 4096);
        switch (gen.below(8)) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(opt.lookup(a), ref.lookup(a)) << "op " << i;
            break;
          case 3:
          case 4:
          case 5:
            ASSERT_EQ(opt.maybeInsert(a), ref.maybeInsert(a))
                << "op " << i;
            break;
          default:
            ASSERT_EQ(opt.contains(a), ref.contains(a)) << "op " << i;
            break;
        }
        if (i % 4096 == 4095) {
            opt.bulkInvalidate();
            ref.bulkInvalidate();
        }
        if (i % 512 == 0) {
            ASSERT_EQ(opt.occupancy(), ref.occupancy()) << "op " << i;
        }
    }
    EXPECT_EQ(opt.hits(), ref.hits());
    EXPECT_EQ(opt.misses(), ref.misses());
    EXPECT_EQ(opt.insertions(), ref.insertions());
    EXPECT_EQ(opt.evictions(), ref.evictions());
    EXPECT_EQ(opt.bypasses(), ref.bypasses());
    EXPECT_EQ(opt.occupancy(), ref.occupancy());
}

INSTANTIATE_TEST_SUITE_P(BypassProbs, TravellerDifferential,
                         ::testing::Values(0.0, 0.1, 0.5),
                         [](const auto &info) {
                             return "bypass"
                                 + std::to_string(static_cast<int>(
                                       info.param * 100));
                         });

// ---- TravellerCache::invalidateBlock vs the invalidateMatching sweep ---

class TravellerInvalidateBlockDifferential
    : public ::testing::TestWithParam<ReplPolicy>
{
};

TEST_P(TravellerInvalidateBlockDifferential, LockStepAgainstSweep)
{
    // Two identically seeded caches see the same ops; only the way a
    // single block is dropped differs. Sets fill (8 candidate blocks
    // per 4-way set), so way order after a drop decides which block a
    // later Random victim index hits.
    SystemConfig cfg;
    cfg.memBytesPerUnit = 1ull << 22; // 256 sets of 4 ways
    cfg.traveller.repl = GetParam();
    cfg.traveller.bypassProb = 0.1;
    cfg.validate();
    TravellerCache probe(cfg, cfg.seed);
    TravellerCache sweep(cfg, cfg.seed);
    const std::uint64_t window = 8 * cfg.travellerSets();

    Rng gen(0x1b10cull);
    std::uint64_t drops = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen, window);
        switch (gen.below(8)) {
          case 0:
          case 1:
            ASSERT_EQ(probe.lookup(a), sweep.lookup(a)) << "op " << i;
            break;
          case 2:
          case 3:
          case 4:
          case 5:
            ASSERT_EQ(probe.maybeInsert(a), sweep.maybeInsert(a))
                << "op " << i;
            break;
          default: {
            std::uint64_t dropped = probe.invalidateBlock(a) ? 1 : 0;
            ASSERT_EQ(dropped, sweep.invalidateMatching(
                                   [a](Addr b) { return b == a; }))
                << "op " << i;
            drops += dropped;
            break;
          }
        }
        ASSERT_EQ(probe.contains(a), sweep.contains(a)) << "op " << i;
        if (i % 4096 == 4095) {
            probe.bulkInvalidate();
            sweep.bulkInvalidate();
        }
    }
    EXPECT_GT(drops, 0u);
    EXPECT_GT(sweep.evictions(), drops); // capacity evictions happened
    EXPECT_EQ(probe.occupancy(), sweep.occupancy());
    EXPECT_EQ(probe.evictions(), sweep.evictions());
    EXPECT_EQ(probe.insertions(), sweep.insertions());
    EXPECT_EQ(probe.hits(), sweep.hits());
    EXPECT_EQ(probe.misses(), sweep.misses());
}

INSTANTIATE_TEST_SUITE_P(ReplPolicies,
                         TravellerInvalidateBlockDifferential,
                         ::testing::Values(ReplPolicy::Random,
                                           ReplPolicy::Lru),
                         [](const auto &info) {
                             return std::string(
                                 info.param == ReplPolicy::Lru
                                     ? "lru"
                                     : "random");
                         });

// ---- BandwidthMeter vs RefBandwidthMeter ------------------------------

TEST(BandwidthMeterDifferential, LockStepAgainstReference)
{
    constexpr Tick width = 256 * ticksPerNs;
    BandwidthMeter opt(width);
    check::RefBandwidthMeter ref(width);

    // Out-of-order start times and services spanning several buckets —
    // exactly the regime the paged backfill structure optimizes.
    Rng gen(0xbeefu);
    Tick base = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        // Drift the window forward while jittering backwards, so
        // reservations arrive out of time order like task-granularity
        // timing produces.
        base += gen.below(200);
        Tick t = base >= 5000 ? base - gen.below(5000) : base;
        Tick service = gen.below(3 * width / 2) + 1;
        ASSERT_EQ(opt.reserve(t, service), ref.reserve(t, service))
            << "op " << i;
        if (i % 1024 == 1023) {
            ASSERT_EQ(opt.maxBucketFill(), ref.maxBucketFill());
            ASSERT_EQ(opt.bucketsInUse(), ref.bucketsInUse());
        }
        if (i % 6000 == 5999) {
            opt.reset();
            ref.reset();
            base = 0;
        }
    }
    EXPECT_EQ(opt.bucketsInUse(), ref.bucketsInUse());
    EXPECT_EQ(opt.maxBucketFill(), ref.maxBucketFill());
    EXPECT_LE(opt.maxBucketFill(), width);
}

TEST(BandwidthMeterDifferential, TfawWidthHubBacklogWithDiscards)
{
    // One default tFAW window (30 ns): the DDR ACT meter's bucket, the
    // widest in the tree, whose backlog spans the most pages.
    constexpr Tick width = 30 * ticksPerNs;
    constexpr Tick pageTicks = 1024 * width;
    constexpr Tick hubJitter = 4 * width;
    BandwidthMeter opt(width);
    check::RefBandwidthMeter ref(width);

    // Rounds of overload: the hub stream asks for ~4x the capacity
    // with starts jittered back into its own backlog (clamped up to
    // the known-full prefix); an island stream a few pages ahead
    // builds a second full run that the hub's frontier later crosses
    // (the cross-page fullUpTo jump); sparse small reservations
    // further out leave partly filled buckets that end skip chains.
    // Between rounds the start drifts past the horizon so each
    // round's backlog (several pages) is a fresh one.
    Rng gen(0xfa30u);
    Tick base = 0, island = 3 * pageTicks, horizon = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        base += gen.below(width);
        Tick t, service;
        const std::uint64_t kind = gen.below(16);
        if (kind < 11) {
            t = base - std::min(base, gen.below(hubJitter));
            service = gen.below(4 * width) + 1;
        } else if (kind < 15) {
            island += gen.below(width / 2);
            t = island + gen.below(hubJitter);
            service = gen.below(3 * width) + 1;
        } else {
            t = base + gen.below(8 * pageTicks);
            service = gen.below(width / 4) + 1;
        }
        const Tick begin = opt.reserve(t, service);
        ASSERT_EQ(begin, ref.reserve(t, service)) << "op " << i;
        horizon = std::max(horizon, begin + service);
        if (i % 3000 == 2999) {
            base = horizon + gen.below(4 * pageTicks);
            island = base + 3 * pageTicks;
        }
        // Every later start is >= base - hubJitter (base only grows).
        if (i % 500 == 499) {
            opt.discardBefore(base - std::min(base, hubJitter));
            ASSERT_EQ(opt.maxBucketFill(), ref.maxBucketFill())
                << "op " << i;
            ASSERT_EQ(opt.bucketsInUse(), ref.bucketsInUse())
                << "op " << i;
        }
    }
    EXPECT_EQ(opt.maxBucketFill(), width);
}

// ---- DdrBackend vs RefDdrBackend --------------------------------------

// gtest lists an unprintable parameter by its raw bytes, so the name
// pointer goes last: the listed test ID then starts with the policy and
// address-map values instead of a string address that moves whenever
// the binary's read-only data layout does.
struct DdrDiffCase
{
    PagePolicy policy;
    DramAddrMapKind addrMap;
    bool refresh;
    const char *name;
};

class DdrBackendDifferential
    : public ::testing::TestWithParam<DdrDiffCase>
{
};

TEST_P(DdrBackendDifferential, LockStepAgainstReference)
{
    const DdrDiffCase &g = GetParam();
    SystemConfig cfg;
    cfg.memBytesPerUnit = 1ull << 22; // few rows/bank: conflicts happen
    cfg.dram.backend = MemBackendKind::Ddr;
    cfg.dram.pagePolicy = g.policy;
    cfg.dram.addrMap = g.addrMap;
    cfg.dram.refreshEnabled = g.refresh;
    cfg.validate();
    EnergyAccount energy(cfg);
    DdrBackend opt(cfg, energy); // faults == nullptr: no Rng draws
    check::RefDdrBackend ref(cfg);

    // Drifting, backwards-jittering start ticks: the task-granularity
    // regime every bank-state anchor must stay bounded under.
    Rng gen(0xdd12u);
    Tick base = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        base += gen.below(300);
        Tick t = base >= 20000 ? base - gen.below(20000) : base;
        Addr a = gen.below(cfg.memBytesPerUnit / cachelineBytes)
            * cachelineBytes;
        bool wr = gen.below(4) == 0;
        ASSERT_EQ(opt.access(a, cachelineBytes, wr, false, t),
                  ref.access(a, cachelineBytes, wr, t))
            << "op " << i;
    }
    EXPECT_EQ(opt.reads(), ref.reads());
    EXPECT_EQ(opt.writes(), ref.writes());
    EXPECT_EQ(opt.rowMisses(), ref.rowMisses());
    EXPECT_EQ(opt.rowHits(), ref.rowHits());
    EXPECT_EQ(opt.refreshes(), ref.refreshes());
    EXPECT_EQ(opt.actStalls(), ref.actStalls());
    // Four-activate invariant, cross-checked on the naive meter too.
    EXPECT_LE(ref.actWindowPeak(), ref.actWindowWidth());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DdrBackendDifferential,
    ::testing::Values(
        DdrDiffCase{PagePolicy::Open, DramAddrMapKind::RowBankColumn,
                    true, "open_rbc"},
        DdrDiffCase{PagePolicy::Close, DramAddrMapKind::RowColumnBank,
                    true, "close_rcb"},
        DdrDiffCase{PagePolicy::Adaptive, DramAddrMapKind::BankRowColumn,
                    true, "adaptive_brc"},
        DdrDiffCase{PagePolicy::Open, DramAddrMapKind::RowColumnBank,
                    false, "open_rcb_norefresh"},
        DdrDiffCase{PagePolicy::Adaptive, DramAddrMapKind::RowBankColumn,
                    true, "adaptive_rbc"}),
    [](const auto &info) { return std::string(info.param.name); });

// ---- PrefetchBuffer vs RefPrefetchBuffer ------------------------------

TEST(PrefetchBufferDifferential, LockStepAgainstReference)
{
    constexpr std::uint64_t capacity = 64; // 4 kB / 64 B
    PrefetchBuffer opt(capacity);
    check::RefPrefetchBuffer ref(capacity);

    // One generator decodes each operation and its arguments exactly
    // once per iteration, so both sides see identical inputs.
    Rng gen2(0xfee1u);
    Tick now = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen2, 256);
        now += gen2.below(50);
        std::uint64_t op = gen2.below(8);
        if (op < 4) {
            Tick ready = now + gen2.below(400);
            opt.fill(a, ready);
            ref.fill(a, ready);
        } else if (op < 7) {
            ASSERT_EQ(opt.lookup(a, now), ref.lookup(a, now))
                << "op " << i;
        } else {
            ASSERT_EQ(opt.peek(a), ref.peek(a)) << "op " << i;
        }
        ASSERT_EQ(opt.size(), ref.size()) << "op " << i;
        if (i % 4096 == 4095) {
            opt.invalidateAll();
            ref.invalidateAll();
        }
    }
    EXPECT_EQ(opt.hits(), ref.hits());
    EXPECT_EQ(opt.lateHits(), ref.lateHits());
    EXPECT_EQ(opt.misses(), ref.misses());
    EXPECT_EQ(opt.fills(), ref.fills());
    EXPECT_EQ(opt.evictions(), ref.evictions());
}

// ---- EventQueue vs RefEventQueue --------------------------------------

TEST(EventQueueDifferential, ExecutionOrderMatchesReference)
{
    EventQueue opt;
    check::RefEventQueue ref;

    std::vector<std::uint64_t> optLog, refLog;

    // Seeded generator interleaving schedules (with deliberate tick
    // ties), runs, and barrier-style clearPending; callbacks may
    // schedule follow-ups, exercising in-flight insertion.
    Rng gen(0xe0e0u);
    std::uint64_t nextId = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        std::uint64_t op = gen.below(8);
        if (op < 4) {
            // Coarse tick grid forces frequent ties; order must then
            // follow insertion sequence on both sides.
            Tick when = opt.now() + gen.below(16) * 10;
            std::uint64_t id = nextId++;
            bool chain = gen.below(4) == 0;
            auto *log = &optLog;
            EventQueue *q = &opt;
            opt.schedule(when, [log, id, chain, q] {
                log->push_back(id);
                if (chain)
                    q->scheduleIn(5, [log, id] {
                        log->push_back(id | (1ull << 63));
                    });
            });
            auto *rlog = &refLog;
            check::RefEventQueue *rq = &ref;
            ref.schedule(when, [rlog, id, chain, rq] {
                rlog->push_back(id);
                if (chain)
                    rq->scheduleIn(5, [rlog, id] {
                        rlog->push_back(id | (1ull << 63));
                    });
            });
        } else if (op < 7) {
            ASSERT_EQ(opt.runOne(), ref.runOne()) << "op " << i;
            ASSERT_EQ(opt.now(), ref.now()) << "op " << i;
        } else if (op == 7 && gen.below(64) == 0) {
            opt.clearPending();
            ref.clearPending();
        }
        ASSERT_EQ(opt.size(), ref.size()) << "op " << i;
    }
    while (opt.runOne())
        ref.runOne();
    EXPECT_FALSE(ref.runOne());
    EXPECT_EQ(opt.now(), ref.now());
    EXPECT_EQ(opt.executed(), ref.executed());
    EXPECT_EQ(optLog, refLog);
    EXPECT_GT(optLog.size(), 1000u);
}

// ---- serve::LatencyRecorder vs RefLatencyRecorder ---------------------

TEST(LatencyRecorderDifferential, QuantilesMatchFullSortReference)
{
    // Same stream into both sides; after every batch the nth_element
    // selection must agree bit-exactly with the full-sort reference at
    // every reported rank, including heavy-duplicate and adversarial
    // already-sorted regimes.
    constexpr Tick slo = 5000 * ticksPerNs;
    serve::LatencyRecorder opt(slo);
    check::RefLatencyRecorder ref(slo);

    const double qs[] = {0.5, 0.9, 0.95, 0.99, 0.999, 1.0};
    Rng gen(0x1a7e9cu);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Tick v;
        switch (gen.below(4)) {
          case 0:
            // Heavy-tail draw: most mass small, occasional huge spike.
            v = gen.below(64) == 0 ? gen.below(1u << 24) : gen.below(4096);
            break;
          case 1:
            v = i; // monotonically increasing (sorted input)
            break;
          case 2:
            v = 1000; // heavy duplicates around one value
            break;
          default:
            v = gen.below(1u << 20);
            break;
        }
        opt.record(v);
        ref.record(v);
        if (i % 997 == 0 || i + 1 == kOps) {
            for (double q : qs)
                ASSERT_EQ(opt.percentile(q), ref.percentile(q))
                    << "op " << i << " q " << q;
            ASSERT_EQ(opt.meanTicks(), ref.meanTicks()) << "op " << i;
        }
    }
    EXPECT_EQ(opt.samples(), ref.samples());
    EXPECT_EQ(opt.sloMisses(), ref.sloMisses());
}

TEST(LatencyRecorderDifferential, EmptyAndSingleSample)
{
    serve::LatencyRecorder opt(100);
    check::RefLatencyRecorder ref(100);
    EXPECT_EQ(opt.percentile(0.99), 0u);
    EXPECT_EQ(opt.percentile(0.99), ref.percentile(0.99));
    opt.record(42);
    ref.record(42);
    for (double q : {0.001, 0.5, 0.999, 1.0})
        EXPECT_EQ(opt.percentile(q), ref.percentile(q)) << q;
}

// ---- serve::ZipfianSampler vs RefZipfSampler --------------------------

TEST(ZipfSamplerDifferential, KeysMatchLinearScanReference)
{
    // Binary-search inversion vs linear scan over identically-built
    // CDF tables: the same uniform draw stream must yield the same key
    // sequence bit for bit, at several skews including the uniform
    // degenerate case.
    for (double s : {0.0, 0.5, 0.99, 1.2}) {
        SCOPED_TRACE(s);
        constexpr std::uint64_t keys = 2311; // non-power-of-two
        serve::ZipfianSampler opt(keys, s);
        check::RefZipfSampler ref(keys, s);

        Rng optRng(0x21bfu), refRng(0x21bfu);
        for (std::uint64_t i = 0; i < kOps; ++i)
            ASSERT_EQ(opt(optRng), ref(refRng)) << "draw " << i;
        // Boundary inversions, exactly representable in double.
        for (double u : {0.0, 0.25, 0.5, 0.999999, 1.0 - 1e-16})
            ASSERT_EQ(opt.keyFor(u), ref.keyFor(u)) << u;
    }
}

// ---- DataHotness vs RefDataHotness ------------------------------------

namespace
{

void
expectSameEntries(const std::vector<HotEntry> &a,
                  const std::vector<HotEntry> &b, std::uint64_t op,
                  UnitId home)
{
    ASSERT_EQ(a.size(), b.size()) << "op " << op << " home " << home;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].block, b[i].block)
            << "op " << op << " home " << home << " rank " << i;
        ASSERT_EQ(a[i].cnt, b[i].cnt)
            << "op " << op << " home " << home << " rank " << i;
        ASSERT_EQ(a[i].reqId, b[i].reqId)
            << "op " << op << " home " << home << " rank " << i;
        ASSERT_EQ(a[i].reqCnt, b[i].reqCnt)
            << "op " << op << " home " << home << " rank " << i;
    }
}

} // namespace

TEST(DataHotnessDifferential, LockStepAgainstReference)
{
    // Flat slot banks with in-place lossy counting vs a per-home
    // std::map scanned naively. A tight block window over a small K
    // forces constant min-evictions and Boyer-Moore vote churn.
    constexpr std::uint32_t units = 8;
    constexpr std::uint32_t hotK = 6;
    constexpr std::uint32_t decayShift = 1;
    DataHotness opt(units, hotK, decayShift);
    check::RefDataHotness ref(units, hotK, decayShift);

    Rng gen(0x407b10cc5u);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        auto home = static_cast<UnitId>(gen.below(units));
        Addr a = drawBlockAddr(gen, 24); // few blocks: slot contention
        auto req = static_cast<UnitId>(gen.below(units));
        switch (gen.below(8)) {
          case 7:
            opt.erase(home, a);
            ref.erase(home, a);
            break;
          default:
            opt.record(home, a, req);
            ref.record(home, a, req);
            break;
        }
        if (i % 64 == 63) {
            opt.decayAll();
            ref.decayAll();
        }
        ASSERT_EQ(opt.totalCount(home), ref.totalCount(home))
            << "op " << i;
        if (i % 128 == 0)
            for (UnitId h = 0; h < units; ++h)
                expectSameEntries(opt.topK(h), ref.topK(h), i, h);
    }
    for (UnitId h = 0; h < units; ++h) {
        expectSameEntries(opt.topK(h), ref.topK(h), kOps, h);
        EXPECT_EQ(opt.totalCount(h), ref.totalCount(h)) << "home " << h;
    }
}

TEST(DataHotnessDifferential, DecayFreesSlotsIdentically)
{
    // Full-strength decay (shift 63) zeroes everything: both sides
    // must agree the banks are empty and reusable afterwards.
    DataHotness opt(2, 4, 63);
    check::RefDataHotness ref(2, 4, 63);
    for (std::uint64_t i = 0; i < 64; ++i) {
        Addr a = (i % 6) * cachelineBytes;
        opt.record(0, a, 1);
        ref.record(0, a, 1);
    }
    opt.decayAll();
    ref.decayAll();
    EXPECT_EQ(opt.totalCount(0), 0u);
    EXPECT_EQ(ref.totalCount(0), 0u);
    EXPECT_TRUE(opt.topK(0).empty());
    EXPECT_TRUE(ref.topK(0).empty());
    opt.record(0, 0, 1);
    ref.record(0, 0, 1);
    expectSameEntries(opt.topK(0), ref.topK(0), 65, 0);
}

// ---- HomeIndirection vs RefHomeIndirection ----------------------------

TEST(HomeIndirectionDifferential, LockStepAgainstReference)
{
    // unordered_map overlay vs ordered std::map: every point query
    // must agree. Static homes derive deterministically from the
    // block number, like the range partition does.
    constexpr std::uint32_t units = 16;
    HomeIndirection opt;
    check::RefHomeIndirection ref;

    Rng gen(0x1d1ecccu);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen, 512);
        auto base = static_cast<UnitId>(blockNumber(a) % units);
        switch (gen.below(8)) {
          case 0:
          case 1:
          case 2: {
            auto to = static_cast<UnitId>(gen.below(units));
            opt.set(a, to, base);
            ref.set(a, to, base);
            break;
          }
          case 3: {
            // Move home again: exercises overwrite of a live entry.
            auto to = static_cast<UnitId>(gen.below(units));
            opt.set(a, to, base);
            ref.set(a, to, base);
            break;
          }
          case 4:
            // Re-home back to base: the entry must vanish.
            opt.set(a, base, base);
            ref.set(a, base, base);
            break;
          default:
            break;
        }
        ASSERT_EQ(opt.resolve(a, base), ref.resolve(a, base))
            << "op " << i;
        ASSERT_EQ(opt.entries(), ref.entries()) << "op " << i;
        ASSERT_EQ(opt.active(), ref.active()) << "op " << i;
        if (i % 6000 == 5999) {
            opt.clear();
            ref.clear();
            ASSERT_FALSE(opt.active());
        }
    }
    // Full sweep: every block in the window resolves identically.
    for (std::uint64_t b = 0; b < 512; ++b) {
        Addr a = b * cachelineBytes;
        auto base = static_cast<UnitId>(b % units);
        EXPECT_EQ(opt.resolve(a, base), ref.resolve(a, base))
            << "block " << b;
    }
}

TEST(ZipfSamplerDifferential, EmpiricalFrequencyTracksExactPmf)
{
    // Statistical leg: with s = 0.99 over a small key space, observed
    // frequencies over 200k draws must track the exact per-key
    // probabilities within a loose relative band for the head keys
    // (the tail is too thin for tight per-key bounds).
    constexpr std::uint64_t keys = 64;
    constexpr std::uint64_t draws = 200000;
    serve::ZipfianSampler zipf(keys, 0.99);

    std::vector<std::uint64_t> count(keys, 0);
    Rng rng(0x5eedu);
    for (std::uint64_t i = 0; i < draws; ++i)
        ++count[zipf(rng)];

    double mass = 0.0;
    for (std::uint64_t k = 0; k < 8; ++k) {
        double expect = zipf.probabilityOf(k) * draws;
        EXPECT_NEAR(static_cast<double>(count[k]), expect,
                    0.1 * expect + 3.0 * std::sqrt(expect))
            << "key " << k;
        mass += zipf.probabilityOf(k);
    }
    // s ~ 1 concentrates a large share of all draws on the head.
    EXPECT_GT(mass, 0.5);
    // Skew sanity: the head key dominates the median key.
    EXPECT_GT(count[0], 8 * count[keys / 2]);
}

// ---- Graph builders vs the sort-based references ---------------------

namespace
{

/**
 * Seeded edge list over @p n vertices: about 10% self-loops, 20%
 * repeats of an earlier edge, 25% touching one hub vertex, and no
 * endpoint in the top quarter of the id range (isolated vertices).
 */
std::vector<Graph::Edge>
drawEdgeList(Rng &gen, std::uint32_t n, std::uint64_t m)
{
    auto reach = n - n / 4;
    auto hub = static_cast<std::uint32_t>(gen.below(reach));
    std::vector<Graph::Edge> edges;
    for (std::uint64_t i = 0; i < m; ++i) {
        auto src = static_cast<std::uint32_t>(gen.below(reach));
        auto dst = static_cast<std::uint32_t>(gen.below(reach));
        switch (gen.below(20)) {
          case 0:
          case 1:
            dst = src;
            break;
          case 2:
          case 3:
          case 4:
          case 5:
            if (!edges.empty()) {
                edges.push_back(edges[gen.below(edges.size())]);
                continue;
            }
            break;
          case 6:
          case 7:
          case 8:
            src = hub;
            break;
          case 9:
          case 10:
            dst = hub;
            break;
          default:
            break;
        }
        edges.emplace_back(src, dst);
    }
    return edges;
}

} // namespace

class GraphFromEdgesDifferential : public ::testing::TestWithParam<bool>
{
};

TEST_P(GraphFromEdgesDifferential, MatchesSortReference)
{
    const bool undirected = GetParam();
    auto expectSame = [&](std::uint32_t n,
                          const std::vector<Graph::Edge> &edges) {
        Graph g = Graph::fromEdges(n, edges, undirected);
        check::RefCsr ref = check::refCsrFromEdges(n, edges, undirected);
        ASSERT_EQ(g.numVertices(), n);
        ASSERT_EQ(g.row(), ref.rowPtr);
        ASSERT_EQ(g.col(), ref.colIdx);
    };

    expectSame(0, {});
    expectSame(7, {});
    expectSame(3, {{0, 0}, {1, 1}, {2, 2}});
    expectSame(4, {{3, 0}, {3, 0}, {0, 3}, {2, 1}, {1, 2}, {2, 1}});

    Rng gen(0x67a9c5u);
    for (int trial = 0; trial < 300; ++trial) {
        auto n = static_cast<std::uint32_t>(1 + gen.below(400));
        std::uint64_t m = gen.below(3000);
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectSame(n, drawEdgeList(gen, n, m));
    }
}

INSTANTIATE_TEST_SUITE_P(Directions, GraphFromEdgesDifferential,
                         ::testing::Bool(), [](const auto &info) {
                             return std::string(info.param ? "undirected"
                                                           : "directed");
                         });

TEST(GraphRmatDifferential, MatchesDoubleCompareLoop)
{
    // Default and skewed quadrant weights, an all-equal split whose
    // thresholds are exact binary fractions, an empty quadrant (b = 0:
    // two equal thresholds) and a = b = c = 0 (every draw hits d).
    struct Weights
    {
        double a, b, c;
    };
    const Weights weights[] = {{0.57, 0.19, 0.19},
                               {0.45, 0.15, 0.25},
                               {0.25, 0.25, 0.25},
                               {0.7, 0.0, 0.29},
                               {0.0, 0.0, 0.0}};
    for (std::uint32_t scale = 9; scale <= 14; ++scale) {
        for (const Weights &w : weights) {
            RmatParams p;
            p.a = w.a;
            p.b = w.b;
            p.c = w.c;
            p.scale = scale;
            p.edgeFactor = 4 + scale % 3 * 4;
            p.seed = 1000 + scale;
            p.undirected = scale % 2 == 0;
            SCOPED_TRACE("scale " + std::to_string(scale) + " a "
                         + std::to_string(w.a));
            Graph g = makeRmatGraph(p);
            check::RefCsr ref = check::refCsrFromEdges(
                1u << scale, check::refRmatEdges(p), p.undirected);
            ASSERT_EQ(g.row(), ref.rowPtr);
            ASSERT_EQ(g.col(), ref.colIdx);
        }
    }
}

TEST(GraphTransposeDifferential, MatchesSortReference)
{
    auto expectSame = [](const Graph &g) {
        Graph t = g.transposed();
        check::RefCsr ref = check::refTranspose({g.row(), g.col()});
        ASSERT_EQ(t.numVertices(), g.numVertices());
        ASSERT_EQ(t.row(), ref.rowPtr);
        ASSERT_EQ(t.col(), ref.colIdx);
    };

    expectSame(Graph::fromEdges(0, {}, false));
    expectSame(Graph::fromEdges(5, {}, false));
    Rng gen(0x7a25u);
    for (int trial = 0; trial < 200; ++trial) {
        auto n = static_cast<std::uint32_t>(1 + gen.below(400));
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectSame(Graph::fromEdges(n, drawEdgeList(gen, n, gen.below(3000)),
                                    trial % 2 == 1));
    }
    RmatParams p;
    p.scale = 12;
    p.undirected = false;
    expectSame(makeRmatGraph(p));
}

} // namespace abndp
