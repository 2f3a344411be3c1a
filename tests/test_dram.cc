/** @file Tests for the DRAM channel timing and energy model. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "energy/energy.hh"
#include "mem/ddr_backend.hh"
#include "mem/meter_backend.hh"

namespace abndp
{

namespace
{

struct DramFixture
{
    SystemConfig cfg;
    EnergyAccount energy{cfg};
    MeterBackend dram{cfg, energy};
};

} // namespace

TEST(Dram, RowMissThenRowHitLatency)
{
    DramFixture f;
    // Cold access: row miss = tRP + tRCD + tCAS (+ burst).
    Tick first = f.dram.access(0, 64, false, false, 0);
    Tick miss_core = static_cast<Tick>((17 + 17 + 17) * ticksPerNs);
    EXPECT_GE(first, miss_core);

    // Same row, later: row hit = tCAS (+ burst) only.
    Tick second = f.dram.access(64, 64, false, false, first + 100000);
    EXPECT_LT(second, first);
    EXPECT_GE(second, static_cast<Tick>(17 * ticksPerNs));
    EXPECT_EQ(f.dram.rowMisses(), 1u);
}

TEST(Dram, BankConflictQueues)
{
    DramFixture f;
    // Two simultaneous accesses to the same row (same bank): the second
    // queues behind the first.
    Tick a = f.dram.access(0, 64, false, false, 0);
    Tick b = f.dram.access(64, 64, false, false, 0);
    EXPECT_GT(b, a - static_cast<Tick>(34 * ticksPerNs));
    EXPECT_GT(a + b, a); // b includes queueing
    EXPECT_GT(f.dram.queueWaitNs().max(), 0.0);
}

TEST(Dram, DifferentBanksDoNotConflict)
{
    DramFixture f;
    Tick a = f.dram.access(0, 64, false, false, 0);
    // Next row maps to the next bank (row interleaving).
    Tick b = f.dram.access(f.cfg.dram.rowBytes, 64, false, false, 0);
    // Both are cold row misses of equal latency; neither queues.
    EXPECT_EQ(a, b);
}

TEST(Dram, CountsReadsAndWrites)
{
    DramFixture f;
    f.dram.access(0, 64, false, false, 0);
    f.dram.access(4096, 64, true, false, 0);
    f.dram.access(8192, 64, true, true, 0);
    EXPECT_EQ(f.dram.reads(), 1u);
    EXPECT_EQ(f.dram.writes(), 2u);
}

TEST(Dram, EnergySplitsMemoryAndCacheRegions)
{
    DramFixture f;
    f.dram.access(0, 64, false, false, 0);
    double mem_only = f.energy.breakdown().dramMemPj;
    EXPECT_GT(mem_only, 0.0);
    EXPECT_DOUBLE_EQ(f.energy.breakdown().dramCachePj, 0.0);

    f.dram.access(1ull << 20, 64, false, true, 0);
    EXPECT_GT(f.energy.breakdown().dramCachePj, 0.0);
    EXPECT_DOUBLE_EQ(f.energy.breakdown().dramMemPj, mem_only);
}

TEST(Dram, RowMissEnergyIncludesActPre)
{
    DramFixture f;
    // Row miss: 64B * 8 * 5 pJ/bit + 535.8 pJ.
    f.dram.access(0, 64, false, false, 0);
    EXPECT_NEAR(f.energy.breakdown().dramMemPj, 64 * 8 * 5.0 + 535.8,
                1e-9);
}

TEST(Dram, ResetStateClearsBanks)
{
    DramFixture f;
    f.dram.access(0, 64, false, false, 0);
    f.dram.resetState();
    // After reset the row buffer is closed again: row miss.
    f.dram.access(0, 64, false, false, 1000000);
    EXPECT_EQ(f.dram.rowMisses(), 2u);
}

// ---- DdrBackend: bank-state timing ------------------------------------

namespace
{

struct DdrFixture
{
    explicit DdrFixture(PagePolicy policy = PagePolicy::Open,
                        bool refresh = false)
    {
        cfg.dram.backend = MemBackendKind::Ddr;
        cfg.dram.pagePolicy = policy;
        cfg.dram.refreshEnabled = refresh;
        cfg.validate();
        energy = std::make_unique<EnergyAccount>(cfg);
        dram = std::make_unique<DdrBackend>(cfg, *energy);
    }

    SystemConfig cfg;
    std::unique_ptr<EnergyAccount> energy;
    std::unique_ptr<DdrBackend> dram;
};

/** Row-0 address of bank @p b under the default rbc interleave. */
Addr
bankAddr(const SystemConfig &cfg, std::uint32_t b)
{
    return static_cast<Addr>(b) * cfg.dram.rowBytes;
}

} // namespace

TEST(DdrBackend, OpenPageHitsAfterMiss)
{
    DdrFixture f;
    Tick miss = f.dram->access(0, 64, false, false, 0);
    Tick hit = f.dram->access(64, 64, false, false, miss + 100000);
    EXPECT_LT(hit, miss);
    EXPECT_EQ(f.dram->rowMisses(), 1u);
    EXPECT_EQ(f.dram->rowHits(), 1u);
}

TEST(DdrBackend, ClosePageNeverHits)
{
    DdrFixture f(PagePolicy::Close);
    Tick t = 0;
    for (int i = 0; i < 4; ++i)
        t += f.dram->access(0, 64, false, false, t) + 1000000;
    EXPECT_EQ(f.dram->rowMisses(), 4u);
    EXPECT_EQ(f.dram->rowHits(), 0u);
}

TEST(DdrBackend, AdaptiveConvergesToClosedUnderMissStream)
{
    // Alternating rows in one bank: the saturating score drains to 0
    // and the adaptive policy must converge to close-page latencies
    // (no tRP in the critical path because the row is precharged
    // eagerly), while open-page keeps paying the precharge.
    DdrFixture adaptive(PagePolicy::Adaptive);
    DdrFixture close(PagePolicy::Close);
    DdrFixture open(PagePolicy::Open);
    Tick t = 0;
    Tick lastAdaptive = 0;
    Tick lastClose = 0;
    Tick lastOpen = 0;
    for (int i = 0; i < 8; ++i) {
        Addr a = i % 2 == 0 ? 0 : 1ull * close.cfg.dram.rowBytes * 8;
        lastAdaptive = adaptive.dram->access(a, 64, false, false, t);
        lastClose = close.dram->access(a, 64, false, false, t);
        lastOpen = open.dram->access(a, 64, false, false, t);
        t += 10000000; // wide spacing: no queueing or recovery overlap
    }
    EXPECT_EQ(lastAdaptive, lastClose);
    EXPECT_GT(lastOpen, lastAdaptive);
}

TEST(DdrBackend, AdaptiveStaysOpenUnderHitStream)
{
    DdrFixture adaptive(PagePolicy::Adaptive);
    Tick t = 10000000;
    for (int i = 0; i < 6; ++i)
        adaptive.dram->access(64ull * i, 64, false, false,
                              t += 10000000);
    EXPECT_EQ(adaptive.dram->rowMisses(), 1u);
    EXPECT_EQ(adaptive.dram->rowHits(), 5u);
}

TEST(DdrBackend, FourActivateWindowDelaysFifthAct)
{
    DdrFixture f;
    auto tFaw = static_cast<Tick>(f.cfg.dram.tFawNs * ticksPerNs);
    // Five cold row misses to five distinct banks at t = 0: the ACT
    // meter spaces ACTs a quarter window apart, so the fifth lands a
    // full tFAW after the first.
    Tick lat[5];
    for (std::uint32_t b = 0; b < 5; ++b)
        lat[b] = f.dram->access(bankAddr(f.cfg, b), 64, false, false, 0);
    EXPECT_EQ(lat[4] - lat[0], tFaw);
    EXPECT_EQ(f.dram->actStalls(), 4u);
    // Far apart in time, the same five banks stall nobody.
    DdrFixture calm;
    Tick t = 0;
    Tick prev = 0;
    for (std::uint32_t b = 0; b < 5; ++b)
        prev = calm.dram->access(bankAddr(calm.cfg, b), 64, false,
                                 false, t += 10000000);
    EXPECT_EQ(calm.dram->actStalls(), 0u);
    EXPECT_EQ(prev, lat[0]); // cold miss latency, no window stall
}

TEST(DdrBackend, WriteRecoveryDelaysPrecharge)
{
    // A row conflict right after a write pays tWR before the
    // precharge; after a read it only waits out tRAS (already long
    // elapsed here).
    DdrFixture wr;
    DdrFixture rd;
    Addr rowA = 0;
    Addr rowB = 8ull * wr.cfg.dram.rowBytes; // same bank, next row
    Tick w = wr.dram->access(rowA, 64, true, false, 0);
    Tick r = rd.dram->access(rowA, 64, false, false, 0);
    EXPECT_EQ(w, r); // the write itself costs the same
    Tick afterW = wr.dram->access(rowB, 64, false, false, w);
    Tick afterR = rd.dram->access(rowB, 64, false, false, r);
    auto tWr = static_cast<Tick>(wr.cfg.dram.tWrNs * ticksPerNs);
    EXPECT_EQ(afterW - afterR, tWr);
}

TEST(DdrBackend, RefreshClosesRowBuffer)
{
    DdrFixture f(PagePolicy::Open, true);
    auto tRefi = static_cast<Tick>(f.cfg.dram.tRefiNs * ticksPerNs);
    f.dram->access(0, 64, false, false, 0);
    // Well past bank 0's staggered refresh deadline: the refresh must
    // close the row, so the revisit misses again.
    f.dram->access(0, 64, false, false, 2 * tRefi);
    EXPECT_GT(f.dram->refreshes(), 0u);
    EXPECT_EQ(f.dram->rowMisses(), 2u);
}

TEST(DdrBackend, DifferentBanksDoNotConflict)
{
    DdrFixture f;
    Tick a = f.dram->access(bankAddr(f.cfg, 0), 64, false, false, 0);
    // Far enough in time that the ACT window cannot couple them.
    Tick b = f.dram->access(bankAddr(f.cfg, 1), 64, false, false,
                            10000000);
    EXPECT_EQ(a, b);
}

TEST(DdrBackend, ResetStateReplaysIdentically)
{
    DdrFixture f;
    std::vector<Tick> first;
    for (std::uint32_t i = 0; i < 64; ++i)
        first.push_back(f.dram->access((i % 16) * 4096ull, 64,
                                       i % 3 == 0, false, i * 500));
    f.dram->resetState();
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(f.dram->access((i % 16) * 4096ull, 64, i % 3 == 0,
                                 false, i * 500),
                  first[i])
            << "op " << i;
}

namespace
{

/**
 * Book one access on bank 0 at tick 0, then let the bank idle while
 * @p discarded (but not @p kept) retires its meter pages below a fence
 * 10 ms later. The next access's lazy refresh catch-up backdates to
 * the bank's first refresh deadline, just after tick 0; the refresh
 * floor must keep that page, so both backends return the same tick.
 */
void
expectDiscardKeepsLaggingRefresh(MemBackend &discarded, MemBackend &kept)
{
    const Tick fence = 10000 * 1000 * ticksPerNs;
    EXPECT_EQ(discarded.access(0, 64, false, false, 0),
              kept.access(0, 64, false, false, 0));
    discarded.discardBefore(fence);
    EXPECT_EQ(discarded.access(0, 64, false, false, fence),
              kept.access(0, 64, false, false, fence));
}

} // namespace

TEST(Dram, DiscardKeepsLaggingRefreshReachable)
{
    DramFixture discarded, kept;
    ASSERT_TRUE(discarded.cfg.dram.refreshEnabled);
    expectDiscardKeepsLaggingRefresh(discarded.dram, kept.dram);
}

TEST(DdrBackend, DiscardKeepsLaggingRefreshReachable)
{
    DdrFixture discarded(PagePolicy::Open, true);
    DdrFixture kept(PagePolicy::Open, true);
    expectDiscardKeepsLaggingRefresh(*discarded.dram, *kept.dram);
    EXPECT_GT(discarded.dram->refreshes(), 0u);
}

TEST(DdrBackend, FactorySelectsBackendKind)
{
    SystemConfig cfg;
    cfg.validate();
    EnergyAccount energy(cfg);
    auto meter = makeMemBackend(cfg, energy);
    EXPECT_NE(dynamic_cast<MeterBackend *>(meter.get()), nullptr);
    cfg.dram.backend = MemBackendKind::Ddr;
    auto ddr = makeMemBackend(cfg, energy);
    EXPECT_NE(dynamic_cast<DdrBackend *>(ddr.get()), nullptr);
}

} // namespace abndp
