/** @file Tests for the bucketed bandwidth meter. */

#include <gtest/gtest.h>

#include "sim/bandwidth_meter.hh"

namespace abndp
{

TEST(BandwidthMeter, UncontendedStartsImmediately)
{
    BandwidthMeter m(1000);
    EXPECT_EQ(m.reserve(500, 100), 500u);
    EXPECT_EQ(m.reserve(5000, 100), 5000u);
}

TEST(BandwidthMeter, ZeroServiceIsFree)
{
    BandwidthMeter m(1000);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.reserve(10, 0), 10u);
}

TEST(BandwidthMeter, FullBucketSpillsToNext)
{
    BandwidthMeter m(1000);
    // Fill bucket [0, 1000) completely.
    EXPECT_EQ(m.reserve(0, 1000), 0u);
    // The next reservation at t=0 must start in the next bucket.
    Tick start = m.reserve(0, 100);
    EXPECT_GE(start, 1000u);
}

TEST(BandwidthMeter, CapacityIsNeverOverbooked)
{
    const Tick width = 256;
    BandwidthMeter m(width);
    // Issue many reservations at the same instant; aggregate service per
    // bucket can never exceed the bucket width, so the k-th reservation
    // must start no earlier than k * service / (width/service) buckets.
    const Tick service = 64;
    Tick lastStart = 0;
    for (int i = 0; i < 64; ++i)
        lastStart = std::max(lastStart, m.reserve(0, service));
    // 64 x 64 = 4096 ticks of service over 256-tick buckets: at least
    // 16 buckets are needed, so the last start is >= 15 * 256.
    EXPECT_GE(lastStart, 15 * width);
}

TEST(BandwidthMeter, BackfillDoesNotBlockEarlierTraffic)
{
    BandwidthMeter m(1000);
    // A reservation far in the future must not delay earlier requests —
    // the failure mode of the naive next-free-time model.
    m.reserve(1000000, 500);
    EXPECT_EQ(m.reserve(0, 100), 0u);
    EXPECT_EQ(m.reserve(2000, 100), 2000u);
}

TEST(BandwidthMeter, ResetClearsReservations)
{
    BandwidthMeter m(1000);
    m.reserve(0, 1000);
    m.reset();
    EXPECT_EQ(m.reserve(0, 1000), 0u);
}

TEST(BandwidthMeter, LargeServiceSpansBuckets)
{
    BandwidthMeter m(100);
    EXPECT_EQ(m.reserve(0, 250), 0u); // fills buckets 0,1 and half of 2
    // The next request must queue behind all of it.
    Tick next = m.reserve(0, 100);
    EXPECT_GE(next, 250u);
}

TEST(BandwidthMeter, BurstDelayGrowsWithBurstSize)
{
    BandwidthMeter light(1000), heavy(1000);
    Tick lightDelay = 0, heavyDelay = 0;
    // Bursts arriving at the same instant: the larger burst must spill
    // into later buckets and accumulate more queueing delay.
    for (int i = 0; i < 8; ++i)
        lightDelay += light.reserve(0, 200);
    for (int i = 0; i < 40; ++i)
        heavyDelay += heavy.reserve(0, 200);
    EXPECT_LT(lightDelay / 8, heavyDelay / 40);
}

TEST(BandwidthMeter, WidestBucketHoldsAFullFill)
{
    // The widest bucket a 31-bit word holds: once full, its word is
    // flagged with a skip target and must still decode to the width.
    const Tick width = BandwidthMeter::widthLimit - 1;
    BandwidthMeter m(width);
    EXPECT_EQ(m.reserve(0, width), 0u);
    EXPECT_EQ(m.reserve(0, 1), width);
    EXPECT_EQ(m.reserve(0, 1), width + 1);
    EXPECT_EQ(m.maxBucketFill(), width);
    EXPECT_EQ(m.bucketsInUse(), 2u);
}

TEST(BandwidthMeter, PageHoldingTheFenceMayStillBeCreated)
{
    // Bucket 1500 lies in the second 1,024-bucket page. Discarding
    // below it retires only the first page, so the guard must let the
    // second page be created, even by a start below the fence.
    BandwidthMeter m(100);
    EXPECT_EQ(m.reserve(0, 100), 0u);
    m.discardBefore(1500 * 100);
    EXPECT_EQ(m.reserve(1024 * 100, 100), 1024u * 100);
    EXPECT_EQ(m.maxBucketFill(), 100u);
    EXPECT_EQ(m.bucketsInUse(), 2u);
}

TEST(BandwidthMeter, ResetClearsTheRetirementFloor)
{
    // Independent runs restart at tick 0 after a reset(); the floor a
    // discard left behind must not outlive the reservations it fenced.
    BandwidthMeter m(100);
    EXPECT_EQ(m.reserve(0, 100), 0u);
    m.discardBefore(3 * 1024 * 100);
    m.reset();
    EXPECT_EQ(m.reserve(0, 100), 0u);
    EXPECT_EQ(m.reserve(0, 100), 100u);
    EXPECT_EQ(m.bucketsInUse(), 2u);
}

TEST(BandwidthMeterDeath, ReservingInARetiredPageAborts)
{
    // A start below a discardBefore() tick would read the retired
    // buckets as empty and silently change timing; the meter panics.
    EXPECT_DEATH(
        {
            BandwidthMeter m(100);
            m.reserve(0, 100);
            m.discardBefore(3 * 1024 * 100);
            m.reserve(0, 100);
        },
        "below the retirement floor");
}

TEST(BandwidthMeter, StartsBelowTheSelfRetiredBacklogAreClamped)
{
    // The congestion cursor's self-retire raises the same floor, but
    // reserve() clamps every start up to the cursor, so a start below
    // it never reaches the guard.
    BandwidthMeter m(100);
    m.reserve(0, 2 * 1024 * 100 + 50);
    EXPECT_EQ(m.reserve(0, 10), 2u * 1024 * 100 + 50);
    EXPECT_EQ(m.reserve(0, 10), 2u * 1024 * 100 + 60);
}

TEST(BandwidthMeterDeath, WidthOf2To31Aborts)
{
    EXPECT_DEATH(BandwidthMeter{BandwidthMeter::widthLimit},
                 "does not fit a 31-bit bucket word");
}

} // namespace abndp
