/**
 * @file
 * Slow, obviously-correct reference models of the optimized core data
 * structures (the second leg of the correctness harness; see
 * docs/TESTING.md). Each Ref* class re-implements the *contract* of
 * its production counterpart with the most transparent data layout
 * available — vectors of vectors instead of flat arrays, a std::map
 * instead of paged buckets, linear scans instead of open addressing,
 * eager clears instead of generation stamps — so that a divergence
 * under the seeded operation generators (tests/test_differential.cc)
 * indicts the optimization, not the oracle.
 *
 * Where the production structure consumes randomness (replacement
 * victims, insertion bypass), the reference draws from its own Rng
 * seeded identically and in the same order, so both sides see the same
 * stream and outputs must match bit-exactly.
 */

#ifndef ABNDP_CHECK_REF_MODELS_HH
#define ABNDP_CHECK_REF_MODELS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sched/lb/data_hotness.hh"
#include "workloads/graph_gen.hh"

namespace abndp
{
namespace check
{

/** Reference set-associative cache: vector-of-vectors, no mask trick. */
class RefSetAssocCache
{
  public:
    RefSetAssocCache(std::uint64_t numSets, std::uint32_t assoc,
                     ReplPolicy repl, std::uint64_t seed = Rng::defaultSeed,
                     bool hashedIndex = true)
        : assoc(assoc), repl(repl), hashed(hashedIndex), rng(seed),
          sets(numSets)
    {
        for (auto &set : sets)
            set.assign(assoc, Way{invalidAddr, 0});
    }

    bool
    access(Addr blockAddr)
    {
        Way *way = find(blockAddr);
        if (way) {
            if (repl == ReplPolicy::Lru)
                way->stamp = ++tick;
            ++nHits;
            return true;
        }
        ++nMisses;
        return false;
    }

    bool contains(Addr blockAddr) const
    {
        return const_cast<RefSetAssocCache *>(this)->find(blockAddr)
            != nullptr;
    }

    Addr
    insert(Addr blockAddr)
    {
        if (Way *way = find(blockAddr)) {
            if (repl == ReplPolicy::Lru)
                way->stamp = ++tick;
            return invalidAddr;
        }
        auto &set = sets[setIndex(blockAddr)];
        // Prefer an invalid way; otherwise ask the policy for a victim.
        std::uint32_t victim = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (set[w].block == invalidAddr) {
                victim = w;
                break;
            }
        }
        if (victim == assoc) {
            if (repl == ReplPolicy::Random) {
                victim = static_cast<std::uint32_t>(rng.below(assoc));
            } else {
                victim = 0;
                for (std::uint32_t w = 1; w < assoc; ++w)
                    if (set[w].stamp < set[victim].stamp)
                        victim = w;
            }
        }
        Addr evicted = set[victim].block;
        if (evicted != invalidAddr)
            ++nEvicts;
        set[victim] = Way{blockAddr, ++tick};
        ++nInserts;
        return evicted;
    }

    bool
    invalidate(Addr blockAddr)
    {
        if (Way *way = find(blockAddr)) {
            way->block = invalidAddr;
            return true;
        }
        return false;
    }

    void
    invalidateAll()
    {
        for (auto &set : sets)
            for (Way &way : set)
                way.block = invalidAddr;
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t insertions() const { return nInserts; }
    std::uint64_t evictions() const { return nEvicts; }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const auto &set : sets)
            for (const Way &way : set)
                n += way.block != invalidAddr ? 1 : 0;
        return n;
    }

  private:
    struct Way
    {
        Addr block;
        std::uint64_t stamp;
    };

    std::size_t
    setIndex(Addr blockAddr) const
    {
        std::uint64_t block = blockNumber(blockAddr);
        std::uint64_t h = hashed ? mix64(block) : block;
        return static_cast<std::size_t>(h % sets.size());
    }

    Way *
    find(Addr blockAddr)
    {
        for (Way &way : sets[setIndex(blockAddr)])
            if (way.block == blockAddr)
                return &way;
        return nullptr;
    }

    std::uint32_t assoc;
    ReplPolicy repl;
    bool hashed;
    Rng rng;
    std::uint64_t tick = 0;
    std::vector<std::vector<Way>> sets;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nInserts = 0;
    std::uint64_t nEvicts = 0;
};

/**
 * Reference Traveller Cache: eager bulk invalidation (clear every set)
 * instead of generation stamps; same probabilistic-insertion contract
 * and Rng stream as the production cache (bypass draw first, victim
 * draw only on a full set under Random replacement).
 */
class RefTravellerCache
{
  public:
    /** @param seed the *raw* system seed, mixed exactly like the real
     *  cache so both sides share one stream. */
    RefTravellerCache(std::uint64_t nSets, std::uint32_t assoc,
                      ReplPolicy repl, double bypassProb,
                      std::uint64_t seed)
        : assoc(assoc), repl(repl), bypassProb(bypassProb),
          rng(mix64(seed ^ 0x7261764c6c657243ULL)), sets(nSets)
    {
    }

    bool
    lookup(Addr blockAddr)
    {
        for (Way &way : sets[setOf(blockAddr)]) {
            if (way.block == blockAddr) {
                if (repl == ReplPolicy::Lru)
                    way.stamp = ++tick;
                ++nHits;
                return true;
            }
        }
        ++nMisses;
        return false;
    }

    bool
    contains(Addr blockAddr) const
    {
        for (const Way &way : sets[setOf(blockAddr)])
            if (way.block == blockAddr)
                return true;
        return false;
    }

    bool
    maybeInsert(Addr blockAddr)
    {
        if (rng.chance(bypassProb)) {
            ++nBypasses;
            return false;
        }
        auto &set = sets[setOf(blockAddr)];
        for (Way &way : set) {
            if (way.block == blockAddr) {
                if (repl == ReplPolicy::Lru)
                    way.stamp = ++tick;
                return true; // raced insert of an already-present block
            }
        }
        if (set.size() < assoc) {
            set.push_back(Way{blockAddr, ++tick});
        } else {
            std::uint32_t victim = 0;
            if (repl == ReplPolicy::Random) {
                victim = static_cast<std::uint32_t>(rng.below(assoc));
            } else {
                for (std::uint32_t w = 1; w < assoc; ++w)
                    if (set[w].stamp < set[victim].stamp)
                        victim = w;
            }
            set[victim] = Way{blockAddr, ++tick};
            ++nEvicts;
        }
        ++nInserts;
        return true;
    }

    void
    bulkInvalidate()
    {
        for (auto &set : sets)
            set.clear();
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t insertions() const { return nInserts; }
    std::uint64_t evictions() const { return nEvicts; }
    std::uint64_t bypasses() const { return nBypasses; }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const auto &set : sets)
            n += set.size();
        return n;
    }

  private:
    struct Way
    {
        Addr block;
        std::uint64_t stamp;
    };

    /** Low-bit index, like the real Traveller (DESIGN.md). */
    std::size_t
    setOf(Addr blockAddr) const
    {
        return static_cast<std::size_t>(blockNumber(blockAddr)
                                        % sets.size());
    }

    std::uint32_t assoc;
    ReplPolicy repl;
    double bypassProb;
    Rng rng;
    std::uint64_t tick = 0;
    std::vector<std::vector<Way>> sets;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nInserts = 0;
    std::uint64_t nEvicts = 0;
    std::uint64_t nBypasses = 0;
};

/**
 * Reference bandwidth meter: one std::map entry per touched bucket
 * instead of paged flat storage with a last-page cache.
 */
class RefBandwidthMeter
{
  public:
    explicit RefBandwidthMeter(Tick bucketTicks = 256 * ticksPerNs)
        : width(bucketTicks)
    {
        abndp_assert(width > 0);
    }

    Tick
    reserve(Tick t, Tick service)
    {
        if (service == 0)
            return t;
        std::uint64_t b = t / width;
        while (fill[b] >= width)
            ++b;
        Tick begin = b * width + fill[b];
        if (begin < t)
            begin = t;
        Tick remaining = service;
        while (remaining > 0) {
            Tick free = width - fill[b];
            Tick take = remaining < free ? remaining : free;
            fill[b] += take;
            remaining -= take;
            ++b;
        }
        return begin;
    }

    void reset() { fill.clear(); }

    std::size_t
    bucketsInUse() const
    {
        std::size_t n = 0;
        for (const auto &[b, f] : fill)
            n += f > 0 ? 1 : 0;
        return n;
    }

    Tick bucketWidth() const { return width; }

    Tick
    maxBucketFill() const
    {
        Tick mx = 0;
        for (const auto &[b, f] : fill)
            mx = f > mx ? f : mx;
        return mx;
    }

  private:
    Tick width;
    std::map<std::uint64_t, Tick> fill;
};

/**
 * Reference DDR backend: re-implements DdrBackend's bank-state timing
 * (src/mem/ddr_backend.hh) with the most transparent machinery
 * available — plain %/ / address decode instead of Pow2Split,
 * RefBandwidthMeter (std::map buckets) for both the per-bank meters
 * and the channel ACT-window meter, and straight-line state updates.
 * Fault injection is out of scope (drive the production side with
 * faults == nullptr); everything else — refresh catch-up, page
 * policies, tRAS/tWR recovery with the out-of-order cap, and the
 * quarter-window tFAW accounting — must match latency-for-latency.
 */
class RefDdrBackend
{
  public:
    explicit RefDdrBackend(const SystemConfig &cfg)
        : dram(cfg.dram), bytesPerUnit(cfg.memBytesPerUnit),
          tCas(static_cast<Tick>(dram.tCasNs * ticksPerNs)),
          tRcd(static_cast<Tick>(dram.tRcdNs * ticksPerNs)),
          tRp(static_cast<Tick>(dram.tRpNs * ticksPerNs)),
          tRas(static_cast<Tick>(dram.tRasNs * ticksPerNs)),
          tWr(static_cast<Tick>(dram.tWrNs * ticksPerNs)),
          tRefi(static_cast<Tick>(dram.tRefiNs * ticksPerNs)),
          tRfc(static_cast<Tick>(dram.tRfcNs * ticksPerNs)),
          ticksPerByte(8.0 * 1000.0
                       / (dram.busBits * 2.0 * dram.busGHz)),
          actQuarter(
              (static_cast<Tick>(dram.tFawNs * ticksPerNs) + 3) / 4),
          actMeter(std::max<Tick>(4 * actQuarter, 1)),
          banks(dram.banks)
    {
        for (std::size_t b = 0; b < banks.size(); ++b)
            banks[b].nextRefresh = tRefi * (b + 1) / banks.size();
    }

    Tick
    access(Addr addr, std::uint32_t bytes, bool isWrite, Tick start)
    {
        auto [row, bankIdx] = decode(addr);
        Bank &bank = banks[bankIdx];

        if (dram.refreshEnabled && bank.nextRefresh <= start) {
            std::uint32_t catchup = 0;
            while (bank.nextRefresh <= start
                   && catchup < dram.refreshCatchupMax) {
                bank.meter.reserve(bank.nextRefresh, tRfc);
                bank.nextRefresh += tRefi;
                ++nRefreshes;
                ++catchup;
            }
            if (bank.nextRefresh <= start)
                bank.nextRefresh = start + tRefi;
            bank.rowOpen = false;
            bank.openRow = ~0ull;
        }

        Tick core;
        Tick extra = 0;
        std::uint32_t keepScore;
        bool row_miss = !(bank.rowOpen && bank.openRow == row);
        if (row_miss) {
            ++nRowMisses;
            Tick pre;
            Tick recovery;
            keepScore = bank.openScore; // pre-miss score decides
            if (bank.rowOpen) {
                pre = tRp;
                Tick r1 = bank.lastActAt + tRas;
                Tick r2 = bank.writeEnd + tWr;
                recovery = std::max(r1 > start ? r1 - start : 0,
                                    r2 > start ? r2 - start : 0);
                if (bank.openScore > 0)
                    --bank.openScore;
            } else {
                pre = 0;
                recovery = bank.bankReadyAt > start
                    ? bank.bankReadyAt - start : 0;
                if (row == bank.lastClosedRow) {
                    if (bank.openScore < 3)
                        ++bank.openScore; // wasted close: credit
                } else if (bank.openScore > 0) {
                    --bank.openScore;
                }
            }
            recovery = std::min(recovery, tRas + tWr + tRp);

            Tick actReady = start + recovery + pre;
            Tick actAt = actReady;
            if (actQuarter > 0)
                actAt = actMeter.reserve(actReady, actQuarter);
            if (actAt > actReady)
                ++nActStalls;
            extra = recovery + (actAt - actReady);
            bank.lastActAt = std::max(bank.lastActAt, actAt);
            bank.openRow = row;
            bank.rowOpen = true;
            core = pre + tRcd + tCas;
        } else {
            core = tCas;
            if (bank.openScore < 3)
                ++bank.openScore; // post-hit score decides
            keepScore = bank.openScore;
        }

        auto burst = static_cast<Tick>(ticksPerByte * bytes);
        Tick begin = bank.meter.reserve(start, core + burst);
        Tick queue = begin - start;
        Tick end = begin + core + burst + extra;

        if (isWrite) {
            ++nWrites;
            bank.writeEnd = std::max(bank.writeEnd, end);
        } else {
            ++nReads;
        }

        bool leave_open = dram.pagePolicy == PagePolicy::Open
            || (dram.pagePolicy == PagePolicy::Adaptive
                && keepScore >= 2);
        if (!leave_open) {
            bank.lastClosedRow = bank.openRow;
            bank.rowOpen = false;
            bank.openRow = ~0ull;
            bank.bankReadyAt = std::max(
                bank.bankReadyAt, end + (isWrite ? tWr : 0) + tRp);
        }
        return queue + core + burst + extra;
    }

    std::uint64_t reads() const { return nReads; }
    std::uint64_t writes() const { return nWrites; }
    std::uint64_t rowMisses() const { return nRowMisses; }
    std::uint64_t refreshes() const { return nRefreshes; }
    std::uint64_t actStalls() const { return nActStalls; }

    std::uint64_t
    rowHits() const
    {
        return nReads + nWrites - nRowMisses;
    }

    /** Largest ACT-window bucket fill (tFAW audit cross-check). */
    Tick actWindowPeak() const { return actMeter.maxBucketFill(); }
    Tick actWindowWidth() const { return actMeter.bucketWidth(); }

  private:
    struct Bank
    {
        RefBandwidthMeter meter;
        std::uint64_t openRow = ~0ull;
        bool rowOpen = false;
        Tick nextRefresh = 0;
        Tick lastActAt = 0;
        Tick writeEnd = 0;
        Tick bankReadyAt = 0;
        std::uint32_t openScore = 2;
        std::uint64_t lastClosedRow = ~0ull;
    };

    /** Naive {row, bank} decode; mirrors DramAddrMap::decode. */
    std::pair<std::uint64_t, std::uint32_t>
    decode(Addr addr) const
    {
        std::uint64_t row;
        std::uint64_t bank;
        switch (dram.addrMap) {
          case DramAddrMapKind::RowColumnBank: {
            std::uint64_t x = addr / dram.burstBytes;
            bank = x % dram.banks;
            row = (x / dram.banks)
                / (dram.rowBytes / dram.burstBytes);
            break;
          }
          case DramAddrMapKind::BankRowColumn: {
            std::uint64_t off = addr % bytesPerUnit;
            std::uint64_t slice = bytesPerUnit / dram.banks;
            bank = off / slice;
            row = (off % slice) / dram.rowBytes;
            break;
          }
          case DramAddrMapKind::RowBankColumn:
          default: {
            std::uint64_t x = addr / dram.rowBytes;
            bank = x % dram.banks;
            row = x / dram.banks;
            break;
          }
        }
        return {row, static_cast<std::uint32_t>(bank)};
    }

    DramConfig dram;
    std::uint64_t bytesPerUnit;
    Tick tCas;
    Tick tRcd;
    Tick tRp;
    Tick tRas;
    Tick tWr;
    Tick tRefi;
    Tick tRfc;
    double ticksPerByte;
    Tick actQuarter;
    RefBandwidthMeter actMeter;
    std::vector<Bank> banks;
    std::uint64_t nReads = 0;
    std::uint64_t nWrites = 0;
    std::uint64_t nRowMisses = 0;
    std::uint64_t nRefreshes = 0;
    std::uint64_t nActStalls = 0;
};

/**
 * Reference prefetch buffer: a plain deque scanned linearly instead of
 * a ring plus an open-addressed index with backward-shift deletion.
 */
class RefPrefetchBuffer
{
  public:
    explicit RefPrefetchBuffer(std::uint64_t capacityBlocks)
        : capacity(capacityBlocks)
    {
        abndp_assert(capacity > 0);
    }

    void
    fill(Addr blockAddr, Tick readyTick)
    {
        for (Entry &e : fifo) {
            if (e.block == blockAddr) {
                if (readyTick < e.ready)
                    e.ready = readyTick;
                return;
            }
        }
        if (fifo.size() == capacity) {
            fifo.pop_front();
            ++nEvicts;
        }
        fifo.push_back(Entry{blockAddr, readyTick});
        ++nFills;
    }

    bool
    peek(Addr blockAddr) const
    {
        for (const Entry &e : fifo)
            if (e.block == blockAddr)
                return true;
        return false;
    }

    Tick
    lookup(Addr blockAddr, Tick now)
    {
        for (const Entry &e : fifo) {
            if (e.block == blockAddr) {
                if (e.ready <= now)
                    ++nHits;
                else
                    ++nLateHits;
                return e.ready;
            }
        }
        ++nMisses;
        return tickNever;
    }

    void invalidateAll() { fifo.clear(); }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t lateHits() const { return nLateHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t fills() const { return nFills; }
    std::uint64_t evictions() const { return nEvicts; }
    std::size_t size() const { return fifo.size(); }

  private:
    struct Entry
    {
        Addr block;
        Tick ready;
    };

    std::uint64_t capacity;
    std::deque<Entry> fifo;
    std::uint64_t nHits = 0;
    std::uint64_t nLateHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nFills = 0;
    std::uint64_t nEvicts = 0;
};

/**
 * Reference event queue: an unsorted vector searched for the earliest
 * (tick, seq) pair at every step, with std::function callbacks — no
 * binary heap, no inline-slot arena. Mirrors the EventQueue contract:
 * ties broken by insertion order, no scheduling into the past,
 * clearPending() drops events but keeps the clock.
 */
class RefEventQueue
{
  public:
    Tick now() const { return curTick; }
    std::size_t size() const { return events.size(); }
    bool empty() const { return events.empty(); }
    std::uint64_t executed() const { return numExecuted; }

    void
    schedule(Tick when, std::function<void()> cb)
    {
        abndp_assert(when >= curTick, "scheduling into the past: ", when,
                     " < ", curTick);
        events.push_back(Event{when, nextSeq++, std::move(cb)});
    }

    void
    scheduleIn(Tick delta, std::function<void()> cb)
    {
        schedule(curTick + delta, std::move(cb));
    }

    bool
    runOne()
    {
        if (events.empty())
            return false;
        std::size_t best = 0;
        for (std::size_t i = 1; i < events.size(); ++i) {
            if (events[i].when < events[best].when
                || (events[i].when == events[best].when
                    && events[i].seq < events[best].seq))
                best = i;
        }
        Event ev = std::move(events[best]);
        events.erase(events.begin()
                     + static_cast<std::ptrdiff_t>(best));
        curTick = ev.when;
        ++numExecuted;
        ev.cb();
        return true;
    }

    void
    runUntil(Tick limit)
    {
        while (!events.empty()) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < events.size(); ++i)
                if (events[i].when < events[best].when
                    || (events[i].when == events[best].when
                        && events[i].seq < events[best].seq))
                    best = i;
            if (events[best].when > limit)
                break;
            runOne();
        }
        if (curTick < limit)
            curTick = limit;
    }

    void clearPending() { events.clear(); }

    void
    reset()
    {
        events.clear();
        curTick = 0;
        nextSeq = 0;
        numExecuted = 0;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> cb;
    };

    std::vector<Event> events;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

/**
 * Reference latency accumulator: quantiles from a full std::sort over
 * the stored samples instead of nth_element on a scratch copy. Same
 * nearest-rank contract as serve::LatencyRecorder — sorted[ceil(q*n)]
 * (1-based) — so percentiles must match bit-exactly over any stream.
 */
class RefLatencyRecorder
{
  public:
    explicit RefLatencyRecorder(Tick sloTicks = 0) : slo(sloTicks) {}

    void
    record(Tick latency)
    {
        lat.push_back(latency);
        sum += latency;
        if (slo > 0 && latency > slo)
            ++nSloMisses;
    }

    std::uint64_t samples() const { return lat.size(); }
    std::uint64_t sloMisses() const { return nSloMisses; }

    double
    meanTicks() const
    {
        return lat.empty() ? 0.0
            : static_cast<double>(sum) / static_cast<double>(lat.size());
    }

    Tick
    percentile(double q) const
    {
        abndp_assert(q > 0.0 && q <= 1.0);
        if (lat.empty())
            return 0;
        std::vector<Tick> sorted = lat;
        std::sort(sorted.begin(), sorted.end());
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(sorted.size())));
        rank = std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(rank, sorted.size()));
        return sorted[rank - 1];
    }

  private:
    std::vector<Tick> lat;
    Tick slo;
    std::uint64_t nSloMisses = 0;
    std::uint64_t sum = 0;
};

/**
 * Reference Zipfian sampler: the same sequentially-accumulated CDF
 * table as serve::ZipfianSampler (bit-identical construction order),
 * inverted by a linear scan instead of binary search. Identical
 * uniform draws must yield identical keys, bit for bit.
 */
class RefZipfSampler
{
  public:
    RefZipfSampler(std::uint64_t n, double s)
    {
        abndp_assert(n > 0);
        cdf.resize(n);
        double total = 0.0;
        for (std::uint64_t k = 0; k < n; ++k) {
            total += std::pow(static_cast<double>(k + 1), -s);
            cdf[k] = total;
        }
        for (std::uint64_t k = 0; k < n; ++k)
            cdf[k] /= total;
        cdf[n - 1] = 1.0;
    }

    std::uint64_t
    keyFor(double u) const
    {
        // Linear scan with the same predicate upper_bound uses: the
        // first key whose cumulative probability exceeds u.
        for (std::uint64_t k = 0; k < cdf.size(); ++k)
            if (cdf[k] > u)
                return k;
        return cdf.size() - 1;
    }

    std::uint64_t operator()(Rng &rng) const { return keyFor(rng.uniform()); }

    double
    probabilityOf(std::uint64_t k) const
    {
        abndp_assert(k < cdf.size());
        return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
    }

  private:
    std::vector<double> cdf;
};

/**
 * Reference hot-block tracker: one std::map of live entries per home
 * unit instead of DataHotness's flat slot banks. Exploits the bank
 * invariant that zero-count slots never carry a block, so "live
 * entries, at most K per home" is the whole state; lossy-counting
 * charges the minimum by an explicit full scan with the same
 * (count, block) tie-break, and topK() sorts a copy with std::sort
 * instead of insertion into a running vector.
 */
class RefDataHotness
{
  public:
    RefDataHotness(std::uint32_t num_units, std::uint32_t k,
                   std::uint32_t decay_shift)
        : k(k), decayShift(decay_shift), banks(num_units)
    {
        abndp_assert(k > 0);
    }

    void
    record(UnitId home, Addr block, UnitId requester)
    {
        auto &bank = banks[home];
        auto it = bank.find(block);
        if (it != bank.end()) {
            ++it->second.cnt;
            vote(it->second, requester);
            return;
        }
        if (bank.size() < k) {
            bank.emplace(block, Entry{1, requester, 1});
            return;
        }
        // Lossy counting: charge the miss to the (count, block)-minimal
        // live entry; its slot turns over once it drains to zero.
        auto min_it = bank.begin();
        for (auto e = std::next(bank.begin()); e != bank.end(); ++e) {
            if (e->second.cnt < min_it->second.cnt
                || (e->second.cnt == min_it->second.cnt
                    && e->first < min_it->first))
                min_it = e;
        }
        if (--min_it->second.cnt == 0) {
            bank.erase(min_it);
            bank.emplace(block, Entry{1, requester, 1});
        }
    }

    void
    decayAll()
    {
        for (auto &bank : banks) {
            for (auto it = bank.begin(); it != bank.end();) {
                it->second.cnt >>= decayShift;
                it = it->second.cnt == 0 ? bank.erase(it)
                                         : std::next(it);
            }
        }
    }

    std::vector<HotEntry>
    topK(UnitId home) const
    {
        std::vector<HotEntry> out;
        for (const auto &[block, e] : banks[home])
            out.push_back(HotEntry{block, e.cnt, e.reqId, e.reqCnt});
        std::sort(out.begin(), out.end(),
                  [](const HotEntry &a, const HotEntry &b) {
                      return a.cnt != b.cnt ? a.cnt > b.cnt
                                            : a.block < b.block;
                  });
        return out;
    }

    std::uint64_t
    totalCount(UnitId home) const
    {
        std::uint64_t sum = 0;
        for (const auto &[block, e] : banks[home])
            sum += e.cnt;
        return sum;
    }

    void erase(UnitId home, Addr block) { banks[home].erase(block); }

  private:
    struct Entry
    {
        std::uint64_t cnt;
        UnitId reqId;
        std::uint64_t reqCnt;
    };

    static void
    vote(Entry &e, UnitId requester)
    {
        if (e.reqCnt == 0) {
            e.reqId = requester;
            e.reqCnt = 1;
        } else if (e.reqId == requester) {
            ++e.reqCnt;
        } else {
            --e.reqCnt;
        }
    }

    std::uint32_t k;
    std::uint32_t decayShift;
    std::vector<std::map<Addr, Entry>> banks;
};

/**
 * Reference re-homing overlay: an ordered std::map instead of the
 * production unordered_map — same point-query contract, so every
 * resolve()/set()/entries() answer must match exactly.
 */
class RefHomeIndirection
{
  public:
    bool active() const { return !map.empty(); }

    UnitId
    resolve(Addr block, UnitId base_home) const
    {
        auto it = map.find(block);
        return it == map.end() ? base_home : it->second;
    }

    void
    set(Addr block, UnitId home, UnitId base_home)
    {
        if (home == base_home)
            map.erase(block);
        else
            map[block] = home;
    }

    std::size_t entries() const { return map.size(); }

    void clear() { map.clear(); }

  private:
    std::map<Addr, UnitId> map;
};

/** A CSR as two plain vectors: what the reference graph builders return. */
struct RefCsr
{
    std::vector<std::uint64_t> rowPtr;
    std::vector<std::uint32_t> colIdx;
};

/**
 * Reference CSR builder: the same contract as Graph::fromEdges, built
 * the obvious way. Append the reversed copy when undirected, drop
 * self-loops, one global std::sort + std::unique of the (src, dst)
 * pairs, then bucket by source. Out-of-range endpoints are checked
 * after the self-loops are gone, so out-of-range self-loops vanish.
 */
inline RefCsr
refCsrFromEdges(std::uint32_t numVertices,
                std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
                bool undirected)
{
    if (undirected) {
        std::size_t n = edges.size();
        edges.reserve(n * 2);
        for (std::size_t i = 0; i < n; ++i)
            edges.emplace_back(edges[i].second, edges[i].first);
    }
    std::erase_if(edges, [](const auto &e) { return e.first == e.second; });
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    RefCsr g;
    g.rowPtr.assign(numVertices + 1, 0);
    for (const auto &[src, dst] : edges) {
        abndp_assert(src < numVertices && dst < numVertices,
                     "edge endpoint out of range");
        ++g.rowPtr[src + 1];
    }
    for (std::uint32_t v = 0; v < numVertices; ++v)
        g.rowPtr[v + 1] += g.rowPtr[v];
    g.colIdx.resize(edges.size());
    std::vector<std::uint64_t> cursor(g.rowPtr.begin(), g.rowPtr.end() - 1);
    for (const auto &[src, dst] : edges)
        g.colIdx[cursor[src]++] = dst;
    return g;
}

/**
 * Reference transpose: list every arc reversed and rebuild through
 * refCsrFromEdges (directed), i.e. with a global sort.
 */
inline RefCsr
refTranspose(const RefCsr &g)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> rev;
    rev.reserve(g.colIdx.size());
    auto n = static_cast<std::uint32_t>(g.rowPtr.size() - 1);
    for (std::uint32_t v = 0; v < n; ++v)
        for (std::uint64_t i = g.rowPtr[v]; i < g.rowPtr[v + 1]; ++i)
            rev.emplace_back(g.colIdx[i], v);
    return refCsrFromEdges(n, std::move(rev), false);
}

/**
 * Reference R-MAT edge stream: one Rng::uniform() per bit, its
 * quadrant picked by an if-chain of double compares against the
 * running sums a, a+b, a+b+c. makeRmatGraph must draw the same edges.
 */
inline std::vector<std::pair<std::uint32_t, std::uint32_t>>
refRmatEdges(const RmatParams &p)
{
    std::uint32_t n = 1u << p.scale;
    std::uint64_t m = static_cast<std::uint64_t>(n) * p.edgeFactor;
    Rng rng(p.seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(m);
    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (std::uint32_t bit = 0; bit < p.scale; ++bit) {
            double r = rng.uniform();
            std::uint32_t quad;
            if (r < p.a)
                quad = 0;
            else if (r < p.a + p.b)
                quad = 1;
            else if (r < p.a + p.b + p.c)
                quad = 2;
            else
                quad = 3;
            src = (src << 1) | (quad >> 1);
            dst = (dst << 1) | (quad & 1);
        }
        edges.emplace_back(src, dst);
    }
    return edges;
}

} // namespace check
} // namespace abndp

#endif // ABNDP_CHECK_REF_MODELS_HH
