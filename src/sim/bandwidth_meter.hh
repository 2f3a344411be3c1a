/**
 * @file
 * Bucketed bandwidth accounting for contended resources (DRAM banks,
 * crossbar ports, mesh links).
 *
 * A naive per-resource next-free-time is unstable under the simulator's
 * task-granularity timing (reservations arrive out of time order): one
 * reservation far in the future blocks every later-processed request with
 * an earlier start time, and the backlog feeds on itself. The meter
 * instead divides time into fixed buckets of service capacity and lets
 * requests backfill the earliest bucket with room, which converges to the
 * same steady-state queueing delay as a FIFO server without the runaway.
 *
 * reserve() is the single hottest call in the simulator (every DRAM
 * access and every mesh hop reserves a bucket), so buckets live in flat
 * fixed-size pages found through a last-page cache — no hashing and no
 * per-reservation allocation — while time-sparse use (a bank idle for a
 * simulated hour) still costs one page, not a dense array. A page is
 * one 4 KB row of 32-bit bucket words: a word is either a fill level or,
 * on a full bucket, a skip pointer over the full run that follows it.
 */

#ifndef ABNDP_SIM_BANDWIDTH_METER_HH
#define ABNDP_SIM_BANDWIDTH_METER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace abndp
{

/** Earliest-fit bucketed reservation of a serially shared resource. */
class BandwidthMeter
{
  public:
    /**
     * @param bucketTicks bucket width; must be >= the largest single
     *        service time reserved on this resource, and below
     *        widthLimit
     */
    explicit BandwidthMeter(Tick bucketTicks = 256 * ticksPerNs)
        : width(bucketTicks)
    {
        abndp_assert(width > 0);
        abndp_assert(width < widthLimit, "bucket width ", width,
                     " ticks does not fit a 31-bit bucket word");
    }

    /** Bucket widths must stay below this: a fill level shares its
     *  32-bit bucket word with the full flag. */
    static constexpr Tick widthLimit = Tick{1} << 31;

    /**
     * Reserve @p service ticks of the resource at or after @p t; large
     * services span consecutive buckets.
     * @return the tick at which service begins (>= @p t).
     */
    Tick
    reserve(Tick t, Tick service)
    {
        if (service == 0)
            return t;

        // Resolve t's bucket number without the 64-bit division when t
        // falls in the same bucket as the previous reservation — on a
        // hot meter nearly every time.
        std::uint64_t b;
        if (t >= lastBucketStart && t - lastBucketStart < width) {
            b = lastBucket;
        } else {
            b = t / width;
            lastBucket = b;
            lastBucketStart = b * width;
        }

        // Congestion cursor: fills only grow between resets, so every
        // bucket below minFreeBucket is known full and the skip loop
        // would walk straight across it — jump over the whole run. On
        // a saturated meter this turns the O(backlog) scan per
        // reservation into O(1).
        if (b < minFreeBucket)
            b = minFreeBucket;

        // Fast path covering almost every reservation: the bucket lives
        // in the most recently touched page and has room for the whole
        // service, so the skip loop would stop right here and the pour
        // loop would drain in one take. A flagged (full) word is at
        // least 2^31 > width, so it fails the room test on its own.
        const std::uint64_t first = b & ~(pageBuckets - 1);
        if (lastIdx < pages.size() && pages[lastIdx].first == first) {
            Word &used = pages[lastIdx].words[b - first];
            if (used + service <= width) {
                if (used == 0)
                    ++nTouched;
                Tick begin = b * width + used;
                used += static_cast<Word>(service);
                return begin < t ? t : begin;
            }
        }
        return reserveSlow(t, b, service);
    }

  private:
    /** reserve() continuation past the single-bucket fast path. */
    Tick
    reserveSlow(Tick t, std::uint64_t b, Tick service)
    {
        const std::uint64_t scanStart = b;

        // Skip full buckets, scanning each page's flat word row in
        // place — the page is resolved once per page, not once per
        // bucket. An absent page is all-empty, so the scan stops at
        // its first bucket.
        //
        // Full buckets additionally carry a skip pointer in their word
        // (a flagged word with target j at bucket i means buckets
        // [i, j) are all full). A bucket's fill only grows between
        // resets, so a recorded fact never expires and jumping the run
        // lands exactly where the linear scan would. Entry-point
        // compression plus path halving keep the chains short, so a
        // reservation behind a deep backlog (a hub bank under design
        // B) costs amortized O(1) instead of O(backlog) — without this
        // the scan is quadratic in the backlog length over a congested
        // run.
        // Pages carry a second, cross-page fact: fullUpTo > 0 means
        // every bucket in [page.first, fullUpTo) is full — fullUpTo
        // may point far beyond the page, so a scan entering anywhere
        // under it jumps straight to the proven frontier in one hop.
        // Pages the scan proves full (contiguously from their start)
        // are collected and stamped with the landing bucket, so the
        // frontier fact compresses toward O(1) hops per scan even
        // when the backlog spans hundreds of pages.
        Tick beginFill = 0;
        Page *proven[maxProven];
        std::uint32_t nProven = 0;
        while (true) {
            const std::uint64_t first = b & ~(pageBuckets - 1);
            Page *p = findPageCachedMut(first);
            if (!p)
                break;
            if (p->fullUpTo > b) {
                // [first, fullUpTo) is full and stays so; contiguity
                // with the walk lets the landing extend this fact.
                if (nProven < maxProven)
                    proven[nProven++] = p;
                b = p->fullUpTo;
                continue;
            }
            Word *word = p->words.data();
            std::uint64_t idx = b - first;
            const std::uint64_t entry = idx;
            while (idx < pageBuckets) {
                const Word w = word[idx];
                if (w & fullFlag) {
                    // Path halving: point at the jump target's own
                    // target so the next walker takes one hop fewer.
                    const std::uint64_t nxt = w & ~fullFlag;
                    if (nxt < pageBuckets && (word[nxt] & fullFlag))
                        word[idx] = word[nxt];
                    idx = nxt;
                    continue;
                }
                if (w >= width) {
                    word[idx] = skipTo(idx + 1);
                    ++idx;
                    continue;
                }
                break;
            }
            if (idx > entry)
                word[entry] = skipTo(idx);
            if (idx < pageBuckets) {
                b = first + idx;
                beginFill = word[idx];
                break;
            }
            // The page is full from the entry on; it qualifies for a
            // fullUpTo stamp only when also full from its start
            // (entered at offset 0, or the existing fact covers the
            // prefix), keeping the [first, fullUpTo) meaning exact.
            if ((entry == 0 || p->fullUpTo >= first + entry)
                && nProven < maxProven)
                proven[nProven++] = p;
            b = first + pageBuckets;
        }

        // Stamp before the pour loop: ensurePage() may insert into the
        // pages vector and invalidate the collected pointers.
        for (std::uint32_t i = 0; i < nProven; ++i)
            if (b > proven[i]->fullUpTo)
                proven[i]->fullUpTo = b;

        // Every bucket in [scanStart, b) was full; if the scan began
        // at the known-full prefix's end, the prefix now extends to b.
        // Pages wholly under the advanced cursor self-retire on the
        // spot: reserve() clamps every start bucket up to
        // minFreeBucket, so nothing can ever scan or pour below it —
        // no barrier needed, and a saturated meter keeps O(1) live
        // pages instead of accreting one per ~quarter-millisecond of
        // simulated congestion. (Runs after the proven[] stamps above;
        // retirement invalidates page pointers.)
        if (scanStart <= minFreeBucket && b > minFreeBucket) {
            minFreeBucket = b;
            retirePagesBelow(minFreeBucket);
        }

        // Requests landing mid-bucket start no earlier than t; the
        // bucket's fill level approximates the queue ahead of them.
        Tick begin = b * width + beginFill;
        if (begin < t)
            begin = t;

        // Pour the service into consecutive buckets page by page. A
        // page entered with work remaining gets created exactly as the
        // bucket-at-a-time loop would have: its first bucket is empty,
        // so the first take there is positive.
        Tick remaining = service;
        while (true) {
            const std::uint64_t first = b & ~(pageBuckets - 1);
            Word *word = ensurePage(first).words.data();
            for (std::uint64_t idx = b - first; idx < pageBuckets;
                 ++idx) {
                const Tick used = fillOf(word[idx]);
                const Tick free = width - used;
                const Tick take = remaining < free ? remaining : free;
                if (take > 0 && used == 0)
                    ++nTouched;
                remaining -= take;
                word[idx] = used + take >= width
                    ? skipTo(idx + 1)
                    : static_cast<Word>(used + take);
                if (remaining == 0)
                    return begin;
            }
            b = first + pageBuckets;
        }
    }

  public:
    /**
     * Drop all reservations (e.g., between independent runs); pages
     * are zeroed in place, so the next run allocates nothing.
     */
    void
    reset()
    {
        for (Page &p : pages) {
            std::fill(p.words.begin(), p.words.end(), Word{0});
            p.fullUpTo = 0;
        }
        nTouched = 0;
        minFreeBucket = 0;
        retiredFloor = 0;
        retiredMaxFill = 0;
    }

    /**
     * Retire pages that end strictly before @p t's bucket. Sound only
     * when the caller guarantees every future reserve() on this meter
     * uses a start tick >= @p t: reservations only scan and pour
     * forward from their start bucket, so buckets wholly below it are
     * unreachable and their storage can be reclaimed. Called once per
     * exchange window with the current simulated time (every later
     * event books bandwidth at or after it), this bounds live pages to
     * the backlog ahead of now() instead of the whole simulated
     * timeline. Retired storage is stashed and recycled by
     * ensurePage(), so a steady-state run allocates nothing.
     *
     * The contract is checked: a reservation that would re-create a
     * page wholly below the retirement floor panics (in every build
     * type) instead of silently reading the retired buckets as empty.
     *
     * Observational state is preserved exactly: retired pages' peak
     * fill folds into maxBucketFill() and bucketsInUse() keeps its
     * count, so audits and stats cannot tell a discard happened.
     */
    void
    discardBefore(Tick t)
    {
        retirePagesBelow(t / width);
    }

    /** Buckets holding at least one reservation. */
    std::size_t bucketsInUse() const { return nTouched; }

    // ---- Audit accessors (src/check invariant: fill <= width) ----

    /** Configured bucket width in ticks. */
    Tick bucketWidth() const { return width; }

    /**
     * Largest fill level of any bucket. The reserve() loop caps every
     * bucket at the width by construction; the invariant checkers
     * audit it anyway so a future fast path cannot silently overbook
     * the resource. Walks every page — audit-time only, never on the
     * reservation hot path.
     */
    Tick
    maxBucketFill() const
    {
        Tick mx = retiredMaxFill;
        for (const Page &p : pages)
            for (Word w : p.words)
                mx = std::max(mx, fillOf(w));
        return mx;
    }

  private:
    /** Buckets per page; a power of two. */
    static constexpr std::uint64_t pageBuckets = 1024;
    /** Pages stampable with the frontier fact per scan (the rest
     *  compress over subsequent scans). */
    static constexpr std::uint32_t maxProven = 8;

    /**
     * One bucket. A word below fullFlag is the bucket's fill level
     * (a full bucket not yet walked holds exactly width). A word with
     * fullFlag set is a full bucket whose low bits are a skip target
     * j (i < j <= pageBuckets): buckets [i, j) of the page are all
     * full. Facts never expire between resets because fills only
     * grow, and width < fullFlag keeps the encoding lossless.
     */
    using Word = std::uint32_t;
    static constexpr Word fullFlag = Word{1} << 31;
    static_assert(fullFlag == widthLimit, "fills stay below the flag");
    static_assert(pageBuckets < fullFlag, "skip targets fit the word");

    /** Fill level of a bucket word. */
    Tick fillOf(Word w) const { return (w & fullFlag) ? width : w; }

    /** A full bucket's word pointing the walk at page offset @p j. */
    static Word
    skipTo(std::uint64_t j)
    {
        return fullFlag | static_cast<Word>(j);
    }

    struct Page
    {
        std::uint64_t first;     // bucket number of words[0]
        std::vector<Word> words; // pageBuckets entries, 4 KB
        /**
         * Cross-page frontier fact: every bucket in [first, fullUpTo)
         * is full (0 = none). May point beyond the page; a scan
         * entering under it jumps to the frontier in one hop.
         */
        std::uint64_t fullUpTo = 0;
    };

    /** The page starting at bucket @p first, or nullptr if absent. */
    const Page *
    findPageCached(std::uint64_t first) const
    {
        if (lastIdx < pages.size() && pages[lastIdx].first == first)
            return &pages[lastIdx];
        auto it = std::lower_bound(
            pages.begin(), pages.end(), first,
            [](const Page &p, std::uint64_t f) { return p.first < f; });
        if (it == pages.end() || it->first != first)
            return nullptr;
        lastIdx = static_cast<std::size_t>(it - pages.begin());
        return &*it;
    }

    /** Mutable lookup (skip-pointer maintenance in reserveSlow). */
    Page *
    findPageCachedMut(std::uint64_t first)
    {
        return const_cast<Page *>(findPageCached(first));
    }

    /**
     * Retire every page that ends at or below bucket @p floorBucket
     * (shared by discardBefore() and the minFreeBucket self-retire;
     * both callers guarantee no future scan or pour reaches below it).
     * Raises retiredFloor, folds retired peaks into retiredMaxFill,
     * stashes the storage for ensurePage() reuse, and resets the page
     * cache index.
     */
    void
    retirePagesBelow(std::uint64_t floorBucket)
    {
        retiredFloor = std::max(retiredFloor, floorBucket);
        std::size_t n = 0;
        while (n < pages.size()
               && pages[n].first + pageBuckets <= floorBucket)
            ++n;
        if (n == 0)
            return;
        for (std::size_t i = 0; i < n; ++i) {
            for (Word w : pages[i].words)
                retiredMaxFill = std::max(retiredMaxFill, fillOf(w));
            if (spares.size() < maxSpares)
                spares.push_back(std::move(pages[i]));
        }
        pages.erase(pages.begin(),
                    pages.begin() + static_cast<std::ptrdiff_t>(n));
        lastIdx = 0;
    }

    /** The page starting at bucket @p first, created if absent. */
    Page &
    ensurePage(std::uint64_t first)
    {
        if (lastIdx < pages.size() && pages[lastIdx].first == first)
            return pages[lastIdx];
        auto it = std::lower_bound(
            pages.begin(), pages.end(), first,
            [](const Page &p, std::uint64_t f) { return p.first < f; });
        if (it == pages.end() || it->first != first) {
            abndp_assert(first + pageBuckets > retiredFloor,
                         "meter page at bucket ", first,
                         " lies wholly below the retirement floor ",
                         retiredFloor, ": a reservation started below "
                         "a discardBefore() tick");
            // Prefer storage retired by discardBefore(): zeroing a
            // stashed page in place reuses warm, already-faulted
            // memory instead of taking a fresh 4 KB allocation (and
            // its kernel zero-page faults) per created page.
            if (!spares.empty()) {
                Page pg = std::move(spares.back());
                spares.pop_back();
                pg.first = first;
                std::fill(pg.words.begin(), pg.words.end(), Word{0});
                pg.fullUpTo = 0;
                it = pages.insert(it, std::move(pg));
            } else {
                it = pages.insert(
                    it, Page{first, std::vector<Word>(pageBuckets, 0)});
            }
        }
        lastIdx = static_cast<std::size_t>(it - pages.begin());
        return *it;
    }

    Tick width;
    /** Pages sorted by first bucket; benchmarks touch a handful. */
    std::vector<Page> pages;
    /** Index of the most recently touched page (almost always hits). */
    mutable std::size_t lastIdx = 0;
    /**
     * Bucket of the previous reservation's t and its start tick; the
     * t -> bucket mapping is time-invariant, so the cache survives
     * reset() and never needs invalidation.
     */
    std::uint64_t lastBucket = 0;
    Tick lastBucketStart = 0;
    /** All buckets below this are full (fills are monotone between
     *  resets); lets reserve() jump the saturated backlog in O(1). */
    std::uint64_t minFreeBucket = 0;
    /** Highest bucket pages were retired below (discardBefore() or
     *  the minFreeBucket self-retire); no page wholly below it may be
     *  created again until reset(). */
    std::uint64_t retiredFloor = 0;
    std::size_t nTouched = 0;
    /** Peak fill among pages retired by discardBefore(), so the
     *  bucket-overbooking audit still sees the whole timeline. */
    Tick retiredMaxFill = 0;
    /** Retired page storage awaiting reuse (bounded stash). */
    static constexpr std::size_t maxSpares = 8;
    std::vector<Page> spares;
};

} // namespace abndp

#endif // ABNDP_SIM_BANDWIDTH_METER_HH
