/**
 * @file
 * Per-unit Traveller Cache storage (paper Section 4.4): a set-associative
 * DRAM cache region with SRAM tags, probabilistic (bypassing) insertion,
 * random replacement by default, and bulk invalidation at the end of each
 * bulk-synchronous timestamp. Only read-only primary data are cached, so
 * no writebacks ever occur.
 *
 * Tags and recency stamps are contiguous preallocated [numSets * assoc]
 * parallel arrays (the set count is fixed at construction), so the
 * hottest loop of the memory system scans a flat 8-byte tag row instead
 * of probing a hash map and chasing a heap-allocated per-set vector. Bulk invalidation stays O(1)
 * through per-set generation stamps: a set whose stamp is stale is
 * logically empty and is lazily re-initialized on its first insertion of
 * the new timestamp, so untouched sets never even fault their pages in.
 */

#ifndef ABNDP_CACHE_TRAVELLER_CACHE_HH
#define ABNDP_CACHE_TRAVELLER_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "obs/stats_registry.hh"

namespace abndp
{

/** One NDP unit's camp cache storage. */
class TravellerCache
{
  public:
    TravellerCache(const SystemConfig &cfg, std::uint64_t seed)
        : nSets(cfg.travellerSets()),
          setSplit(cfg.travellerSets()),
          hashedIdx(cfg.traveller.hashedIndex),
          assoc(cfg.traveller.assoc),
          repl(cfg.traveller.repl),
          rng(mix64(seed ^ 0x7261764c6c657243ULL)),
          bypassProb(cfg.traveller.bypassProb),
          // Default-initialized on purpose: ways of a set are written
          // before first use (lazy clear below), so the untouched bulk
          // of both arrays stays in never-faulted zero pages. Tags and
          // stamps are split (struct-of-arrays) so the hit probe scans
          // contiguous 8-byte tags — vectorizable, and one cacheline
          // covers 8 ways instead of 4.
          tags(new Addr[nSets * assoc]),
          stamps(new std::uint64_t[nSets * assoc]),
          setGen(nSets, 0)
    {
    }

    /** Probe the tags for a block; counts hit/miss and updates recency. */
    bool
    lookup(Addr blockAddr)
    {
        std::uint64_t s = setOf(blockAddr);
        if (setGen[s] == curGen) {
            const std::uint64_t base = s * assoc;
            const Addr *tag = &tags[base];
            // Occupied ways form a contiguous prefix (insertions fill
            // the first free slot, evictions replace in place).
            for (std::uint32_t w = 0;
                 w < assoc && tag[w] != invalidAddr; ++w) {
                if (tag[w] == blockAddr) {
                    if (repl == ReplPolicy::Lru)
                        stamps[base + w] = ++tick;
                    ++nHits;
                    return true;
                }
            }
        }
        ++nMisses;
        return false;
    }

    /** Presence check without stats/recency side effects. */
    bool
    contains(Addr blockAddr) const
    {
        std::uint64_t s = setOf(blockAddr);
        if (setGen[s] != curGen)
            return false;
        const Addr *tag = &tags[s * assoc];
        for (std::uint32_t w = 0; w < assoc && tag[w] != invalidAddr;
             ++w)
            if (tag[w] == blockAddr)
                return true;
        return false;
    }

    /**
     * Try to insert a block subject to the probabilistic insertion
     * policy. @return true if the block was actually inserted.
     */
    bool
    maybeInsert(Addr blockAddr)
    {
        if (rng.chance(bypassProb)) {
            ++nBypasses;
            return false;
        }
        std::uint64_t s = setOf(blockAddr);
        const std::uint64_t base = s * assoc;
        Addr *tag = &tags[base];
        std::uint64_t *stamp = &stamps[base];
        if (setGen[s] != curGen) {
            for (std::uint32_t w = 0; w < assoc; ++w) {
                tag[w] = invalidAddr;
                stamp[w] = 0;
            }
            setGen[s] = curGen;
        }
        std::uint32_t size = 0;
        for (; size < assoc && tag[size] != invalidAddr; ++size) {
            if (tag[size] == blockAddr) {
                if (repl == ReplPolicy::Lru)
                    stamp[size] = ++tick;
                return true; // raced insert of an already-present block
            }
        }
        if (size < assoc) {
            tag[size] = blockAddr;
            stamp[size] = ++tick;
            ++nOccupied;
        } else {
            std::uint32_t victim = 0;
            if (repl == ReplPolicy::Random) {
                victim = static_cast<std::uint32_t>(rng.below(assoc));
            } else {
                for (std::uint32_t w = 1; w < assoc; ++w)
                    if (stamp[w] < stamp[victim])
                        victim = w;
            }
            tag[victim] = blockAddr;
            stamp[victim] = ++tick;
            ++nEvicts;
        }
        ++nInserts;
        return true;
    }

    /**
     * Targeted invalidation: drop every cached block for which @p pred
     * (Addr -> bool) returns true — used to purge blocks homed on a
     * failed unit, whose copies can no longer be revalidated. Removals
     * count as evictions so the occupancy conservation law (occupancy
     * == insertions - evictions since bulk invalidation, src/check)
     * keeps holding; surviving ways are compacted so occupied ways
     * remain a contiguous prefix, as the lookup fast path requires.
     * @return the number of blocks dropped.
     */
    template <typename Pred>
    std::uint64_t
    invalidateMatching(Pred pred)
    {
        std::uint64_t dropped = 0;
        for (std::uint64_t s = 0; s < nSets; ++s) {
            if (setGen[s] != curGen)
                continue; // logically empty since the last bulk clear
            const std::uint64_t base = s * assoc;
            Addr *tag = &tags[base];
            std::uint64_t *stamp = &stamps[base];
            std::uint32_t keep = 0;
            std::uint32_t w = 0;
            for (; w < assoc && tag[w] != invalidAddr; ++w) {
                if (pred(tag[w])) {
                    ++dropped;
                } else {
                    tag[keep] = tag[w];
                    stamp[keep] = stamp[w];
                    ++keep;
                }
            }
            for (; keep < w; ++keep) {
                tag[keep] = invalidAddr;
                stamp[keep] = 0;
            }
        }
        nOccupied -= dropped;
        nEvicts += dropped;
        return dropped;
    }

    /**
     * Drop one block if cached — the effect of invalidateMatching()
     * with an equality predicate, at the cost of a single set probe: a
     * block can only live in setOf(block). Surviving ways shift down
     * in their original order, so the occupied prefix, later Random
     * victim indices and LRU stamps all match the sweep exactly; the
     * removal counts as an eviction.
     * @return true if the block was present and dropped.
     */
    bool
    invalidateBlock(Addr blockAddr)
    {
        std::uint64_t s = setOf(blockAddr);
        if (setGen[s] != curGen)
            return false; // logically empty since the last bulk clear
        const std::uint64_t base = s * assoc;
        Addr *tag = &tags[base];
        std::uint64_t *stamp = &stamps[base];
        std::uint32_t w = 0;
        while (w < assoc && tag[w] != invalidAddr && tag[w] != blockAddr)
            ++w;
        if (w == assoc || tag[w] == invalidAddr)
            return false;
        for (; w + 1 < assoc && tag[w + 1] != invalidAddr; ++w) {
            tag[w] = tag[w + 1];
            stamp[w] = stamp[w + 1];
        }
        tag[w] = invalidAddr;
        stamp[w] = 0;
        --nOccupied;
        ++nEvicts;
        return true;
    }

    /** Clear all tags at the end of a timestamp (no writeback needed). */
    void
    bulkInvalidate()
    {
        ++curGen; // every set's stamp is now stale: logically empty
        nOccupied = 0;
        ++nBulkInvalidations;
    }

    std::uint64_t hits() const { return nHits.value(); }
    std::uint64_t misses() const { return nMisses.value(); }
    std::uint64_t insertions() const { return nInserts.value(); }
    std::uint64_t evictions() const { return nEvicts.value(); }
    std::uint64_t bypasses() const { return nBypasses.value(); }
    std::uint64_t occupancy() const { return nOccupied; }
    std::uint64_t capacityBlocks() const { return nSets * assoc; }
    std::uint64_t numSets() const { return nSets; }
    std::uint32_t associativity() const { return assoc; }

    /** Register this camp cache's stats under @p node. */
    void
    regStats(obs::StatNode &node) const
    {
        node.addCounter("hits", &nHits);
        node.addCounter("misses", &nMisses);
        node.addCounter("insertions", &nInserts);
        node.addCounter("evictions", &nEvicts);
        node.addCounter("bypasses", &nBypasses);
        node.addCounter("bulkInvalidations", &nBulkInvalidations);
        node.addValue("occupancyBlocks",
                      [this]() {
                          return static_cast<double>(nOccupied);
                      },
                      obs::StatKind::Gauge, true);
    }

  private:
    /**
     * Low-bit set index by default (paper Section 4.2: "the cache set
     * mapping follows traditional caches, using the lower bits in the
     * address"). Consecutive blocks therefore occupy consecutive sets,
     * which keeps DRAM row locality inside the cache data region.
     * traveller.hashedIndex switches to a mixed index — the knob that
     * measures the row-locality claim under the DDR backend; it must
     * agree with CampMapping::setIndex, which lays out the slots.
     */
    std::uint64_t setOf(Addr blockAddr) const
    {
        std::uint64_t block = blockNumber(blockAddr);
        return setSplit.mod(hashedIdx ? mix64(block) : block);
    }

    std::uint64_t nSets;
    Pow2Split setSplit;
    bool hashedIdx;
    std::uint32_t assoc;
    ReplPolicy repl;
    Rng rng;
    double bypassProb;
    std::uint64_t tick = 0;
    std::uint64_t nOccupied = 0;
    std::uint64_t curGen = 1;
    std::unique_ptr<Addr[]> tags;          // way tags, set-major
    std::unique_ptr<std::uint64_t[]> stamps; // parallel recency stamps
    std::vector<std::uint64_t> setGen;

    stats::Counter nHits;
    stats::Counter nMisses;
    stats::Counter nInserts;
    stats::Counter nEvicts;
    stats::Counter nBypasses;
    stats::Counter nBulkInvalidations;
};

} // namespace abndp

#endif // ABNDP_CACHE_TRAVELLER_CACHE_HH
