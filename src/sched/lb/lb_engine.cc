#include "sched/lb/lb_engine.hh"

#include <algorithm>

#include "sched/lb/balancers.hh"

namespace abndp
{

LbEngine::LbEngine(const LbConfig &cfg, const Topology &topo)
    : cfg(cfg), topo(topo),
      hot(topo.numUnits(), cfg.hotK, cfg.decayShift),
      stackUnits(topo.numStacks())
{
    for (UnitId u = 0; u < topo.numUnits(); ++u)
        stackUnits[topo.stackOf(u)].push_back(u);
}

namespace
{

/**
 * Per-member hotness shares for a reserve tier ({} for the others,
 * whose balancers never read them).
 */
std::vector<double>
hotShares(LbTierKind kind, const std::vector<std::uint64_t> &counts)
{
    if (kind != LbTierKind::Reserve)
        return {};
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    std::vector<double> frac(counts.size(), 0.0);
    if (total == 0)
        return frac;
    for (std::size_t i = 0; i < counts.size(); ++i)
        frac[i] = static_cast<double>(counts[i])
            / static_cast<double>(total);
    return frac;
}

} // namespace

std::vector<ShedCmd>
LbEngine::planSheds(const std::vector<std::uint32_t> &qlen) const
{
    std::vector<ShedCmd> cmds;

    // Intra tier: balance the units of every stack over the crossbar.
    if (cfg.intraTier != LbTierKind::None) {
        for (const std::vector<UnitId> &members : stackUnits) {
            std::vector<std::uint32_t> loads(members.size());
            std::vector<std::uint64_t> counts(members.size());
            for (std::size_t i = 0; i < members.size(); ++i) {
                loads[i] = qlen[members[i]];
                counts[i] = hot.totalCount(members[i]);
            }
            std::vector<double> frac = hotShares(cfg.intraTier, counts);
            for (const LbMove &mv :
                 planTier(cfg.intraTier, cfg, loads, frac))
                cmds.push_back({members[mv.from], members[mv.to],
                                mv.count, false});
        }
    }

    // Inter tier: balance per-stack totals over the mesh. Intra moves
    // never change a stack's total, so the pre-shed snapshot is still
    // exact here.
    if (cfg.interTier != LbTierKind::None && stackUnits.size() > 1) {
        std::vector<std::uint32_t> loads(stackUnits.size());
        std::vector<std::uint64_t> counts(stackUnits.size());
        for (std::size_t s = 0; s < stackUnits.size(); ++s) {
            for (UnitId u : stackUnits[s]) {
                loads[s] += qlen[u];
                counts[s] += hot.totalCount(u);
            }
        }
        std::vector<double> frac = hotShares(cfg.interTier, counts);
        for (const LbMove &mv : planTier(cfg.interTier, cfg, loads, frac)) {
            // Pin the stack-to-stack move to the most loaded unit of
            // the donor stack and the least loaded unit of the
            // receiver stack (lowest unit id breaks ties).
            UnitId victim = stackUnits[mv.from][0];
            for (UnitId u : stackUnits[mv.from])
                if (qlen[u] > qlen[victim])
                    victim = u;
            UnitId thief = stackUnits[mv.to][0];
            for (UnitId u : stackUnits[mv.to])
                if (qlen[u] < qlen[thief])
                    thief = u;
            cmds.push_back({victim, thief, mv.count, true});
        }
    }
    return cmds;
}

std::vector<MigrationCmd>
LbEngine::planMigrations(const CampMapping &camps)
{
    std::vector<MigrationCmd> cmds;
    const std::uint32_t cap = cfg.migration.maxPerExchange;
    for (UnitId home = 0; home < topo.numUnits(); ++home) {
        for (const HotEntry &e : hot.topK(home)) {
            if (cmds.size() >= cap)
                return cmds;
            if (e.cnt < cfg.migration.threshold)
                break;      // topK is count-descending: rest is colder
            // The tracker is keyed by the home at record time; skip
            // stale banks where the block has since moved on.
            if (camps.homeOf(e.block) != home || e.reqId == home
                || e.reqId == invalidUnit)
                continue;
            auto it = lastMigrated.find(e.block);
            if (it != lastMigrated.end()
                && window < it->second + cfg.migration.cooldownWindows)
                continue;
            cmds.push_back({e.block, home, e.reqId});
            lastMigrated[e.block] = window;
            hot.erase(home, e.block);   // restart cold at the new home
        }
    }
    return cmds;
}

void
LbEngine::onWindow()
{
    hot.decayAll();
    ++window;
}

} // namespace abndp
