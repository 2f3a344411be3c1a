#include "core/ndp_unit.hh"

#include <string>

#include "common/logging.hh"

namespace abndp
{

void
NdpUnit::init(const SystemConfig &cfg, UnitId id)
{
    unitId = id;
    std::uint64_t pb_blocks = cfg.prefetchBufBytes / cachelineBytes;
    pb = std::make_unique<PrefetchBuffer>(pb_blocks);
    rng.reseed(mix64(cfg.seed ^ (0x2000ull + id)));
    cores.resize(cfg.coresPerUnit);
    for (std::uint32_t c = 0; c < cfg.coresPerUnit; ++c) {
        cores[c].l1d = std::make_unique<SetAssocCache>(
            cfg.l1d, mix64(cfg.seed ^ (0x3000ull + id * 16 + c)));
        cores[c].l1i = std::make_unique<SetAssocCache>(
            cfg.l1i, mix64(cfg.seed ^ (0x5000ull + id * 16 + c)));
        cores[c].tlb = std::make_unique<SetAssocCache>(
            cfg.tlb.entries / cfg.tlb.assoc, cfg.tlb.assoc,
            ReplPolicy::Lru);
    }
}

std::uint64_t
NdpUnit::beginEpoch()
{
    abndp_assert(ready.empty() && pending.empty(),
                 "previous epoch not drained");
    // Swap, don't move: the drained live queues hand their buffers
    // to the staging side, so steady-state epochs allocate nothing.
    pending.swap(stagedPending);
    ready.swap(stagedReady);
    stagedPending.clear();
    stagedReady.clear();
    // The scheduling window drains pending into ready over the epoch.
    ready.reserve(ready.size() + pending.size());
    prefetchedCount = 0;
    stealBackoff = 0;
    return pending.size() + ready.size();
}

void
NdpUnit::resetTransient()
{
    stealInFlight = false;
    schedBusy = false;
    stealBackoff = 0;
}

void
NdpUnit::invalidatePrimaryData()
{
    pb->invalidateAll();
    for (auto &core : cores)
        core.l1d->invalidateAll();
}

bool
NdpUnit::anyIdleCore() const
{
    bool any_idle = false;
    for (const auto &core : cores)
        any_idle |= !core.busy;
    return any_idle;
}

std::uint32_t
NdpUnit::busyCores() const
{
    std::uint32_t busy = 0;
    for (const auto &core : cores)
        busy += core.busy ? 1 : 0;
    return busy;
}

std::uint64_t
NdpUnit::tasksRun() const
{
    std::uint64_t n = 0;
    for (const auto &core : cores)
        n += core.tasksRun;
    return n;
}

void
NdpUnit::regStats(obs::StatNode &node) const
{
    for (std::uint32_t c = 0; c < cores.size(); ++c) {
        obs::StatNode &cn = node.child("core" + std::to_string(c));
        const CoreState &core = cores[c];
        cn.addCounter("tasksRun", &core.tasksRun);
        cn.addCounter("activeTicks", &core.activeTicks);
        core.l1d->regStats(cn.child("l1d"));
        core.l1i->regStats(cn.child("l1i"));
        core.tlb->regStats(cn.child("tlb"));
    }
    pb->regStats(node.child("pb"));
}

} // namespace abndp
