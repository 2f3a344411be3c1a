#include "core/stats_report.hh"

#include "core/ndp_system.hh"
#include "net/topology.hh"
#include "obs/stats_registry.hh"

namespace abndp
{

void
printStats(std::ostream &os, const NdpSystem &sys, const RunMetrics &m)
{
    sys.statsRegistry().dump(os);
    obs::writeStatLine(os, "sim.hostSeconds", m.hostSeconds, false);
    obs::writeStatLine(os, "sim.eventsPerSec", m.eventsPerSec(), false);
}

void
dumpJson(std::ostream &os, const SystemConfig &cfg, const RunMetrics &m)
{
    os << "{";
    os << "\"ticks\":" << m.ticks;
    os << ",\"seconds\":" << m.seconds();
    os << ",\"epochs\":" << m.epochs;
    os << ",\"tasks\":" << m.tasks;
    os << ",\"units\":" << cfg.numUnits();
    os << ",\"interHops\":" << m.interHops;
    os << ",\"utilization\":" << m.utilization();
    os << ",\"imbalance\":" << m.imbalance();
    os << ",\"campHitRate\":" << m.campHitRate();
    os << ",\"forwardedTasks\":" << m.forwardedTasks;
    os << ",\"stolenTasks\":" << m.stolenTasks;
    os << ",\"energyPj\":{";
    os << "\"coreSram\":" << m.energy.coreSramPj;
    os << ",\"dramMem\":" << m.energy.dramMemPj;
    os << ",\"dramCache\":" << m.energy.dramCachePj;
    os << ",\"net\":" << m.energy.netPj;
    os << ",\"static\":" << m.energy.staticPj;
    os << ",\"total\":" << m.energy.total();
    os << "}}";
}

void
dumpHeatmap(std::ostream &os, const SystemConfig &cfg,
            const RunMetrics &m)
{
    if (m.ticks == 0 || m.coreActiveTicks.empty())
        return;
    // Unit numbering is group-major (Section 4.2), so map units to
    // stacks through the topology before drawing mesh coordinates.
    Topology topo(cfg);
    std::vector<double> stackBusy(cfg.numStacks(), 0.0);
    for (UnitId u = 0; u < cfg.numUnits(); ++u)
        for (std::uint32_t c = 0; c < cfg.coresPerUnit; ++c)
            stackBusy[topo.stackOf(u)] += static_cast<double>(
                m.coreActiveTicks[u * cfg.coresPerUnit + c]);

    std::uint32_t coresPerStack = cfg.unitsPerStack * cfg.coresPerUnit;
    os << "Per-stack mean core utilization (0-9; rows = mesh Y):\n";
    for (std::uint32_t y = 0; y < cfg.meshY; ++y) {
        os << "  ";
        for (std::uint32_t x = 0; x < cfg.meshX; ++x) {
            StackId s = y * cfg.meshX + x;
            double util = stackBusy[s]
                / (static_cast<double>(m.ticks) * coresPerStack);
            int level = std::min(9, static_cast<int>(util * 10.0));
            os << level << " ";
        }
        os << "\n";
    }
}

} // namespace abndp
