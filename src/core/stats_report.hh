/**
 * @file
 * End-of-run reports for a simulated NDP system: the stats-registry
 * dump plus host time, a JSON summary, and a utilization heatmap.
 */

#ifndef ABNDP_CORE_STATS_REPORT_HH
#define ABNDP_CORE_STATS_REPORT_HH

#include <ostream>

#include "common/config.hh"
#include "core/metrics.hh"

namespace abndp
{

class NdpSystem;

/**
 * Write the end-of-run report behind `abndp_sim --stats`: the full
 * stats-registry dump, then two host-time lines (sim.hostSeconds and
 * sim.eventsPerSec). Those two vary between otherwise identical runs,
 * so the registry itself (and every golden built from it) leaves them
 * out.
 */
void printStats(std::ostream &os, const NdpSystem &sys,
                const RunMetrics &metrics);

/** Write the headline metrics of a run as a single JSON object. */
void dumpJson(std::ostream &os, const SystemConfig &cfg,
              const RunMetrics &metrics);

/**
 * Draw an ASCII utilization heatmap of the stack mesh: per stack, the
 * mean core-busy fraction, 0-9 scaled (a Figure-9 style view of where
 * the hotspots sit).
 */
void dumpHeatmap(std::ostream &os, const SystemConfig &cfg,
                 const RunMetrics &metrics);

} // namespace abndp

#endif // ABNDP_CORE_STATS_REPORT_HH
