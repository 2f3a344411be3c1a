/**
 * @file
 * Hierarchical load-balancer benchmark (lb extension, not a paper
 * figure): runs the Figure-6 batch grid and a skewed open-loop serving
 * stream over the extension designs `HLB` / `HLB-mig` next to the
 * paper's `B` and `O` rows, reporting per cell the simulated time,
 * speedup over B, load imbalance, and the new lb counters (intra/inter
 * sheds, re-homed blocks, stale-camp invalidation sweeps, migration
 * NoC traffic).
 *
 * --workloads resizes the batch grid (comma-separated);
 * --requests/--rate/--skew shape the serving stream (kv point lookups
 * at Zipf 0.99 by default, where hot-key imbalance is what the
 * balancer exists to absorb).
 *
 * --out=FILE writes one machine-readable JSON line with host
 * throughput; --compare=FILE checks this run's events_per_sec against
 * a baseline written by a previous --out run (same convention as
 * bench_mem): the process exits nonzero when throughput regressed by
 * more than --tolerance (default 0.10). A missing or unparsable
 * baseline warns and passes, so the first CI run on a fresh cache
 * succeeds.
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv);
    const std::string outPath = opts.flags.getString("out", "");
    const std::vector<std::string> workloads =
        splitCsv(opts.flags.getString("workloads", "pr,bfs"));
    const std::uint64_t requests =
        opts.flags.getUint("requests", 200000);
    const double rate = opts.flags.getDouble("rate", 8.0);
    const double skew = opts.flags.getDouble("skew", 0.99);
    if (workloads.empty())
        fatal("--workloads must name at least one workload");

    printBanner("Hierarchical load balancing — HLB/HLB-mig vs B and O",
                "(extension) the paper balances load by caching at the "
                "requester (Traveller); HLB sheds queued tasks across "
                "the two NoC tiers and HLB-mig re-homes hot blocks — "
                "both must land between B and O on batch graphs, and "
                "re-homing must pay off under a skewed serving stream");

    const std::vector<Design> designs =
        {Design::B, Design::O, Design::Hlb, Design::HlbM};

    auto start = std::chrono::steady_clock::now();
    std::uint64_t events = 0;

    // Batch grid: the Figure-6 workloads under the lb design family.
    std::vector<CellSpec> grid;
    for (const std::string &wl : workloads) {
        WorkloadSpec spec = specFor(wl, opts);
        for (Design d : designs)
            grid.push_back(cellFor(d, spec, opts));
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    TextTable table({"workload", "design", "time (ms)", "speedup",
                     "imbalance", "shedIntra", "shedInter", "migrated",
                     "invalSweeps", "migKB"});
    std::size_t cellIdx = 0;
    for (const std::string &wl : workloads) {
        double baseTicks = 0.0;
        for (Design d : designs) {
            const RunMetrics &m = results[cellIdx++];
            events += m.simEvents;
            if (d == Design::B)
                baseTicks = static_cast<double>(m.ticks);
            table.addRow({wl, designName(d), fmt(m.seconds() * 1e3),
                          baseTicks > 0.0
                              ? fmt(baseTicks / m.ticks)
                              : "-",
                          fmt(m.imbalance()),
                          std::to_string(m.tasksShedIntra),
                          std::to_string(m.tasksShedInter),
                          std::to_string(m.blocksMigrated),
                          std::to_string(m.migrationInvalidations),
                          fmt(m.migrationTrafficBytes / 1024.0, 1)});
        }
    }
    table.print(std::cout);

    // Skewed serving stream: hot-key imbalance is the case re-homing
    // targets — a handful of keys dominate the open-loop load, so the
    // home units of those blocks saturate while the rest idle.
    std::cout << "\nOpen-loop kv serving at Zipf " << fmt(skew, 2)
              << " (" << requests << " requests, " << fmt(rate, 1)
              << "/us):\n";
    WorkloadSpec servingSpec = specFor("kv", opts);
    std::vector<CellSpec> servingGrid;
    for (Design d : designs) {
        CellSpec cell = cellFor(d, servingSpec, opts);
        SystemConfig cfg = opts.base;
        cfg.serving.requests = requests;
        cfg.serving.ratePerUs = rate;
        cfg.serving.zipfS = skew;
        cell.config = cfg;
        servingGrid.push_back(cell);
    }
    std::vector<RunMetrics> served = runGrid(opts, servingGrid);

    TextTable stable({"design", "p50_ns", "p99_ns", "goodput_q/s",
                      "miss_rate", "shedIntra", "shedInter",
                      "migrated"});
    std::ostringstream json;
    json << "{\"bench\":\"lb\""
         << ",\"scale\":" << opts.scale
         << ",\"requests\":" << requests
         << ",\"cells\":" << grid.size() + servingGrid.size();
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const RunMetrics &m = served[i];
        events += m.simEvents;
        stable.addRow({designName(designs[i]), fmt(m.servingP50Ns),
                       fmt(m.servingP99Ns),
                       fmt(m.servingGoodputQps, 0),
                       fmt(m.servingSloMissRate, 4),
                       std::to_string(m.tasksShedIntra),
                       std::to_string(m.tasksShedInter),
                       std::to_string(m.blocksMigrated)});
        json << ",\"serving_p99_ns_" << designName(designs[i])
             << "\":" << m.servingP99Ns;
    }
    stable.print(std::cout);
    auto end = std::chrono::steady_clock::now();

    double wall = std::chrono::duration<double>(end - start).count();
    double eventsPerSec = wall > 0 ? events / wall : 0;
    json << ",\"sim_events\":" << events
         << ",\"wall_seconds\":" << wall
         << ",\"events_per_sec\":" << eventsPerSec
         << "}";
    emitJsonRecord(json.str(), outPath);
    return compareEventsPerSec(opts, "bench_lb", eventsPerSec);
}
