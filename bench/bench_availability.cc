/**
 * @file
 * Availability benchmark (robustness extension, not a paper figure):
 * every Table-2 NDP design with a growing fraction of its units
 * permanently killed mid-run (--fail-at-ns, default 2000). Reports the
 * makespan degradation of each design relative to its own failure-free
 * run, plus the recovery protocol's overhead — tasks recovered from
 * the dead units' queues, delivery-ack redispatches, and the recovery
 * descriptor traffic.
 *
 * Completing at all is part of the result: every cell must drain its
 * epochs without tripping the watchdog, i.e. the recovery protocol
 * loses no task and the degraded-mode scheduler keeps making progress
 * with the surviving units.
 *
 * --out=FILE additionally writes the whole curve as one
 * machine-readable JSON line (same convention as bench_perf_smoke),
 * so CI can archive availability trajectories.
 */

#include <fstream>
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
    const double failAtNs = opts.flags.getDouble("fail-at-ns", 2000.0);
    const std::string outPath = opts.flags.getString("out", "");

    printBanner("Availability — time vs. fraction of units killed "
                "mid-run (ms, and slowdown vs. each design's own "
                "failure-free run)",
                "not a paper artifact; expectation: degradation stays "
                "near the lost-compute fraction, with load-aware "
                "designs (Sl, Sh, O) absorbing the re-injected work "
                "most smoothly");

    const std::uint32_t numUnits = opts.base.numUnits();
    // Failed fraction sweep: 0 (baseline), 1/16, 1/8, 1/4 of units.
    std::vector<std::uint32_t> failedCounts{0, numUnits / 16,
                                            numUnits / 8, numUnits / 4};
    for (auto &n : failedCounts)
        if (n == 0 && &n != &failedCounts.front())
            n = 1; // tiny meshes: fractions floor to at least one unit

    const auto &designs = ndpDesigns();
    WorkloadSpec spec = specFor("pr", opts);

    std::vector<CellSpec> grid;
    for (std::uint32_t failed : failedCounts) {
        for (Design d : designs) {
            CellSpec cell = cellFor(d, spec, opts);
            if (failed > 0) {
                FaultConfig f;
                f.unitFailure.count = failed;
                f.unitFailure.failAtNs = failAtNs;
                cell.opts.fault = f;
            }
            grid.push_back(cell);
        }
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    TextTable table({"failed", "design", "time_ms", "slowdown",
                     "recovered", "redispatched", "recoveryKB",
                     "hops", "imbalance", "util"});
    std::ostringstream points;
    std::vector<double> cleanMs(designs.size(), 0.0);
    std::size_t cellIdx = 0;
    for (std::uint32_t failed : failedCounts) {
        const std::string label = failed == 0
            ? "none"
            : std::to_string(failed) + "/" + std::to_string(numUnits);
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const RunMetrics &m = results[cellIdx++];
            const double ms = m.seconds() * 1e3;
            if (failed == 0)
                cleanMs[i] = ms;
            const double slowdown =
                cleanMs[i] > 0.0 ? ms / cleanMs[i] : 0.0;
            table.addRow({label, designName(designs[i]), fmt(ms),
                          fmt(slowdown),
                          std::to_string(m.tasksRecovered),
                          std::to_string(m.tasksRedispatched),
                          fmt(m.recoveryTrafficBytes / 1024.0),
                          std::to_string(m.interHops),
                          fmt(m.imbalance()), fmt(m.utilization())});
            if (cellIdx > 1)
                points << ",";
            points << "{\"design\":\"" << designName(designs[i])
                   << "\",\"failed_units\":" << failed
                   << ",\"time_ms\":" << ms
                   << ",\"slowdown\":" << slowdown
                   << ",\"tasks_recovered\":" << m.tasksRecovered
                   << ",\"tasks_redispatched\":" << m.tasksRedispatched
                   << ",\"recovery_bytes\":" << m.recoveryTrafficBytes
                   << "}";
        }
    }
    table.print(std::cout);
    std::cout << "\nslowdown = time / the same design's failure-free "
                 "time; every cell completing (no watchdog trip) means "
                 "the recovery protocol lost no task.\n";

    std::ostringstream json;
    json << "{\"bench\":\"availability\""
         << ",\"workload\":\"" << spec.name << '"'
         << ",\"scale\":" << opts.scale
         << ",\"units\":" << numUnits
         << ",\"fail_at_ns\":" << failAtNs
         << ",\"points\":[" << points.str() << "]}";
    std::cout << json.str() << "\n";
    if (!outPath.empty()) {
        std::ofstream out(outPath);
        if (!out)
            fatal("cannot write ", outPath);
        out << json.str() << "\n";
    }
    return 0;
}
