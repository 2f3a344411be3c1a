/**
 * @file
 * Simulator performance smoke test (not a paper figure): runs a fixed
 * small (design, workload) grid and reports host-side throughput as one
 * machine-readable JSON line, so CI can archive a perf trajectory and
 * regressions in the event kernel or cache models show up as a drop in
 * events/sec.
 *
 * The simulated metrics of every cell are bit-deterministic; only the
 * wall-clock figures vary between hosts and runs.
 *
 * --compare=FILE checks this run's events_per_sec against a baseline
 * JSON line written by a previous run (--out): the process exits
 * nonzero when throughput regressed by more than --tolerance (default
 * 0.10). A missing or unparsable baseline warns and passes, so the
 * first CI run on a fresh cache succeeds.
 *
 * --workloads=pr,bfs and --designs=B,O subset the grid (comma-
 * separated workload names / Table-2 design letters), so expensive
 * large-scale records (e.g. the scale-20 guard in CI) can track a
 * single representative cell instead of the full default grid.
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*defaultScale=*/12);
    const std::string outPath = opts.flags.getString("out", "");

    // Default grid: two contrasting workloads on the baseline and the
    // full design; --workloads/--designs subset it for targeted
    // records (the order is workload-major, matching the default).
    const std::vector<std::string> wls =
        splitCsv(opts.flags.getString("workloads", "pr,bfs"));
    const std::vector<std::string> designNames =
        splitCsv(opts.flags.getString("designs", "B,O"));
    if (wls.empty() || designNames.empty())
        fatal("--workloads/--designs must name at least one cell");

    std::vector<CellSpec> grid;
    for (const std::string &wl : wls)
        for (const std::string &dn : designNames)
            grid.push_back(
                cellFor(designFromName(dn), specFor(wl, opts), opts));

    auto start = std::chrono::steady_clock::now();
    std::vector<RunMetrics> results = runGrid(opts, grid);
    auto end = std::chrono::steady_clock::now();

    double wall = std::chrono::duration<double>(end - start).count();

    std::uint64_t events = 0;
    std::uint64_t tasks = 0;
    for (const RunMetrics &m : results) {
        events += m.simEvents;
        tasks += m.tasks;
    }
    double eventsPerSec = wall > 0 ? events / wall : 0;

    std::uint32_t threads = opts.threads ? opts.threads
                                         : defaultThreads();
    auto joinCsv = [](const std::vector<std::string> &v) {
        std::string s;
        for (const std::string &e : v)
            s += (s.empty() ? "" : ",") + e;
        return s;
    };
    std::ostringstream json;
    json << "{\"bench\":\"perf_smoke\""
         << ",\"scale\":" << opts.scale
         << ",\"workloads\":\"" << joinCsv(wls) << "\""
         << ",\"designs\":\"" << joinCsv(designNames) << "\""
         << ",\"threads\":" << threads
         << ",\"cells\":" << grid.size()
         << ",\"sim_events\":" << events
         << ",\"sim_tasks\":" << tasks
         << ",\"wall_seconds\":" << wall
         << ",\"cells_per_sec\":" << (wall > 0 ? grid.size() / wall : 0)
         << ",\"events_per_sec\":" << eventsPerSec
         << "}";

    emitJsonRecord(json.str(), outPath);
    return compareEventsPerSec(opts, "perf_smoke", eventsPerSec);
}
