/**
 * @file
 * Memory-backend sweep (not a paper figure): runs a small design grid
 * under every MemBackend — the analytic bandwidth meter and the
 * bank-state DDR model — and reports both the simulated contrast
 * (latency, row-buffer behaviour, ACT stalls) and a machine-readable
 * JSON line with host throughput, so CI can guard the DDR fast path
 * against host-side regressions the same way bench_perf_smoke guards
 * the event kernel. Its 10 cells run as one grid on --threads host
 * threads, so events_per_sec aggregates over the pool.
 *
 * --compare=FILE checks this run's events_per_sec against a baseline
 * JSON line written by a previous run (--out): the process exits
 * nonzero when throughput regressed by more than --tolerance (default
 * 0.10). A missing or unparsable baseline warns and passes, so the
 * first CI run on a fresh cache succeeds.
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

    Options opts = parseOptions(argc, argv);
    const std::string outPath = opts.flags.getString("out", "");
    const std::string wl = opts.flags.getString("workload", "pr");
    WorkloadSpec spec = specFor(wl, opts);

    printBanner("Memory-backend sweep — analytic meter vs bank-state "
                "DDR",
                "(extension) the design ordering must survive the "
                "backend swap; DDR adds row-buffer and tFAW detail");

    struct Backend
    {
        const char *label;
        MemBackendKind kind;
    };
    const Backend backends[] = {{"meter", MemBackendKind::Meter},
                                {"ddr", MemBackendKind::Ddr}};

    // Backend sweep (3 designs x 2 backends), then the DDR row-locality
    // ablation (2 designs x 2 set indexes), as one grid.
    const std::vector<Design> sweepDesigns{Design::B, Design::Sl,
                                           Design::O};
    const std::vector<Design> indexDesigns{Design::C, Design::O};
    std::vector<CellSpec> grid;
    for (Design d : sweepDesigns) {
        for (const Backend &be : backends) {
            CellSpec cell = cellFor(d, spec, opts);
            cell.config = opts.base;
            cell.config->dram.backend = be.kind;
            if (be.kind == MemBackendKind::Ddr)
                cell.config->dram.pagePolicy = PagePolicy::Adaptive;
            grid.push_back(cell);
        }
    }
    for (Design d : indexDesigns) {
        for (bool hashed : {false, true}) {
            CellSpec cell = cellFor(d, spec, opts);
            cell.config = opts.base;
            cell.config->dram.backend = MemBackendKind::Ddr;
            cell.config->dram.pagePolicy = PagePolicy::Adaptive;
            cell.config->traveller.hashedIndex = hashed;
            grid.push_back(cell);
        }
    }

    auto start = std::chrono::steady_clock::now();
    std::vector<RunMetrics> results = runGrid(opts, grid);
    auto end = std::chrono::steady_clock::now();

    std::uint64_t events = 0;
    for (const RunMetrics &m : results)
        events += m.simEvents;
    auto rowHitPct = [](const RunMetrics &m) {
        std::uint64_t rowRefs = m.dramRowHits + m.dramRowMisses;
        return rowRefs
            ? 100.0 * static_cast<double>(m.dramRowHits) / rowRefs
            : 0.0;
    };

    TextTable table({"design", "backend", "time (ms)", "row hit%",
                     "actStalls", "vs meter"});
    std::size_t cell = 0;
    for (Design d : sweepDesigns) {
        double meterTicks = 0.0;
        for (const Backend &be : backends) {
            const RunMetrics &m = results[cell++];
            if (be.kind == MemBackendKind::Meter)
                meterTicks = static_cast<double>(m.ticks);
            table.addRow({designName(d), be.label,
                          fmt(m.seconds() * 1e3),
                          be.kind == MemBackendKind::Ddr
                              ? fmt(rowHitPct(m), 1)
                              : "-",
                          std::to_string(m.dramActStalls),
                          fmt(static_cast<double>(m.ticks) / meterTicks)});
        }
    }
    table.print(std::cout);

    // Row-locality ablation (DDR only): the Traveller set index is
    // low-bit by default, so consecutive blocks occupy consecutive
    // sets and the cache data region inherits DRAM row adjacency
    // (cache/traveller_cache.hh). Hashing the index scatters those
    // blocks across rows; the analytic meter cannot tell the
    // difference, the bank-state backend can.
    std::cout << "\nTraveller set index under the DDR backend:\n";
    TextTable idx({"design", "index", "time (ms)", "row hit%",
                   "rowMisses"});
    for (Design d : indexDesigns) {
        for (bool hashed : {false, true}) {
            const RunMetrics &m = results[cell++];
            idx.addRow({designName(d), hashed ? "hashed" : "low-bit",
                        fmt(m.seconds() * 1e3), fmt(rowHitPct(m), 1),
                        std::to_string(m.dramRowMisses)});
        }
    }
    idx.print(std::cout);

    double wall = std::chrono::duration<double>(end - start).count();
    double eventsPerSec = wall > 0 ? events / wall : 0;
    std::ostringstream json;
    json << "{\"bench\":\"mem\""
         << ",\"scale\":" << opts.scale
         << ",\"workload\":\"" << wl << "\""
         << ",\"cells\":" << grid.size()
         << ",\"sim_events\":" << events
         << ",\"wall_seconds\":" << wall
         << ",\"events_per_sec\":" << eventsPerSec
         << "}";
    emitJsonRecord(json.str(), outPath);
    return compareEventsPerSec(opts, "bench_mem", eventsPerSec);
}
