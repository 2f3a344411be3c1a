/**
 * @file
 * Figure 8 (remote accesses): total inter-stack mesh hops of every NDP
 * design, normalized to B, on the representative workloads.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv);
    printBanner("Figure 8 — remote accesses (inter-stack hops, norm. to B)",
                "Sm ~0.93x; Sl up to 2x; Sh ~1.45x; C ~0.79x (lowest); "
                "O slightly above C and well below Sl/Sh");

    const auto &workloads = representativeWorkloadNames();
    const auto &designs = ndpDesigns();

    TextTable table(designHeader("workload", designs));

    std::vector<CellSpec> grid;
    for (const auto &wl : workloads) {
        WorkloadSpec spec = specFor(wl, opts);
        for (Design d : designs)
            grid.push_back(cellFor(d, spec, opts));
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    std::size_t cell = 0;
    for (const auto &wl : workloads) {
        std::vector<std::string> cells{wl};
        double base = 0.0;
        for (Design d : designs) {
            const RunMetrics &m = results[cell++];
            if (d == Design::B)
                base = static_cast<double>(m.interHops);
            cells.push_back(
                fmt(base > 0 ? m.interHops / base : 0.0));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    return 0;
}
