/**
 * @file
 * abndp_sim — the command-line simulator front end.
 *
 * Runs any workload under any Table-2 design on any system geometry and
 * prints a summary, the stats-registry dump (--stats), or machine-
 * readable JSON (--json). This is the binary a user scripts sweeps with.
 *
 * Examples:
 *   abndp_sim --workload=pr --design=O --scale=14
 *   abndp_sim --workload=knn --design=Sl --mesh=8 --stats
 *   abndp_sim --workload=gcn --design=O --camps=7 --bypass=0.2 --json
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "core/ndp_system.hh"
#include "core/stats_report.hh"
#include "driver/experiment.hh"
#include "driver/run_flags.hh"
#include "host/host_system.hh"
#include "workloads/factory.hh"

namespace
{

void
printUsage()
{
    using namespace abndp;
    const auto &suite = allWorkloadNames();
    std::string workloads;
    for (const auto &name : suite)
        workloads += std::string(workloads.empty() ? "" : "|") + name;
    // Serving-only services (kv) are not in the Figure-6 suite.
    for (const auto &name : servingWorkloadNames())
        if (std::find(suite.begin(), suite.end(), name) == suite.end())
            workloads += "|" + name;
    std::string designs;
    for (Design d : allDesigns())
        designs += std::string(designs.empty() ? "" : "|") + designName(d);

    std::cout <<
        "abndp_sim — ABNDP system simulator\n"
        "\n"
        "Workload:   --workload=" << workloads << "\n" <<
        "            --scale=N (graph: 2^N vertices) --edge-factor=N\n"
        "            --seed=N --max-epochs=N --verify\n"
        "Design:     --design=" << designs << "\n" <<
        "System:     --mesh=N (NxN stacks) --units-per-stack=N\n"
        "            --cores-per-unit=N --mem-mb=N\n"
        "Traveller:  --camps=C --ratio=R (cache = 1/R of local DRAM)\n"
        "            --assoc=N --bypass=P --skewed=0|1\n"
        "Scheduler:  --alpha=A (B = A*Dinter) --exchange-interval=CYCLES\n"
        "            --pruned-scoring\n"
        "            --intra-noc=crossbar|ring\n"
        "Inputs:     --graph-file=PATH (SNAP edge list)\n"
        "            --points/--knn-points/--queries/--astar-queries\n"
        "            --explicit-hints (programmer hint.workload)\n"
        "Output:     --stats (registry dump + host time) --json\n"
        "            --print-config --heatmap\n"
        "            --stats-interval=N (deltas every N epochs/windows)\n"
        "            --stats-out=FILE (interval dump target)\n"
        "            --trace-out=FILE (Chrome/Perfetto trace JSON)\n"
        "            --trace-buffer-events=N (tracer ring capacity)\n"
        "Memory:     --mem-backend=meter|ddr (timing backend)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    if (flags.has("help")) {
        printUsage();
        return 0;
    }

    WorkloadSpec spec;
    spec.name = flags.getString("workload", "pr");
    spec.scale = static_cast<std::uint32_t>(flags.getUint("scale", 13));
    spec.edgeFactor =
        static_cast<std::uint32_t>(flags.getUint("edge-factor", 16));
    spec.seed = flags.getUint("seed", 42);
    spec.graphFile = flags.getString("graph-file", "");
    spec.explicitLoadHints = flags.getBool("explicit-hints", false);
    spec.kmeansPoints = flags.getUint("points", spec.kmeansPoints);
    spec.knnPoints = static_cast<std::uint32_t>(
        flags.getUint("knn-points", spec.knnPoints));
    spec.knnQueries = static_cast<std::uint32_t>(
        flags.getUint("queries", spec.knnQueries));
    spec.astarQueries = static_cast<std::uint32_t>(
        flags.getUint("astar-queries", spec.astarQueries));

    SystemConfig cfg;
    auto mesh = static_cast<std::uint32_t>(flags.getUint("mesh", 4));
    cfg.meshX = cfg.meshY = mesh;
    cfg.unitsPerStack = static_cast<std::uint32_t>(
        flags.getUint("units-per-stack", cfg.unitsPerStack));
    cfg.coresPerUnit = static_cast<std::uint32_t>(
        flags.getUint("cores-per-unit", cfg.coresPerUnit));
    if (flags.has("mem-mb"))
        cfg.memBytesPerUnit = flags.getUint("mem-mb", 512) << 20;
    cfg.traveller.campCount =
        static_cast<std::uint32_t>(flags.getUint("camps", 3));
    cfg.traveller.ratioDenom = flags.getUint("ratio", 64);
    cfg.traveller.assoc =
        static_cast<std::uint32_t>(flags.getUint("assoc", 4));
    cfg.traveller.bypassProb = flags.getDouble("bypass", 0.4);
    cfg.traveller.skewedMapping = flags.getBool("skewed", true);
    if (flags.has("alpha")) {
        cfg.sched.autoAlpha = false;
        cfg.sched.hybridAlpha = flags.getDouble("alpha", 3.0);
    }
    cfg.sched.exchangeIntervalCycles =
        flags.getUint("exchange-interval", 100000);
    if (flags.getString("intra-noc", "crossbar") == "ring")
        cfg.net.intraTopology = IntraTopology::Ring;
    if (flags.getBool("pruned-scoring", false))
        cfg.sched.exhaustiveScoring = false;
    cfg.maxEpochs = flags.getUint("max-epochs", 0);
    cfg.seed = flags.getUint("sim-seed", 1);
    cfg.traceBufferEvents =
        flags.getUint("trace-buffer-events", cfg.traceBufferEvents);
    applyRunFlags(parseRunFlags(flags, /*threadsDefault=*/1), cfg);

    Design design = designFromName(flags.getString("design", "O"));
    cfg = applyDesign(cfg, design);

    const bool printConfig = flags.getBool("print-config", false);
    const bool verify = flags.getBool("verify", false);
    const bool json = flags.getBool("json", false);
    const bool stats = flags.getBool("stats", false);
    const bool heatmap = flags.getBool("heatmap", false);
    flags.rejectUnread();

    if (printConfig) {
        cfg.print(std::cout);
        std::cout << "\n";
    }

    auto wl = makeWorkload(spec);
    RunMetrics m;
    if (design == Design::H) {
        HostSystem host(cfg);
        m = host.run(*wl);
        if (verify && !wl->verify())
            fatal("verification failed");
        if (json) {
            dumpJson(std::cout, cfg, m);
            std::cout << "\n";
            return 0;
        }
    } else {
        NdpSystem sys(cfg);
        m = sys.run(*wl);
        if (verify && !wl->verify())
            fatal("verification failed");
        if (json) {
            dumpJson(std::cout, cfg, m);
            std::cout << "\n";
            return 0;
        }
        if (stats) {
            printStats(std::cout, sys, m);
            if (heatmap)
                dumpHeatmap(std::cout, cfg, m);
            return 0;
        }
        if (heatmap)
            dumpHeatmap(std::cout, cfg, m);
    }

    std::cout << spec.name << " under " << designName(design) << ": "
              << m.tasks << " tasks in " << m.seconds() * 1e3
              << " ms simulated (" << m.epochs << " epochs), "
              << m.interHops << " inter-stack hops, "
              << m.energy.total() / 1e9 << " mJ, utilization "
              << m.utilization() << ", imbalance x" << m.imbalance()
              << "\n";
    return 0;
}
