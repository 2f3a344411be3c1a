/**
 * @file
 * perfbench_cell: run one benchmark cell in this process and print one
 * JSON line of raw measurements. run.py starts one process per cell
 * and aggregates; see README.md.
 *
 *     perfbench_cell --workload=pr-hlbmig --input-seed=1 --sim-seed=1
 *                    [--trace=1] [--small]
 */

#include <sys/resource.h>

#include <iostream>
#include <sstream>

#include "cell.hh"
#include "common/cli.hh"

namespace
{

/** Peak resident set of this process, in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;

    abndp::CliFlags flags(argc, argv);
    CellParams p;
    p.workload = flags.getString("workload", "");
    p.inputSeed = flags.getUint("input-seed", 1);
    p.simSeed = flags.getUint("sim-seed", 1);
    p.traced = flags.getBool("trace", false);
    p.small = flags.getBool("small", false);

    const CellResult r = runCell(p);
    const abndp::RunMetrics &m = r.metrics;
    const Probe &pr = r.probe;

    std::ostringstream js;
    js.precision(17);
    auto num = [&js](const char *key, auto value) {
        js << ",\"" << key << "\":" << value;
    };
    js << "{\"verified\":" << (r.verified ? "true" : "false")
       << ",\"digest\":\"" << digestOf(r.dump) << "\"";
    num("gen_s", r.genS);
    num("ctor_s", r.ctorS);
    num("run_s", r.runS);
    num("verify_s", r.verifyS);
    num("dump_s", r.dumpS);
    num("wall_s", r.wallS);
    num("peak_rss_mb", peakRssMb());
    num("events", m.simEvents);
    num("tasks", m.tasks);
    num("ticks", m.ticks);
    num("energy_pj", m.energy.total());
    num("p99_ns", r.p99Ns);
    num("goodput_qps", m.servingGoodputQps);
    num("utilization", m.utilization());
    num("imbalance", m.imbalance());
    num("read_lat_ns", m.readLatMeanNs);
    num("decisions", m.schedDecisions);
    num("forwarded", m.forwardedTasks);
    num("steal_attempts", m.stealAttempts);
    num("stolen", m.stolenTasks);
    num("shed_intra", m.tasksShedIntra);
    num("shed_inter", m.tasksShedInter);
    num("blocks_migrated", m.blocksMigrated);
    num("migration_invalidations", m.migrationInvalidations);
    num("migration_bytes", m.migrationTrafficBytes);
    num("camp_hits", m.campHits);
    num("camp_misses", m.campMisses);
    num("inserts", m.cacheInserts);
    num("pb_hits", m.pbHits);
    num("pb_late_hits", m.pbLateHits);
    num("pb_misses", m.pbMisses);
    num("l1_hits", m.l1Hits);
    num("l1_misses", m.l1Misses);
    num("inter_hops", m.interHops);
    num("intra_traversals", m.intraTraversals);
    num("mem_reads", m.dramReads);
    num("mem_writes", m.dramWrites);
    num("row_hits", m.dramRowHits);
    num("row_misses", m.dramRowMisses);
    num("act_stalls", m.dramActStalls);
    num("injected", m.servingInjected);
    num("rejected", m.servingRejected);
    num("served", m.servingCompletedDirect + m.servingCompletedRecovered);
    num("windows", m.servingWindows);
    num("p50_ns", m.servingP50Ns);
    if (p.traced) {
        num("choose_s", pr.chooseS);
        num("choose_calls", pr.chooseCalls);
        num("wl_setup_s", pr.setupS);
        num("exec_s", pr.execS);
        num("exec_calls", pr.execCalls);
        num("epoch_s", pr.epochS);
    }
    js << "}";
    std::cout << js.str() << std::endl;
    return r.verified ? 0 : 1;
}
