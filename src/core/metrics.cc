#include "core/metrics.hh"

#include "common/logging.hh"
#include "obs/stats_registry.hh"

namespace abndp
{

namespace
{

/** Sum of the stats @p path matches (0 when none does). */
double
total(const obs::StatsRegistry &reg, const char *path)
{
    double sum = 0.0;
    for (double v : reg.read(path))
        sum += v;
    return sum;
}

/** The lb, recovery and serving nodes exist only when configured. */
double
zero(const obs::StatsRegistry &)
{
    return 0.0;
}

/** A serving run's epochs are its windows. */
double
batchEpochs(const obs::StatsRegistry &reg)
{
    return total(reg, "system.epochs");
}

/** Only the DDR backend registers rowHits; every backend has them. */
double
rowHitsFromMisses(const obs::StatsRegistry &reg)
{
    return total(reg, "unit*.dram.reads") + total(reg, "unit*.dram.writes")
        - total(reg, "unit*.dram.rowMisses");
}

} // namespace

const std::vector<MetricRow> &
metricRows()
{
    using M = RunMetrics;
    using E = EnergyBreakdown;
    static const std::vector<MetricRow> rows = {
        {"system.finalTick", &M::ticks},
        {"serving.windows", &M::epochs, batchEpochs},
        {"system.tasks", &M::tasks},
        {"net.interHops", &M::interHops},
        {"net.intraTraversals", &M::intraTraversals},
        {"energy.coreSramPj", &E::coreSramPj},
        {"energy.dramMemPj", &E::dramMemPj},
        {"energy.dramCachePj", &E::dramCachePj},
        {"energy.netPj", &E::netPj},
        {"energy.staticPj", &E::staticPj},
        {"unit*.core*.activeTicks", &M::coreActiveTicks},
        {nullptr, &M::epochTicks},
        {nullptr, &M::epochTasks},
        {"mem.campHits", &M::campHits},
        {"mem.campMisses", &M::campMisses},
        {"mem.cacheInsertions", &M::cacheInserts},
        {"unit*.pb.hits", &M::pbHits},
        {"unit*.pb.lateHits", &M::pbLateHits},
        {"unit*.pb.misses", &M::pbMisses},
        {"unit*.core*.l1d.hits", &M::l1Hits},
        {"unit*.core*.l1d.misses", &M::l1Misses},
        {"system.stealAttempts", &M::stealAttempts},
        {"system.stolenTasks", &M::stolenTasks},
        {"system.forwardedTasks", &M::forwardedTasks},
        {"sched.decisions", &M::schedDecisions},
        {"unit*.dram.reads", &M::dramReads},
        {"unit*.dram.writes", &M::dramWrites},
        {"unit*.dram.rowMisses", &M::dramRowMisses},
        {"unit*.dram.rowHits", &M::dramRowHits, rowHitsFromMisses},
        {"unit*.dram.actStalls", &M::dramActStalls, zero},
        {"net.dropped", &M::netDropped},
        {"net.retries", &M::netRetries},
        {"unit*.dram.eccRetries", &M::dramEccRetries},
        {"recovery.unitsFailed", &M::unitsFailed, zero},
        {"recovery.tasksRecovered", &M::tasksRecovered, zero},
        {"recovery.tasksRedispatched", &M::tasksRedispatched, zero},
        {"recovery.recoveryTrafficBytes", &M::recoveryTrafficBytes, zero},
        {"serving.injected", &M::servingInjected, zero},
        {"serving.rejected", &M::servingRejected, zero},
        {"serving.completedDirect", &M::servingCompletedDirect, zero},
        {"serving.completedRecovered", &M::servingCompletedRecovered, zero},
        {"serving.sloMisses", &M::servingSloMisses, zero},
        {"serving.windows", &M::servingWindows, zero},
        {"serving.p50Ns", &M::servingP50Ns, zero},
        {"serving.p95Ns", &M::servingP95Ns, zero},
        {"serving.p99Ns", &M::servingP99Ns, zero},
        {"serving.p999Ns", &M::servingP999Ns, zero},
        {"serving.meanNs", &M::servingMeanNs, zero},
        {"serving.goodputQps", &M::servingGoodputQps, zero},
        {"serving.sloMissRate", &M::servingSloMissRate, zero},
        {"lb.tasksShedIntra", &M::tasksShedIntra, zero},
        {"lb.tasksShedInter", &M::tasksShedInter, zero},
        {"lb.blocksMigrated", &M::blocksMigrated, zero},
        {"lb.migrationInvalidations", &M::migrationInvalidations, zero},
        {"lb.migrationTrafficBytes", &M::migrationTrafficBytes, zero},
        {"mem.readLatencyNs.mean", &M::readLatMeanNs},
        {"mem.readLatencyNs.max", &M::readLatMaxNs},
        {"system.simEvents", &M::simEvents},
    };
    return rows;
}

void
RunMetrics::harvest(const obs::StatsRegistry &reg)
{
    for (const MetricRow &row : metricRows()) {
        if (row.path == nullptr)
            continue;
        std::vector<double> vals = reg.read(row.path);
        if (vals.empty()) {
            if (row.ifAbsent == nullptr)
                panic("no stat matches ", row.path,
                      ", which RunMetrics requires");
            vals.push_back(row.ifAbsent(reg));
        }
        row.visit(*this, [&vals](auto &field) {
            using T = std::remove_reference_t<decltype(field)>;
            if constexpr (std::is_arithmetic_v<T>) {
                field = static_cast<T>(vals[0]);
                for (std::size_t i = 1; i < vals.size(); ++i)
                    field += static_cast<T>(vals[i]);
            } else {
                field.assign(vals.begin(), vals.end());
            }
        });
    }
}

} // namespace abndp
