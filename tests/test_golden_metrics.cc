/**
 * @file
 * Golden-metrics regression suite: locks the full hierarchical stats
 * dump of every Table-2 NDP design on a fixed small configuration
 * against checked-in golden files, compared bit-exactly.
 *
 * Any change to scheduler, cache, network, DRAM, or energy behavior —
 * intended or not — shows up here as a one-line diff instead of a
 * silently shifted figure. To regenerate after an intentional change:
 *
 *     ABNDP_UPDATE_GOLDEN=1 ./build/tests/abndp_tests \
 *         --gtest_filter='GoldenMetrics.*'
 *
 * then review the golden diff like any other code change (CLAUDE.md).
 * Dumps are stable across build types because all float formatting goes
 * through obs::formatStatValue() and the build compiles with
 * -ffp-contract=off.
 *
 * Every cell also checks the RunMetrics that run() returns against the
 * registry dump of the same run, so the one end-of-run harvest both
 * drivers share stays locked to the registry in batch and serving mode.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "core/ndp_system.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/**
 * Small fixed geometry: 2x2 mesh, 2 units/stack, 2 cores/unit = 8
 * units / 16 cores. Kept deliberately lean so the six golden files stay
 * reviewable (~500 lines each), while still exercising inter-stack
 * forwarding, stealing, and the Traveller cache.
 */
SystemConfig
goldenConfig(Design d)
{
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 2;
    return applyDesign(cfg, d);
}

std::string
goldenPath(Design d)
{
    return std::string(ABNDP_GOLDEN_DIR) + "/" + designName(d)
           + ".stats";
}

std::string
servingGoldenPath(Design d)
{
    return std::string(ABNDP_GOLDEN_DIR) + "/serving_"
           + designName(d) + ".stats";
}

/**
 * The golden geometry with a short kv serving stream on top: 1000
 * Zipf-skewed open-loop arrivals across two tenants, so the locked
 * dump covers the full serving stats tree (counters, exact
 * percentiles, per-tenant vectors) on every design.
 */
SystemConfig
servingGoldenConfig(Design d)
{
    SystemConfig cfg = goldenConfig(d);
    cfg.serving.requests = 1000;
    cfg.serving.ratePerUs = 4.0;
    cfg.serving.zipfS = 0.99;
    cfg.serving.tenants = 2;
    cfg.serving.tenantWeights = {3.0, 1.0};
    return cfg;
}

/**
 * Check every RunMetrics field that has a registry twin against the
 * registry dump of the same run, compared as formatted dump text.
 * Per-unit counters compare against the sum of their unit lines.
 * Twins of conditional nodes (lb, serving, recovery, the DDR-only
 * counters) must read zero when their node is absent.
 */
void
checkHarvestMatchesRegistry(const RunMetrics &m, const std::string &dump,
                            const std::string &label)
{
    std::map<std::string, std::string> reg;
    std::map<std::string, double> unitSum;
    std::vector<double> activeTicks;
    const std::regex unitKey(R"(unit\d+(\.core\d+)?\.(.*))");
    std::istringstream lines(dump);
    std::string name, value;
    while (lines >> name >> value) {
        reg[name] = value;
        std::smatch sm;
        if (!std::regex_match(name, sm, unitKey))
            continue;
        unitSum[sm[2]] += std::stod(value);
        if (sm[2] == "activeTicks")
            activeTicks.push_back(std::stod(value));
    }

    enum Presence { Required, ZeroIfAbsent, IfPresent };
    auto expect = [&](const std::string &key, double v, bool integer,
                      Presence p) {
        auto it = reg.find(key);
        if (it == reg.end()) {
            EXPECT_NE(p, Required) << label << ": no " << key;
            if (p == ZeroIfAbsent)
                EXPECT_EQ(v, 0.0) << label << ": " << key;
            return;
        }
        EXPECT_EQ(obs::formatStatValue(v, integer), it->second)
            << label << ": " << key;
    };
    auto count = [&](const std::string &key, std::uint64_t v,
                     Presence p = Required) {
        expect(key, static_cast<double>(v), true, p);
    };
    auto real = [&](const std::string &key, double v,
                    Presence p = Required) {
        expect(key, v, false, p);
    };
    auto units = [&](const std::string &suffix, std::uint64_t v,
                     Presence p = Required) {
        auto it = unitSum.find(suffix);
        if (it == unitSum.end()) {
            EXPECT_NE(p, Required) << label << ": no unit*." << suffix;
            if (p == ZeroIfAbsent)
                EXPECT_EQ(v, 0u) << label << ": " << suffix;
            return;
        }
        EXPECT_EQ(static_cast<double>(v), it->second)
            << label << ": sum of unit*." << suffix;
    };

    const bool serving = reg.count("serving.windows") != 0;
    count("system.finalTick", m.ticks);
    count(serving ? "serving.windows" : "system.epochs", m.epochs);
    count("system.tasks", m.tasks);
    count("system.forwardedTasks", m.forwardedTasks);
    count("system.stolenTasks", m.stolenTasks);
    count("system.stealAttempts", m.stealAttempts);
    count("system.simEvents", m.simEvents);
    count("sched.decisions", m.schedDecisions);
    count("net.interHops", m.interHops);
    count("net.intraTraversals", m.intraTraversals);
    count("net.dropped", m.netDropped);
    count("net.retries", m.netRetries);
    count("mem.campHits", m.campHits);
    count("mem.campMisses", m.campMisses);
    count("mem.cacheInsertions", m.cacheInserts);
    real("mem.campHitRate", m.campHitRate());
    real("mem.readLatencyNs.mean", m.readLatMeanNs);
    real("mem.readLatencyNs.max", m.readLatMaxNs);
    real("energy.coreSramPj", m.energy.coreSramPj);
    real("energy.dramMemPj", m.energy.dramMemPj);
    real("energy.dramCachePj", m.energy.dramCachePj);
    real("energy.netPj", m.energy.netPj);
    real("energy.staticPj", m.energy.staticPj);
    real("energy.totalPj", m.energy.total());

    units("pb.hits", m.pbHits);
    units("pb.lateHits", m.pbLateHits);
    units("pb.misses", m.pbMisses);
    units("l1d.hits", m.l1Hits);
    units("l1d.misses", m.l1Misses);
    units("dram.reads", m.dramReads);
    units("dram.writes", m.dramWrites);
    units("dram.rowMisses", m.dramRowMisses);
    units("dram.eccRetries", m.dramEccRetries);
    // Only the DDR backend registers these two.
    units("dram.rowHits", m.dramRowHits, IfPresent);
    units("dram.actStalls", m.dramActStalls, ZeroIfAbsent);
    EXPECT_EQ(activeTicks, std::vector<double>(m.coreActiveTicks.begin(),
                                               m.coreActiveTicks.end()))
        << label << ": unit*.core*.activeTicks";

    count("lb.tasksShedIntra", m.tasksShedIntra, ZeroIfAbsent);
    count("lb.tasksShedInter", m.tasksShedInter, ZeroIfAbsent);
    count("lb.blocksMigrated", m.blocksMigrated, ZeroIfAbsent);
    count("lb.migrationInvalidations", m.migrationInvalidations,
          ZeroIfAbsent);
    count("lb.migrationTrafficBytes", m.migrationTrafficBytes,
          ZeroIfAbsent);
    count("recovery.tasksRecovered", m.tasksRecovered, ZeroIfAbsent);
    count("recovery.tasksRedispatched", m.tasksRedispatched,
          ZeroIfAbsent);
    count("recovery.recoveryTrafficBytes", m.recoveryTrafficBytes,
          ZeroIfAbsent);

    count("serving.injected", m.servingInjected, ZeroIfAbsent);
    count("serving.rejected", m.servingRejected, ZeroIfAbsent);
    count("serving.completedDirect", m.servingCompletedDirect,
          ZeroIfAbsent);
    count("serving.completedRecovered", m.servingCompletedRecovered,
          ZeroIfAbsent);
    count("serving.sloMisses", m.servingSloMisses, ZeroIfAbsent);
    count("serving.windows", m.servingWindows, ZeroIfAbsent);
    real("serving.meanNs", m.servingMeanNs, ZeroIfAbsent);
    real("serving.p50Ns", m.servingP50Ns, ZeroIfAbsent);
    real("serving.p95Ns", m.servingP95Ns, ZeroIfAbsent);
    real("serving.p99Ns", m.servingP99Ns, ZeroIfAbsent);
    real("serving.p999Ns", m.servingP999Ns, ZeroIfAbsent);
    real("serving.goodputQps", m.servingGoodputQps, ZeroIfAbsent);
    real("serving.sloMissRate", m.servingSloMissRate, ZeroIfAbsent);
}

/**
 * Run @p workload under @p cfg, check the returned RunMetrics against
 * the registry, and return the full registry dump.
 */
std::string
runCheckAndDump(const SystemConfig &cfg, const std::string &workload,
                Design d)
{
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny(workload));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify()) << designName(d);
    std::ostringstream oss;
    sys.statsRegistry().dump(oss);
    checkHarvestMatchesRegistry(
        m, oss.str(), workload + " under " + designName(d));
    return oss.str();
}

/** Run pr-tiny under @p d and return the full registry dump. */
std::string
runAndDump(Design d)
{
    return runCheckAndDump(goldenConfig(d), "pr", d);
}

/** Serve kv-tiny under @p d and return the full registry dump. */
std::string
runAndDumpServing(Design d)
{
    return runCheckAndDump(servingGoldenConfig(d), "kv", d);
}

std::string
ddrGoldenPath(Design d)
{
    return std::string(ABNDP_GOLDEN_DIR) + "/ddr_" + designName(d)
           + ".stats";
}

/**
 * The golden geometry on the bank-state DDR backend with every
 * DdrBackend-only mechanism lit up: adaptive page policy, burst-level
 * bank interleave, bank groups, and the tRAS/tWR/tFAW constraints.
 * Locks the per-bank vectors, rowHits/actStalls counters, and every
 * latency shift the state machine introduces.
 */
SystemConfig
ddrGoldenConfig(Design d)
{
    SystemConfig cfg = goldenConfig(d);
    cfg.dram.backend = MemBackendKind::Ddr;
    cfg.dram.pagePolicy = PagePolicy::Adaptive;
    cfg.dram.addrMap = DramAddrMapKind::RowColumnBank;
    return cfg;
}

/** Run pr-tiny under @p d on the DDR backend and dump the registry. */
std::string
runAndDumpDdr(Design d)
{
    return runCheckAndDump(ddrGoldenConfig(d), "pr", d);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** First line where @p a and @p b disagree, for failure messages. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    std::size_t lineNo = 0;
    while (true) {
        bool okA = static_cast<bool>(std::getline(sa, la));
        bool okB = static_cast<bool>(std::getline(sb, lb));
        ++lineNo;
        if (!okA && !okB)
            return "(no difference found)";
        if (!okA || !okB || la != lb) {
            std::ostringstream oss;
            oss << "line " << lineNo << ":\n  golden: "
                << (okA ? la : "<eof>") << "\n  actual: "
                << (okB ? lb : "<eof>");
            return oss.str();
        }
    }
}

void
checkAgainstGolden(const std::string &dump, const std::string &path,
                   const std::string &label)
{
    if (std::getenv("ABNDP_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << dump;
        std::cout << "[golden] regenerated " << path << "\n";
        return;
    }

    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << path
        << "; regenerate with ABNDP_UPDATE_GOLDEN=1 (see CLAUDE.md)";
    EXPECT_EQ(golden, dump)
        << "stats dump for " << label << " diverged from " << path
        << "\nfirst " << firstDiff(golden, dump);
}

void
checkDesign(Design d)
{
    checkAgainstGolden(runAndDump(d), goldenPath(d),
                       std::string("design ") + designName(d));
}

void
checkServingDesign(Design d)
{
    checkAgainstGolden(runAndDumpServing(d), servingGoldenPath(d),
                       std::string("serving design ") + designName(d));
}

void
checkDdrDesign(Design d)
{
    checkAgainstGolden(runAndDumpDdr(d), ddrGoldenPath(d),
                       std::string("ddr design ") + designName(d));
}

} // namespace

TEST(GoldenMetrics, DesignB) { checkDesign(Design::B); }
TEST(GoldenMetrics, DesignSm) { checkDesign(Design::Sm); }
TEST(GoldenMetrics, DesignSl) { checkDesign(Design::Sl); }
TEST(GoldenMetrics, DesignSh) { checkDesign(Design::Sh); }
TEST(GoldenMetrics, DesignC) { checkDesign(Design::C); }
TEST(GoldenMetrics, DesignO) { checkDesign(Design::O); }

/**
 * Negative control: a single-counter perturbation of the dump must be
 * caught by the bit-exact comparison — this is what guarantees the
 * suite has no tolerance window a real regression could hide in.
 */
TEST(GoldenMetrics, CatchesOneCounterPerturbation)
{
    if (std::getenv("ABNDP_UPDATE_GOLDEN"))
        GTEST_SKIP() << "regenerating goldens";

    const std::string golden = readFile(goldenPath(Design::B));
    ASSERT_FALSE(golden.empty());

    // Bump the final digit of the first counter line ("system.epochs
    // <n>") by one, exactly what an off-by-one regression would do.
    std::string perturbed = golden;
    auto nl = perturbed.find('\n');
    ASSERT_NE(nl, std::string::npos);
    ASSERT_GT(nl, 0u);
    char &digit = perturbed[nl - 1];
    ASSERT_TRUE(digit >= '0' && digit <= '9') << "unexpected format";
    digit = digit == '9' ? '0' : static_cast<char>(digit + 1);

    EXPECT_NE(perturbed, golden);
    EXPECT_NE(perturbed, runAndDump(Design::B));
}

/**
 * Serving golden lock: the same geometry under a 1000-request Zipfian
 * kv stream, one dump per NDP design (H has no serving driver). Locks
 * the exact tail percentiles, goodput, SLO-miss counters, and
 * per-tenant vectors bit-for-bit — any change to the arrival process,
 * sampler, admission control, or completion accounting lands here as
 * a reviewable one-line diff.
 */
TEST(GoldenMetrics, ServingB) { checkServingDesign(Design::B); }
TEST(GoldenMetrics, ServingSm) { checkServingDesign(Design::Sm); }
TEST(GoldenMetrics, ServingSl) { checkServingDesign(Design::Sl); }
TEST(GoldenMetrics, ServingSh) { checkServingDesign(Design::Sh); }
TEST(GoldenMetrics, ServingC) { checkServingDesign(Design::C); }
TEST(GoldenMetrics, ServingO) { checkServingDesign(Design::O); }

/**
 * DDR golden lock: the same geometry and workload, every design, on
 * the bank-state backend (adaptive page policy, rcb interleave). The
 * MeterBackend goldens above prove the seam extraction is
 * bit-neutral; these lock the DDR state machine itself — page-policy
 * decisions, tFAW stalls, per-bank vectors — against silent drift.
 */
TEST(GoldenMetrics, DdrB) { checkDdrDesign(Design::B); }
TEST(GoldenMetrics, DdrSm) { checkDdrDesign(Design::Sm); }
TEST(GoldenMetrics, DdrSl) { checkDdrDesign(Design::Sl); }
TEST(GoldenMetrics, DdrSh) { checkDdrDesign(Design::Sh); }
TEST(GoldenMetrics, DdrC) { checkDdrDesign(Design::C); }
TEST(GoldenMetrics, DdrO) { checkDdrDesign(Design::O); }

/**
 * HLB golden locks: the hierarchical-balancer design points on the
 * same batch, serving, and DDR geometries. These pin the shed/migration
 * counters, the re-homed traffic and invalidation accounting, and —
 * because the lb engine runs inside the exchange windows — every
 * downstream scheduling stat the balancer perturbs. The classic
 * goldens above double as the feature-off control: they must stay
 * byte-identical without regeneration while HLB is unconfigured.
 */
TEST(GoldenMetrics, DesignHlb) { checkDesign(Design::Hlb); }
TEST(GoldenMetrics, DesignHlbM) { checkDesign(Design::HlbM); }
TEST(GoldenMetrics, ServingHlbM) { checkServingDesign(Design::HlbM); }
TEST(GoldenMetrics, DdrHlbM) { checkDdrDesign(Design::HlbM); }

/** Negative control for the HLB goldens: one flipped digit in a
 *  balancer-only counter must fail the bit-exact comparison. */
TEST(GoldenMetrics, HlbCatchesOneCounterPerturbation)
{
    if (std::getenv("ABNDP_UPDATE_GOLDEN"))
        GTEST_SKIP() << "regenerating goldens";

    const std::string golden = readFile(goldenPath(Design::HlbM));
    ASSERT_FALSE(golden.empty());

    // Perturb the last digit of the tasksShedIntra counter line — a
    // stat that only exists when the balancer is configured.
    auto pos = golden.find("tasksShedIntra");
    ASSERT_NE(pos, std::string::npos);
    auto nl = golden.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    std::string perturbed = golden;
    char &digit = perturbed[nl - 1];
    ASSERT_TRUE(digit >= '0' && digit <= '9') << "unexpected format";
    digit = digit == '9' ? '0' : static_cast<char>(digit + 1);

    EXPECT_NE(perturbed, golden);
    EXPECT_NE(perturbed, runAndDump(Design::HlbM));
}

/** Negative control for the DDR goldens: one flipped digit in a
 *  backend-only counter must fail the bit-exact comparison. */
TEST(GoldenMetrics, DdrCatchesOneCounterPerturbation)
{
    if (std::getenv("ABNDP_UPDATE_GOLDEN"))
        GTEST_SKIP() << "regenerating goldens";

    const std::string golden = readFile(ddrGoldenPath(Design::O));
    ASSERT_FALSE(golden.empty());

    // Perturb the last digit of the first rowHits line — a counter
    // that only the bank-state backend produces.
    auto pos = golden.find("rowHits");
    ASSERT_NE(pos, std::string::npos);
    auto nl = golden.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    std::string perturbed = golden;
    char &digit = perturbed[nl - 1];
    ASSERT_TRUE(digit >= '0' && digit <= '9') << "unexpected format";
    digit = digit == '9' ? '0' : static_cast<char>(digit + 1);

    EXPECT_NE(perturbed, golden);
    EXPECT_NE(perturbed, runAndDumpDdr(Design::O));
}

/** Negative control for the serving goldens, same recipe as above. */
TEST(GoldenMetrics, ServingCatchesOneCounterPerturbation)
{
    if (std::getenv("ABNDP_UPDATE_GOLDEN"))
        GTEST_SKIP() << "regenerating goldens";

    const std::string golden = readFile(servingGoldenPath(Design::O));
    ASSERT_FALSE(golden.empty());

    // Perturb the last digit of the serving.injected counter line —
    // the canonical off-by-one a lost or double-counted request would
    // produce.
    auto pos = golden.find("serving.injected");
    ASSERT_NE(pos, std::string::npos);
    auto nl = golden.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    std::string perturbed = golden;
    char &digit = perturbed[nl - 1];
    ASSERT_TRUE(digit >= '0' && digit <= '9') << "unexpected format";
    digit = digit == '9' ? '0' : static_cast<char>(digit + 1);

    EXPECT_NE(perturbed, golden);
    EXPECT_NE(perturbed, runAndDumpServing(Design::O));
}

} // namespace abndp
