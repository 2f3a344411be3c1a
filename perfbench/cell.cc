#include "cell.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "core/ndp_system.hh"
#include "workloads/factory.hh"

namespace perfbench
{

using namespace abndp;

namespace
{

/** Workload inputs and machine configuration of one named cell. */
struct CellSetup
{
    WorkloadSpec spec;
    SystemConfig cfg;
};

CellSetup
setupFor(const CellParams &p)
{
    CellSetup s;
    s.spec.seed = p.inputSeed;
    SystemConfig base;
    base.seed = p.simSeed;
    if (p.workload == "pr-hlbmig") {
        // Every layer at once: hybrid scoring, Traveller camps,
        // two-tier shedding and block re-homing.
        s.spec.name = "pr";
        s.spec.scale = p.small ? 9 : 14;
        s.cfg = applyDesign(base, Design::HlbM);
    } else if (p.workload == "bfs-b-ddr") {
        // Bypasses scoring, caches and lb; loads the engine, the
        // access path and the DDR bank model.
        s.spec.name = "bfs";
        s.spec.scale = p.small ? 9 : 16;
        s.cfg = applyDesign(base, Design::B);
        s.cfg.dram.backend = MemBackendKind::Ddr;
    } else if (p.workload == "kv-serve") {
        // Open-loop Zipf-0.99 point lookups: serving loop, arrivals
        // and latency recording alongside continuous migration.
        s.spec.name = "kv";
        if (p.small)
            s.spec.kvKeys = 2048;
        s.cfg = applyDesign(base, Design::HlbM);
        s.cfg.serving.requests = p.small ? 2000 : 100000;
        s.cfg.serving.ratePerUs = 32.0;
        s.cfg.serving.zipfS = 0.99;
    } else {
        fatal("perfbench: unknown workload '", p.workload, "'");
    }
    return s;
}

/** Exact nearest-rank p99 of @p samples (reordered), in ns. */
double
nearestRankP99Ns(std::vector<Tick> &samples)
{
    if (samples.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(samples.size())));
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return static_cast<double>(*nth) / static_cast<double>(ticksPerNs);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "pr-hlbmig", "bfs-b-ddr", "kv-serve"};
    return names;
}

CellResult
runCell(const CellParams &params)
{
    CellSetup s = setupFor(params);
    CellResult r;
    Probe probe;
    const bool serving = s.cfg.serving.enabled();

    const auto wall0 = Clock::now();
    auto t0 = Clock::now();
    std::unique_ptr<Workload> wl = makeWorkload(s.spec);
    r.genS = secondsSince(t0);
    if (params.traced) {
        wl = std::make_unique<TimedWorkload>(std::move(wl), probe);
        registerTimedPolicy();
        setActiveProbe(&probe);
        s.cfg.sched.policyName = timedPolicyName;
    }

    t0 = Clock::now();
    NdpSystem sys(s.cfg);
    r.ctorS = secondsSince(t0);

    // A batch run has no requests; its latency tail is that of block
    // reads served below the L1 (camp caches and home DRAM).
    std::vector<Tick> readLat;
    if (!serving) {
        sys.accessPath().setLevelObserver(
            [&readLat](const AccessRequest &req, AccessLevel level,
                       Tick done) {
                if (level == AccessLevel::TravellerCamp
                    || level == AccessLevel::HomeDram)
                    readLat.push_back(done - req.start);
            });
    }

    t0 = Clock::now();
    r.metrics = sys.run(*wl);
    r.runS = secondsSince(t0);

    t0 = Clock::now();
    r.verified = wl->verify();
    if (serving)
        r.verified = dynamic_cast<QueryService &>(*wl).verifyServed()
            && r.verified;
    r.verifyS = secondsSince(t0);

    t0 = Clock::now();
    std::ostringstream os;
    sys.statsRegistry().dump(os);
    r.dump = os.str();
    r.dumpS = secondsSince(t0);
    r.wallS = secondsSince(wall0);

    r.p99Ns = serving ? r.metrics.servingP99Ns
                      : nearestRankP99Ns(readLat);
    setActiveProbe(nullptr);
    r.probe = probe;
    return r;
}

std::string
digestOf(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    static const char hex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = hex[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace perfbench
