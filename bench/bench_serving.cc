/**
 * @file
 * Online-serving benchmark (serving extension, not a paper figure):
 * sweeps arrival rate x Zipfian key skew x Table-2 NDP design over an
 * open-loop kv point-lookup stream and reports, per cell, the exact
 * tail-latency percentiles (p50/p95/p99/p99.9), goodput (completions
 * inside the SLO per simulated second), and the SLO-miss rate. The
 * defaults drive a one-million-request stream per cell; all reported
 * figures are simulated metrics and therefore bit-deterministic.
 *
 * --requests/--rates/--skews/--designs/--workload resize the sweep
 * (comma-separated rates in requests/us and Zipf exponents);
 * --slo-ns and --tenants forward to the serving config.
 *
 * --out=FILE writes one machine-readable JSON line with per-design
 * goodput and p99 aggregates (same convention as bench_perf_smoke).
 * --compare=FILE checks those aggregates against a baseline written by
 * a previous --out run: the process exits nonzero when any design's
 * goodput dropped, or its p99 rose, by more than --tolerance (default
 * 0.10). A missing or unparsable baseline warns and passes, so the
 * first CI run on a fresh cache succeeds.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

std::vector<double>
parseCsvDoubles(const std::string &s)
{
    std::vector<double> out;
    for (const std::string &tok : abndp::bench::splitCsv(s))
        out.push_back(std::strtod(tok.c_str(), nullptr));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv);
    const std::uint64_t requests =
        opts.flags.getUint("requests", 1000000);
    const double sloNs = opts.flags.getDouble("slo-ns", 4000.0);
    const std::uint64_t tenants = opts.flags.getUint("tenants", 1);
    const std::string workload =
        opts.flags.getString("workload", "kv");
    const std::string outPath = opts.flags.getString("out", "");

    const std::vector<double> rates =
        parseCsvDoubles(opts.flags.getString("rates", "2,8"));
    const std::vector<double> skews =
        parseCsvDoubles(opts.flags.getString("skews", "0,0.99"));
    const std::vector<std::string> designLetters =
        splitCsv(opts.flags.getString("designs", "B,Sl,O"));
    if (rates.empty() || skews.empty() || designLetters.empty())
        fatal("--rates/--skews/--designs must name at least one cell");
    std::vector<Design> designs;
    for (const std::string &dn : designLetters)
        designs.push_back(designFromName(dn));

    printBanner("Online serving — open-loop tail latency and goodput "
                "over rate x key-skew x design",
                "not a paper artifact; expectation: designs ranked as "
                "in Figure 6 (O tightest tail), skew widening the gap "
                "via hot-key load imbalance, and p99 rising steeply "
                "once the rate approaches a design's capacity");

    WorkloadSpec spec = specFor(workload, opts);

    std::vector<CellSpec> grid;
    for (Design d : designs) {
        for (double rate : rates) {
            for (double skew : skews) {
                CellSpec cell = cellFor(d, spec, opts);
                SystemConfig cfg = opts.base;
                cfg.serving.requests = requests;
                cfg.serving.ratePerUs = rate;
                cfg.serving.zipfS = skew;
                cfg.serving.sloNs = sloNs;
                cfg.serving.tenants =
                    static_cast<std::uint32_t>(tenants);
                cell.config = cfg;
                grid.push_back(cell);
            }
        }
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    TextTable table({"design", "rate/us", "skew", "p50_ns", "p95_ns",
                     "p99_ns", "p999_ns", "mean_ns", "goodput_q/s",
                     "miss_rate", "rejected"});
    std::ostringstream json;
    json << "{\"bench\":\"serving\""
         << ",\"workload\":\"" << workload << "\""
         << ",\"requests\":" << requests
         << ",\"slo_ns\":" << sloNs
         << ",\"cells\":" << grid.size();

    std::size_t cellIdx = 0;
    for (Design d : designs) {
        std::vector<double> goodputs, p99s;
        for (double rate : rates) {
            for (double skew : skews) {
                const RunMetrics &m = results[cellIdx++];
                table.addRow({designName(d), fmt(rate, 1),
                              fmt(skew, 2), fmt(m.servingP50Ns),
                              fmt(m.servingP95Ns), fmt(m.servingP99Ns),
                              fmt(m.servingP999Ns),
                              fmt(m.servingMeanNs),
                              fmt(m.servingGoodputQps, 0),
                              fmt(m.servingSloMissRate, 4),
                              TextTable::fmt(m.servingRejected)});
                goodputs.push_back(m.servingGoodputQps);
                p99s.push_back(m.servingP99Ns);
            }
        }
        json << ",\"goodput_qps_" << designName(d)
             << "\":" << geomean(goodputs) << ",\"p99_ns_"
             << designName(d) << "\":" << geomean(p99s);
    }
    json << "}";
    table.print(std::cout);

    emitJsonRecord(json.str(), outPath);

    const std::string comparePath =
        opts.flags.getString("compare", "");
    if (!comparePath.empty()) {
        double tolerance = opts.flags.getDouble("tolerance", 0.10);
        std::ifstream baseFile(comparePath);
        std::string baseline;
        if (!baseFile || !std::getline(baseFile, baseline)) {
            warn("serving baseline ", comparePath,
                 " missing; skipping comparison (first run?)");
            return 0;
        }
        bool regressed = false;
        for (Design d : designs) {
            const std::string name = designName(d);
            double curGoodput = 0.0, curP99 = 0.0;
            extractJsonNumber(json.str(), "goodput_qps_" + name,
                              curGoodput);
            extractJsonNumber(json.str(), "p99_ns_" + name, curP99);
            double baseGoodput = 0.0, baseP99 = 0.0;
            if (!extractJsonNumber(baseline, "goodput_qps_" + name,
                                   baseGoodput)
                || !extractJsonNumber(baseline, "p99_ns_" + name,
                                      baseP99)
                || baseGoodput <= 0.0 || baseP99 <= 0.0) {
                warn("serving baseline ", comparePath,
                     " has no usable record for design ", name,
                     "; skipping comparison");
                return 0;
            }
            std::cerr << "serving compare " << name << ": goodput "
                      << curGoodput << " vs " << baseGoodput
                      << " q/s, p99 " << curP99 << " vs " << baseP99
                      << " ns (tolerance " << tolerance * 100
                      << "%)\n";
            if (curGoodput < baseGoodput * (1.0 - tolerance)) {
                std::cerr << "serving: goodput regression under design "
                          << name << " beyond " << tolerance * 100
                          << "% tolerance\n";
                regressed = true;
            }
            if (curP99 > baseP99 * (1.0 + tolerance)) {
                std::cerr << "serving: p99 latency regression under "
                          << "design " << name << " beyond "
                          << tolerance * 100 << "% tolerance\n";
                regressed = true;
            }
        }
        if (regressed)
            return 1;
    }
    return 0;
}
