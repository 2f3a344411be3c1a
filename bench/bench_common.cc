#include "bench_common.hh"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

namespace abndp
{
namespace bench
{

Options
parseOptions(int argc, char **argv, std::uint32_t defaultScale)
{
    Options opts;
    opts.flags.parse(argc, argv);
    opts.scale = static_cast<std::uint32_t>(
        opts.flags.getUint("scale", defaultScale));
    opts.verify = opts.flags.getBool("verify", false);
    opts.seed = opts.flags.getUint("seed", 42);
    opts.base.seed = opts.flags.getUint("sim-seed", 1);
    opts.run = parseRunFlags(opts.flags);
    opts.threads = opts.run.threads;
    return opts;
}

WorkloadSpec
specFor(const std::string &name, const Options &opts)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.seed = opts.seed;
    spec.scale = opts.scale;
    // Non-graph workloads shrink with the scale knob too so that sweep
    // benches stay fast.
    if (opts.scale < 14) {
        spec.kmeansPoints = 1ull << (opts.scale + 2);
        spec.knnPoints = 1u << (opts.scale + 1);
        spec.knnQueries = 1u << (opts.scale - 3);
        spec.astarQueries = 8;
    }
    return spec;
}

CellSpec
cellFor(Design d, const WorkloadSpec &spec, const Options &opts)
{
    CellSpec cell;
    cell.design = d;
    cell.workload = spec;
    cell.opts.verify = opts.verify;
    cell.opts.fatalOnVerifyFailure = true;
    return cell;
}

std::vector<RunMetrics>
runGrid(const Options &opts, const std::vector<CellSpec> &cells)
{
    return runCells(opts.base, cells, opts.threads);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(v);
    return std::exp(acc / values.size());
}

void
printBanner(const std::string &artifact, const std::string &paper)
{
    std::cout << "==============================================================\n";
    std::cout << "ABNDP reproduction: " << artifact << "\n";
    std::cout << "Paper reports: " << paper << "\n";
    std::cout << "==============================================================\n\n";
}

std::vector<std::string>
designHeader(const std::string &first, const std::vector<Design> &designs)
{
    std::vector<std::string> header{first};
    for (Design d : designs)
        header.push_back(designName(d));
    return header;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream iss(s);
    std::string tok;
    while (std::getline(iss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

bool
extractJsonNumber(const std::string &json, const std::string &key,
                  double &out)
{
    auto pos = json.find("\"" + key + "\":");
    if (pos == std::string::npos)
        return false;
    pos += key.size() + 3;
    try {
        out = std::stod(json.substr(pos));
    } catch (...) {
        return false;
    }
    return true;
}

void
emitJsonRecord(const std::string &json, const std::string &outPath)
{
    std::cout << json << "\n";
    if (outPath.empty())
        return;
    std::ofstream out(outPath);
    if (!out)
        fatal("cannot write ", outPath);
    out << json << "\n";
}

int
compareEventsPerSec(const Options &opts, const std::string &bench,
                    double eventsPerSec)
{
    const std::string comparePath = opts.flags.getString("compare", "");
    if (comparePath.empty())
        return 0;
    double tolerance = opts.flags.getDouble("tolerance", 0.10);
    std::ifstream baseFile(comparePath);
    std::string baseline;
    if (!baseFile || !std::getline(baseFile, baseline)) {
        warn(bench, " baseline ", comparePath,
             " missing; skipping comparison (first run?)");
        return 0;
    }
    double baseEps = 0.0;
    if (!extractJsonNumber(baseline, "events_per_sec", baseEps)
        || baseEps <= 0.0) {
        warn(bench, " baseline ", comparePath,
             " has no usable events_per_sec; skipping comparison");
        return 0;
    }
    double ratio = eventsPerSec / baseEps;
    std::cerr << bench << " compare: " << eventsPerSec
              << " vs baseline " << baseEps << " events/sec (x" << ratio
              << ", tolerance -" << tolerance * 100 << "%)\n";
    if (ratio < 1.0 - tolerance) {
        std::cerr << bench << ": throughput regression beyond "
                  << tolerance * 100 << "% tolerance\n";
        return 1;
    }
    return 0;
}

} // namespace bench
} // namespace abndp
