/**
 * @file
 * Shared infrastructure for the benchmark binaries: bench_paper (every
 * paper table and figure) and the extension benches. Every binary runs
 * standalone with small defaults and accepts --scale / --seed /
 * --verify / --threads flags to change fidelity.
 */

#ifndef ABNDP_BENCH_BENCH_COMMON_HH
#define ABNDP_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "core/metrics.hh"
#include "driver/cell_runner.hh"
#include "driver/experiment.hh"
#include "driver/run_flags.hh"
#include "workloads/factory.hh"

namespace abndp
{
namespace bench
{

/** Parsed common options of a benchmark binary. */
struct Options
{
    SystemConfig base;
    CliFlags flags;
    /** Shared run-output flags (driver/run_flags.hh). */
    RunFlags run;
    /** Graph scale for graph workloads (--scale). */
    std::uint32_t scale = 14;
    bool verify = false;
    std::uint64_t seed = 42;
    /** Host threads for the cell grid (--threads; 0 = all cores). */
    std::uint32_t threads = 0;
};

/** Parse the common flags; --scale defaults to @p defaultScale. */
Options parseOptions(int argc, char **argv,
                     std::uint32_t defaultScale = 13);

/** Workload spec sized according to the options. */
WorkloadSpec specFor(const std::string &name, const Options &opts);

/** Cell spec with the benchmark's standard verify behavior applied. */
CellSpec cellFor(Design d, const WorkloadSpec &spec, const Options &opts);

/**
 * Run a whole grid of cells on opts.threads host threads (results in
 * cell order; per-cell metrics independent of the thread count).
 */
std::vector<RunMetrics> runGrid(const Options &opts,
                                const std::vector<CellSpec> &cells);

/** Geometric mean of a list of ratios. */
double geomean(const std::vector<double> &values);

/**
 * Print the benchmark banner: which paper artifact this regenerates and
 * what shape the paper reports (EXPERIMENTS.md records the comparison).
 */
void printBanner(const std::string &artifact, const std::string &paper);

/** Table header: @p first, then designName() of every design. */
std::vector<std::string> designHeader(const std::string &first,
                                      const std::vector<Design> &designs);

/** Split a comma-separated flag value; empty fields are dropped. */
std::vector<std::string> splitCsv(const std::string &s);

/**
 * Extract the number after "\"key\":" from a one-line JSON record.
 * @return false when the key is absent (malformed baseline).
 */
bool extractJsonNumber(const std::string &json, const std::string &key,
                       double &out);

/** Print a one-line JSON record; also write it to @p outPath (--out). */
void emitJsonRecord(const std::string &json, const std::string &outPath);

/**
 * The --compare=FILE throughput guard of the host-performance benches:
 * checks @p eventsPerSec against the events_per_sec of a baseline line
 * written by a previous --out run. A missing or unparsable baseline
 * warns and passes, so the first CI run on a fresh cache succeeds.
 * @return the exit code: 1 when throughput regressed by more than
 *         --tolerance (default 0.10), else 0.
 */
int compareEventsPerSec(const Options &opts, const std::string &bench,
                        double eventsPerSec);

/** Shorthand formatter. */
inline std::string
fmt(double v, int prec = 2)
{
    return TextTable::fmt(v, prec);
}

} // namespace bench
} // namespace abndp

#endif // ABNDP_BENCH_BENCH_COMMON_HH
