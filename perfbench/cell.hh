/**
 * @file
 * One benchmark cell: a named workload, built from seeds, run once on
 * its design point through the simulator's public API, verified, and
 * its stats registry dumped. See README.md for why each cell exists.
 */

#ifndef PERFBENCH_CELL_HH
#define PERFBENCH_CELL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "probes.hh"

namespace perfbench
{

/** What to run. */
struct CellParams
{
    /** "pr-hlbmig", "bfs-b-ddr" or "kv-serve". */
    std::string workload;
    /** Seeds the generated input (graph, key set). */
    std::uint64_t inputSeed = 1;
    /** Seeds the simulator (SystemConfig::seed, the arrival stream). */
    std::uint64_t simSeed = 1;
    /** The workload's smallest size (fidelity test), not its bench size. */
    bool small = false;
    /** Wrap policy and workload in the timing probes. */
    bool traced = false;
};

/** What one run produced. */
struct CellResult
{
    /** verify() passed (and verifyServed() in serving mode). */
    bool verified = false;
    /** The full StatsRegistry::dump() text. */
    std::string dump;
    abndp::RunMetrics metrics;
    /**
     * Simulated nearest-rank p99 latency (ns): of requests when
     * serving, else of block reads served below the L1.
     */
    double p99Ns = 0.0;

    // Host seconds, each phase timed once.
    double genS = 0.0;    ///< makeWorkload (input generation)
    double ctorS = 0.0;   ///< NdpSystem construction
    double runS = 0.0;    ///< NdpSystem::run
    double verifyS = 0.0; ///< verify (+ verifyServed)
    double dumpS = 0.0;   ///< StatsRegistry::dump
    double wallS = 0.0;   ///< all of the above, timed as one span

    /** Only filled in a traced cell. */
    Probe probe;
};

/** Workload names the benchmark defines, in README order. */
const std::vector<std::string> &workloadNames();

/** Build, run, verify and dump one cell; fatal() on an unknown name. */
CellResult runCell(const CellParams &params);

/** 64-bit FNV-1a digest of @p text, as 16 hex digits. */
std::string digestOf(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_CELL_HH
