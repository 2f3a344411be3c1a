/**
 * @file
 * Hierarchical statistics registry in the spirit of gem5's Stats
 * package.
 *
 * Every simulated component registers its stats — scalars/counters,
 * vectors, distributions, histograms, and derived formulas — under a
 * named node of a per-system tree. The registry flattens the tree into
 * deterministic "group.sub.stat value" lines for the full end-of-run
 * dump and for per-epoch interval dumps (counters print as deltas since
 * the previous interval, gauges as current values).
 *
 * All formatting goes through formatStatValue(): fixed-point, classic-
 * locale output so dumps are bit-stable across platforms and build
 * types, which is what the golden-metrics regression suite compares
 * against (tests/test_golden_metrics.cc).
 */

#ifndef ABNDP_OBS_STATS_REGISTRY_HH
#define ABNDP_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"

namespace abndp
{
namespace obs
{

/**
 * Semantics of one flattened stat value:
 *  - Counter: monotonically non-decreasing over a run; interval dumps
 *    print the delta since the previous interval.
 *  - Gauge: instantaneous or derived value; interval dumps print it
 *    verbatim.
 */
enum class StatKind
{
    Counter,
    Gauge,
};

/**
 * Format one stat value for a dump line: integers in plain decimal,
 * floating-point values with explicit fixed six-digit precision in the
 * classic "C" locale, so that a dump is byte-stable regardless of
 * platform, locale, or the ambient stream state.
 */
std::string formatStatValue(double v, bool integer);

/**
 * Write one dump line: @p name padded to the value column, then the
 * value formatted by formatStatValue().
 */
void writeStatLine(std::ostream &os, const std::string &name, double v,
                   bool integer);

/**
 * One node (group) in the stats hierarchy. Nodes own their child nodes;
 * registered stats are referenced by pointer or captured getter and
 * must outlive the registry (they live in the owning component, as in
 * gem5).
 */
class StatNode
{
  public:
    /** Get or create the child group @p name. */
    StatNode &child(const std::string &name);

    /** Register a monotone event counter. */
    void addCounter(const std::string &name, const stats::Counter *c);

    /** Register a plain count owned by the caller as a counter. */
    void addCounter(const std::string &name, const std::uint64_t *v);

    /** Register a floating-point accumulator as a gauge. */
    void addScalar(const std::string &name, const stats::Scalar *s);

    /**
     * Register a min/max/mean/stddev distribution; flattens into
     * .samples (counter) plus .mean/.min/.max/.stddev gauges.
     */
    void addDistribution(const std::string &name,
                         const stats::Distribution *d);

    /**
     * Register a fixed-bucket histogram; flattens into one counter per
     * bucket plus .underflow/.overflow. The histogram must already be
     * initialized (the bucket count is fixed at registration).
     */
    void addHistogram(const std::string &name, const stats::Histogram *h);

    /** Register a derived value computed at dump time (gem5 Formula). */
    void addFormula(const std::string &name, std::function<double()> fn);

    /** Register an arbitrary getter with explicit kind/format. */
    void addValue(const std::string &name, std::function<double()> fn,
                  StatKind kind, bool integer);

    /**
     * Register a vector stat: one value per element, flattened as
     * name.elem. @p get receives the element index.
     */
    void addVector(const std::string &name,
                   const std::vector<std::string> &elems,
                   std::function<double(std::size_t)> get, StatKind kind,
                   bool integer);

  private:
    friend class StatsRegistry;

    struct Entry
    {
        std::string name;
        std::function<double()> get;
        StatKind kind;
        bool integer;
    };

    /** Append "prefix.stat value"-ready flat entries, children last. */
    void flatten(const std::string &prefix,
                 std::vector<const Entry *> &out,
                 std::vector<std::string> &names) const;

    /** Append the values of the stats below matching @p pat. */
    void read(std::string_view pat, std::vector<double> &out) const;

    std::string name_;
    std::vector<Entry> entries;
    std::vector<std::unique_ptr<StatNode>> kids;
};

/**
 * The per-system stats registry: the root of one StatNode tree plus
 * dump/interval machinery. One instance per simulated system; instances
 * share nothing, so grid cells stay thread-independent.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;

    StatNode &root() { return rootNode; }

    /** Number of flattened stat values currently registered. */
    std::size_t size() const;

    /**
     * Print every stat as "name value" lines in registration order
     * (deterministic; excludes anything wall-clock-derived by
     * construction — nothing nondeterministic may be registered).
     */
    void dump(std::ostream &os) const;

    /**
     * Values of every stat whose dotted name matches @p path, in
     * registration (dump) order; empty when none does. A `*` matches
     * any run of characters inside one component, so
     * `unit*.core*.activeTicks` lists every core's busy ticks. Only
     * the matching getters run.
     */
    std::vector<double> read(std::string_view path) const;

    /** Snapshot current values as the base of the next interval. */
    void beginInterval();

    /**
     * Print one interval: @p header line first, then counters as deltas
     * since the previous beginInterval()/dumpInterval() and gauges as
     * current values. Re-snapshots afterwards.
     */
    void dumpInterval(std::ostream &os, const std::string &header);

  private:
    /** Collect flat entries and full names (registration order). */
    void collect(std::vector<const StatNode::Entry *> &out,
                 std::vector<std::string> &names) const;

    StatNode rootNode;
    std::vector<double> intervalBase;
};

} // namespace obs
} // namespace abndp

#endif // ABNDP_OBS_STATS_REGISTRY_HH
