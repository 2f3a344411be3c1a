/**
 * @file
 * The paper's evaluation in one binary: Table 1, Figures 2 and 6-18 and
 * the text ablations, each one row of (grid, printer) in the table at
 * the end of this file. `--figure=a,b` selects rows (default: all, in
 * table order); `--scale` overrides every row's default input scale.
 *
 * bench_paper builds each distinct grid once and runs all selected
 * grids as a single cell pool, then prints the rows in table order:
 * Figures 2 and 6-9 read one shared suite grid, and every sweep uses
 * all host threads. Output is byte-identical for any --threads value.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <utility>

#include "bench_common.hh"
#include "cache/camp_mapping.hh"
#include "core/ndp_system.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"
#include "workloads/graph_gen.hh"
#include "workloads/pagerank.hh"

namespace abndp
{
namespace bench
{
namespace
{

/** One grid's cells and their results, in cell order. */
struct GridRun
{
    std::vector<CellSpec> cells;
    std::vector<RunMetrics> results;

    /** Result of the (workload, design) cell; panic()s if absent. */
    const RunMetrics &
    at(const std::string &wl, Design d) const
    {
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].workload.name == wl && cells[i].design == d)
                return results[i];
        panic("no ", designName(d), " cell for ", wl, " in the grid");
    }
};

using GridFn = std::vector<CellSpec> (*)(const Options &);
using PrintFn = void (*)(const Options &, const GridRun &);

/** One table or figure of the paper. */
struct Figure
{
    /** --figure name. */
    const char *name;
    /** Banner: the artifact regenerated and the shape the paper reports. */
    const char *artifact;
    const char *paper;
    /** Input scale unless --scale is given. */
    std::uint32_t scale;
    GridFn grid;
    PrintFn print;
};

/**
 * Figures 11, 14 and 15 shrink per-unit DRAM so the Traveller Cache
 * faces the paper's level of pressure: its datasets dwarf the cache,
 * this repo's synthetic inputs do not. Capacity ratios 1/R stay Table
 * 1's.
 */
constexpr std::uint64_t pressureMemBytes = 2ull << 20;
constexpr std::uint64_t pressureRatioDenom = 64;

const std::vector<bool> mappingSkews{false, true};
const std::vector<std::uint32_t> campCounts{1, 3, 7, 15};
const std::vector<std::uint64_t> capacityRatios{512, 256, 128, 64, 32, 16};
const std::vector<std::uint32_t> associativities{1, 2, 4, 8, 16};
const std::vector<double> bypassProbs{0.0, 0.2, 0.4, 0.6, 0.8};
const std::vector<double> hybridAlphas{0, 1, 2, 3, 4, 5, 6};
const std::vector<std::uint64_t> exchangeIntervals{
    25000, 50000, 100000, 200000, 400000, 800000};
const std::vector<std::uint32_t> meshDims{2, 4, 8};

struct Style
{
    const char *label;
    CacheStyle style;
};
const std::vector<Style> cacheStyles{
    {"Traveller", CacheStyle::TravellerSramTags},
    {"SRAM data", CacheStyle::SramData},
    {"DRAM tags", CacheStyle::DramTags},
};

struct Tech
{
    const char *label;
    DramConfig cfg;
};
const std::vector<Tech> memTechs{{"HBM-like", DramConfig::hbm()},
                                 {"HMC-like", DramConfig::hmc()}};

const std::vector<ReplPolicy> replPolicies{ReplPolicy::Random,
                                           ReplPolicy::Lru};
const std::vector<bool> hintSources{false, true};
const std::vector<bool> scoringModes{true, false};
const std::vector<IntraTopology> nocs{IntraTopology::Crossbar,
                                      IntraTopology::Ring};

/**
 * The grid most sweep rows share: each of @p workloads, at each of
 * @p values, under each of @p designs, in that nesting order. Every
 * cell starts from the base config; @p set applies one value to it.
 */
template <typename T, typename Set>
std::vector<CellSpec>
knobSweep(const Options &opts, const std::vector<std::string> &workloads,
          const std::vector<T> &values, Set set,
          const std::vector<Design> &designs = {Design::O})
{
    std::vector<CellSpec> grid;
    for (const auto &wl : workloads) {
        for (const T &v : values) {
            for (Design d : designs) {
                CellSpec cell = cellFor(d, specFor(wl, opts), opts);
                cell.config = opts.base;
                set(cell, v);
                grid.push_back(cell);
            }
        }
    }
    return grid;
}

std::vector<CellSpec>
noCells(const Options &)
{
    return {};
}

/** Figures 2 and 6-9: every workload under every design. */
std::vector<CellSpec>
suiteGrid(const Options &opts)
{
    std::vector<CellSpec> grid;
    for (const auto &wl : allWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        for (Design d : allDesigns())
            grid.push_back(cellFor(d, spec, opts));
    }
    return grid;
}

void
printTable1(const Options &opts, const GridRun &)
{
    SystemConfig cfg = applyDesign(opts.base, Design::O);
    cfg.print(std::cout);

    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    std::cout << "\nSection 4.3 tag-storage accounting:\n";
    std::cout << "  cache sets per unit        : " << cfg.travellerSets()
              << "\n";
    std::cout << "  tag bits (unrestricted)    : "
              << camps.tagBitsUnrestricted() << " (paper: 15)\n";
    std::cout << "  tag bits (camp-restricted) : " << camps.tagBits()
              << " (paper: 10, a 1.5x reduction)\n";
    std::cout << "  SRAM tag storage per unit  : "
              << camps.tagStorageBytes() / 1024 << " kB (paper: 160 kB)\n";
}

void
printFig02(const Options &opts, const GridRun &run)
{
    TextTable hops({"design", "interconnect hops", "vs BASE"});
    TextTable cycles({"design", "min(Mcyc)", "p25", "median", "p75",
                      "max", "max/median"});

    double baseHops = 0.0;
    struct Row
    {
        const char *label;
        Design d;
    };
    for (auto [label, d] : {Row{"BASE", Design::B}, Row{"LDM", Design::Sm},
                            Row{"WS", Design::Sl}}) {
        const RunMetrics &m = run.at("pr", d);
        if (d == Design::B)
            baseHops = static_cast<double>(m.interHops);
        hops.addRow({label, fmt(static_cast<double>(m.interHops), 0),
                     fmt(m.interHops / baseHops)});

        // Per-unit execution cycles = busiest core per unit in cycles.
        auto cfg = applyDesign(opts.base, d);
        std::vector<double> unitCycles;
        for (std::size_t u = 0; u < m.coreActiveTicks.size();
             u += cfg.coresPerUnit) {
            Tick busy = 0;
            for (std::uint32_t c = 0; c < cfg.coresPerUnit; ++c)
                busy += m.coreActiveTicks[u + c];
            unitCycles.push_back(static_cast<double>(busy)
                                 / cfg.ticksPerCycle() / 1e6);
        }
        std::sort(unitCycles.begin(), unitCycles.end());
        auto pct = [&](double p) {
            return unitCycles[static_cast<std::size_t>(
                p * (unitCycles.size() - 1))];
        };
        cycles.addRow({label, fmt(pct(0.0)), fmt(pct(0.25)),
                       fmt(pct(0.5)), fmt(pct(0.75)), fmt(pct(1.0)),
                       fmt(pct(0.5) > 0 ? pct(1.0) / pct(0.5) : 0.0)});
    }

    std::cout << "Remote accesses (Page Rank):\n";
    hops.print(std::cout);
    std::cout << "\nExecution cycles across NDP units (box-plot data):\n";
    cycles.print(std::cout);
}

void
printFig06(const Options &, const GridRun &run)
{
    const auto &designs = allDesigns();
    TextTable table(designHeader("workload", designs));

    std::map<Design, std::vector<double>> speedups;
    for (const auto &wl : allWorkloadNames()) {
        double baseTicks = static_cast<double>(run.at(wl, Design::B).ticks);
        std::vector<std::string> cells{wl};
        for (Design d : designs) {
            double s = baseTicks / run.at(wl, d).ticks;
            speedups[d].push_back(s);
            cells.push_back(fmt(s));
        }
        table.addRow(cells);
    }

    std::vector<std::string> geo{"geomean"};
    for (Design d : designs)
        geo.push_back(fmt(geomean(speedups[d])));
    table.addRow(geo);
    table.print(std::cout);

    double bOverH = geomean(speedups[Design::B]) == 0.0
        ? 0.0
        : 1.0 / geomean(speedups[Design::H]);
    double oOverH = geomean(speedups[Design::O]) * bOverH;
    std::cout << "\nB over host H (geomean): " << fmt(bOverH)
              << "x (paper: 3.70x)\n";
    std::cout << "O over host H (geomean): " << fmt(oOverH)
              << "x (paper: 6.29x)\n";
    std::cout << "O over B (geomean):      "
              << fmt(geomean(speedups[Design::O]))
              << "x (paper: 1.68x avg, 2.19x max)\n";
}

void
printFig07(const Options &, const GridRun &run)
{
    TextTable table({"workload", "design", "core+SRAM", "DRAM(mem)",
                     "DRAM(cache)", "interconnect", "static", "total"});

    std::vector<double> oReduction;
    for (const auto &wl : allWorkloadNames()) {
        double baseTotal = run.at(wl, Design::B).energy.total();
        for (Design d : ndpDesigns()) {
            const auto &e = run.at(wl, d).energy;
            table.addRow({wl, designName(d),
                          fmt(e.coreSramPj / baseTotal),
                          fmt(e.dramMemPj / baseTotal),
                          fmt(e.dramCachePj / baseTotal),
                          fmt(e.netPj / baseTotal),
                          fmt(e.staticPj / baseTotal),
                          fmt(e.total() / baseTotal)});
            if (d == Design::O)
                oReduction.push_back(e.total() / baseTotal);
        }
    }
    table.print(std::cout);

    double avg = geomean(oReduction);
    double best = 1.0;
    for (double r : oReduction)
        best = std::min(best, r);
    std::cout << "\nO vs B energy: geomean " << fmt((1.0 - avg) * 100, 1)
              << "% reduction (paper: 24.6%), best "
              << fmt((1.0 - best) * 100, 1) << "% (paper: 40.1%)\n";
}

void
printFig08(const Options &, const GridRun &run)
{
    TextTable table(designHeader("workload", ndpDesigns()));
    for (const auto &wl : representativeWorkloadNames()) {
        std::vector<std::string> cells{wl};
        double base = static_cast<double>(run.at(wl, Design::B).interHops);
        for (Design d : ndpDesigns())
            cells.push_back(
                fmt(base > 0 ? run.at(wl, d).interHops / base : 0.0));
        table.addRow(cells);
    }
    table.print(std::cout);
}

void
printFig09(const Options &, const GridRun &run)
{
    for (const auto &wl : representativeWorkloadNames()) {
        std::cout << "--- " << wl
                  << " (cycles normalized to the design mean; sorted "
                     "core percentiles) ---\n";
        TextTable table({"design", "p0", "p25", "p50", "p75", "p90",
                         "p100", "max/mean"});
        for (Design d : ndpDesigns()) {
            const RunMetrics &m = run.at(wl, d);
            std::vector<double> cycles;
            for (Tick t : m.coreActiveTicks)
                cycles.push_back(static_cast<double>(t));
            std::sort(cycles.begin(), cycles.end());
            double mean = m.meanCoreActive();
            auto pct = [&](double p) {
                double v = cycles[static_cast<std::size_t>(
                    p * (cycles.size() - 1))];
                return mean > 0 ? v / mean : 0.0;
            };
            table.addRow({designName(d), fmt(pct(0.0)), fmt(pct(0.25)),
                          fmt(pct(0.5)), fmt(pct(0.75)), fmt(pct(0.9)),
                          fmt(pct(1.0)), fmt(m.imbalance())});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
}

/** Figure 10: Page Rank under every NDP design on each mesh size. */
std::vector<CellSpec>
fig10Grid(const Options &opts)
{
    return knobSweep(
        opts, {"pr"}, meshDims,
        [](CellSpec &c, std::uint32_t dim) {
            c.config->meshX = c.config->meshY = dim;
        },
        ndpDesigns());
}

void
printFig10(const Options &, const GridRun &run)
{
    const auto &designs = ndpDesigns();
    TextTable speed(designHeader("mesh", designs));
    TextTable energy(designHeader("mesh", designs));
    std::map<std::string, double> oTicks;

    std::size_t cell = 0;
    for (std::uint32_t dim : meshDims) {
        std::string mesh = std::to_string(dim) + "x" + std::to_string(dim);
        double bTicks = 0.0, bEnergy = 0.0;
        std::vector<std::string> srow{mesh}, erow{mesh};
        for (Design d : designs) {
            const RunMetrics &m = run.results[cell++];
            if (d == Design::B) {
                bTicks = static_cast<double>(m.ticks);
                bEnergy = m.energy.total();
            }
            srow.push_back(fmt(bTicks / m.ticks));
            erow.push_back(fmt(m.energy.total() / bEnergy));
            if (d == Design::O)
                oTicks[mesh] = static_cast<double>(m.ticks);
        }
        speed.addRow(srow);
        energy.addRow(erow);
    }

    std::cout << "(a) Speedup over the same-scale baseline B:\n";
    speed.print(std::cout);
    std::cout << "\n(b) Energy normalized to the same-scale B:\n";
    energy.print(std::cout);
    std::cout << "\nAbsolute O time: 4x4 is "
              << fmt(oTicks["2x2"] / oTicks["4x4"])
              << "x faster than 2x2; 8x8 is "
              << fmt(oTicks["4x4"] / oTicks["8x8"])
              << "x faster than 4x4 (paper: <1.15x)\n";
}

void
printPressure()
{
    std::cout << "(per-unit DRAM " << (pressureMemBytes >> 20)
              << "MB, cache 1/" << pressureRatioDenom << ")\n\n";
}

std::vector<CellSpec>
fig11Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), mappingSkews,
                     [](CellSpec &c, bool skewed) {
                         c.config->memBytesPerUnit = pressureMemBytes;
                         c.config->traveller.ratioDenom =
                             pressureRatioDenom;
                         c.config->traveller.skewedMapping = skewed;
                     });
}

void
printFig11(const Options &, const GridRun &run)
{
    printPressure();
    TextTable table({"workload", "identical(k)", "skewed(k)",
                     "skewed/identical"});
    std::vector<double> ratios;
    std::size_t cell = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        const RunMetrics &mi = run.results[cell++];
        const RunMetrics &ms = run.results[cell++];
        double ratio = mi.interHops > 0
            ? static_cast<double>(ms.interHops) / mi.interHops
            : 0.0;
        ratios.push_back(ratio);
        table.addRow({wl, fmt(mi.interHops / 1000.0, 1),
                      fmt(ms.interHops / 1000.0, 1), fmt(ratio)});
    }
    table.print(std::cout);
    std::cout << "\ngeomean skewed/identical hops: "
              << fmt(geomean(ratios)) << " (paper: ~0.88)\n";
}

std::vector<CellSpec>
fig12Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), campCounts,
                     [](CellSpec &c, std::uint32_t camps) {
                         c.config->traveller.campCount = camps;
                     });
}

void
printFig12(const Options &, const GridRun &run)
{
    TextTable table({"workload", "C", "DRAM", "interconnect",
                     "DRAM+net"});
    std::size_t cell = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        double base = 0.0;
        for (std::uint32_t c : campCounts) {
            const RunMetrics &m = run.results[cell++];
            double dram = m.energy.dram();
            double net = m.energy.netPj;
            if (c == 1)
                base = dram + net;
            table.addRow({wl, std::to_string(c), fmt(dram / base),
                          fmt(net / base), fmt((dram + net) / base)});
        }
    }
    table.print(std::cout);
}

std::vector<CellSpec>
fig13Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), cacheStyles,
                     [](CellSpec &c, const Style &s) {
                         c.opts.cacheStyle = s.style;
                     });
}

void
printFig13(const Options &, const GridRun &run)
{
    TextTable table({"workload", "style", "speedup vs Traveller",
                     "dyn. DRAM energy vs Traveller"});
    std::size_t cell = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        double baseTicks = 0.0, baseDram = 0.0;
        for (const auto &s : cacheStyles) {
            const RunMetrics &m = run.results[cell++];
            if (s.style == CacheStyle::TravellerSramTags) {
                baseTicks = static_cast<double>(m.ticks);
                baseDram = m.energy.dram();
            }
            table.addRow({wl, s.label, fmt(baseTicks / m.ticks),
                          fmt(baseDram > 0 ? m.energy.dram() / baseDram
                                           : 0.0)});
        }
    }
    table.print(std::cout);

    std::cout << "\nArea accounting (per NDP unit, CACTI-class):\n"
              << "  8MB SRAM data cache : ~16.12 mm^2 (impractical)\n"
              << "  Traveller tag SRAM  : ~0.32 mm^2 (160 kB tags)\n";
}

/**
 * One row per representative workload, one column per sweep value
 * (headed by @p label): @p metric of each cell divided by that of the
 * row's first cell, or the reverse when @p inverse (a time, where
 * higher is faster).
 */
template <typename T, typename Label, typename Metric>
void
printRatioRows(const GridRun &run, const std::vector<T> &values,
               Label label, Metric metric, bool inverse)
{
    std::vector<std::string> header{"workload"};
    for (const T &v : values)
        header.push_back(label(v));
    TextTable table(header);
    std::size_t cell = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        std::vector<std::string> cells{wl};
        double base = 0.0;
        for (std::size_t v = 0; v < values.size(); ++v) {
            double x = metric(run.results[cell++]);
            if (v == 0)
                base = x;
            if (inverse)
                cells.push_back(fmt(base / x));
            else
                cells.push_back(fmt(base > 0 ? x / base : 0.0));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
}

double
interHops(const RunMetrics &m)
{
    return static_cast<double>(m.interHops);
}

double
ticks(const RunMetrics &m)
{
    return static_cast<double>(m.ticks);
}

std::vector<CellSpec>
fig14Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), capacityRatios,
                     [](CellSpec &c, std::uint64_t ratio) {
                         c.config->memBytesPerUnit = pressureMemBytes;
                         c.config->traveller.ratioDenom = ratio;
                     });
}

void
printFig14(const Options &, const GridRun &run)
{
    std::cout << "(per-unit DRAM scaled to " << (pressureMemBytes >> 20)
              << "MB so the 1/R ratios face real pressure)\n\n";
    printRatioRows(
        run, capacityRatios,
        [](std::uint64_t r) { return "1/" + std::to_string(r); },
        interHops, false);
}

std::vector<CellSpec>
fig15Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), associativities,
                     [](CellSpec &c, std::uint32_t assoc) {
                         c.config->memBytesPerUnit = pressureMemBytes;
                         c.config->traveller.ratioDenom =
                             pressureRatioDenom;
                         c.config->traveller.assoc = assoc;
                     });
}

void
printFig15(const Options &, const GridRun &run)
{
    printPressure();
    printRatioRows(
        run, associativities,
        [](std::uint32_t a) { return std::to_string(a) + "-way"; },
        interHops, false);
}

std::vector<CellSpec>
fig16Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), bypassProbs,
                     [](CellSpec &c, double p) {
                         c.config->traveller.bypassProb = p;
                     });
}

void
printFig16(const Options &, const GridRun &run)
{
    TextTable table({"workload", "bypass", "DRAM", "interconnect",
                     "DRAM+net", "campHit"});
    std::size_t cell = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        double base = 0.0;
        for (double p : bypassProbs) {
            const RunMetrics &m = run.results[cell++];
            double dram = m.energy.dram();
            double net = m.energy.netPj;
            if (p == 0.0)
                base = dram + net;
            table.addRow({wl, fmt(p, 1), fmt(dram / base),
                          fmt(net / base), fmt((dram + net) / base),
                          fmt(m.campHitRate())});
        }
    }
    table.print(std::cout);
}

std::vector<CellSpec>
fig17Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), hybridAlphas,
                     [](CellSpec &c, double alpha) {
                         c.config->sched.autoAlpha = false;
                         c.config->sched.hybridAlpha = alpha;
                     });
}

void
printFig17(const Options &, const GridRun &run)
{
    TextTable table({"workload", "alpha", "hops vs a=0", "speedup vs a=0"});
    std::size_t cell = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        double baseHops = 0.0, baseTicks = 0.0;
        for (double alpha : hybridAlphas) {
            const RunMetrics &m = run.results[cell++];
            if (alpha == 0.0) {
                baseHops = static_cast<double>(m.interHops);
                baseTicks = static_cast<double>(m.ticks);
            }
            table.addRow({wl, fmt(alpha, 0),
                          fmt(baseHops > 0 ? m.interHops / baseHops : 0.0),
                          fmt(baseTicks / m.ticks)});
        }
    }
    table.print(std::cout);
}

std::vector<CellSpec>
fig18Grid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(),
                     exchangeIntervals,
                     [](CellSpec &c, std::uint64_t interval) {
                         c.config->sched.exchangeIntervalCycles = interval;
                     });
}

void
printFig18(const Options &, const GridRun &run)
{
    printRatioRows(
        run, exchangeIntervals,
        [](std::uint64_t i) { return std::to_string(i / 1000) + "k"; },
        ticks, true);
}

std::vector<CellSpec>
memtechGrid(const Options &opts)
{
    return knobSweep(
        opts, {"pr", "gcn", "spmv"}, memTechs,
        [](CellSpec &c, const Tech &t) { c.config->dram = t.cfg; },
        {Design::B, Design::O});
}

void
printMemtech(const Options &, const GridRun &run)
{
    TextTable table({"workload", "DRAM", "B time (ms)", "O time (ms)",
                     "O speedup"});
    std::size_t cell = 0;
    for (const auto &wl : {"pr", "gcn", "spmv"}) {
        for (const auto &tech : memTechs) {
            const RunMetrics &b = run.results[cell++];
            const RunMetrics &o = run.results[cell++];
            table.addRow({wl, tech.label, fmt(b.seconds() * 1e3),
                          fmt(o.seconds() * 1e3),
                          fmt(static_cast<double>(b.ticks) / o.ticks)});
        }
    }
    table.print(std::cout);
}

/** Sections 1 and 2 of the policies ablation; 3 runs in its printer. */
std::vector<CellSpec>
policiesGrid(const Options &opts)
{
    std::vector<CellSpec> grid =
        knobSweep(opts, {"pr", "gcn"}, replPolicies,
                  [](CellSpec &c, ReplPolicy repl) {
                      c.config->traveller.repl = repl;
                  });
    std::vector<CellSpec> hints =
        knobSweep(opts, {"pr", "gcn", "spmv"}, hintSources,
                  [](CellSpec &c, bool explicitHints) {
                      c.workload.explicitLoadHints = explicitHints;
                  });
    grid.insert(grid.end(), hints.begin(), hints.end());
    return grid;
}

void
printPolicies(const Options &opts, const GridRun &run)
{
    std::size_t cell = 0;

    // ---- 1. Traveller replacement policy ----
    {
        TextTable table({"workload", "policy", "time (ms)", "campHit",
                         "speedup vs random"});
        for (const auto &wl : {"pr", "gcn"}) {
            double base = 0.0;
            for (ReplPolicy repl : replPolicies) {
                const RunMetrics &m = run.results[cell++];
                if (repl == ReplPolicy::Random)
                    base = static_cast<double>(m.ticks);
                table.addRow({wl,
                              repl == ReplPolicy::Random ? "random"
                                                         : "LRU",
                              fmt(m.seconds() * 1e3),
                              fmt(m.campHitRate()),
                              fmt(base / m.ticks)});
            }
        }
        std::cout << "1. Traveller Cache replacement policy:\n";
        table.print(std::cout);
    }

    // ---- 2. Programmer workload hints vs estimation ----
    {
        TextTable table({"workload", "hint.workload", "time (ms)",
                         "imbalance", "speedup vs estimated"});
        for (const auto &wl : {"pr", "gcn", "spmv"}) {
            double base = 0.0;
            for (bool explicitHints : hintSources) {
                const RunMetrics &m = run.results[cell++];
                if (!explicitHints)
                    base = static_cast<double>(m.ticks);
                table.addRow({wl,
                              explicitHints ? "programmer" : "estimated",
                              fmt(m.seconds() * 1e3), fmt(m.imbalance()),
                              fmt(base / m.ticks)});
            }
        }
        std::cout << "\n2. Scheduler load information:\n";
        table.print(std::cout);
    }

    // ---- 3. Data placement (no WorkloadSpec describes it) ----
    {
        TextTable table({"placement", "design", "time (ms)", "imbalance",
                         "hops (k)"});
        RmatParams p;
        p.scale = opts.scale;
        p.seed = opts.seed;
        p.undirected = false;
        for (Placement placement :
             {Placement::Interleaved, Placement::Blocked}) {
            for (Design d : {Design::B, Design::O}) {
                NdpSystem sys(applyDesign(opts.base, d));
                PageRankWorkload pr(makeRmatGraph(p), 4, 1e-7, placement);
                RunMetrics m = sys.run(pr);
                if (opts.verify && !pr.verify())
                    fatal("placement ablation verification failed");
                table.addRow({placement == Placement::Interleaved
                                  ? "interleaved"
                                  : "blocked",
                              designName(d), fmt(m.seconds() * 1e3),
                              fmt(m.imbalance()),
                              fmt(m.interHops / 1000.0, 1)});
            }
        }
        std::cout << "\n3. Page Rank data placement:\n";
        table.print(std::cout);
    }
}

std::vector<CellSpec>
scoringGrid(const Options &opts)
{
    return knobSweep(opts, representativeWorkloadNames(), scoringModes,
                     [](CellSpec &c, bool exhaustive) {
                         c.config->sched.exhaustiveScoring = exhaustive;
                     });
}

void
printScoring(const Options &, const GridRun &run)
{
    TextTable table({"workload", "mode", "time (ms)", "hops (k)",
                     "forwards", "speedup vs exhaustive"});
    std::size_t cell = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        double baseTicks = 0.0;
        for (bool exhaustive : scoringModes) {
            const RunMetrics &m = run.results[cell++];
            if (exhaustive)
                baseTicks = static_cast<double>(m.ticks);
            table.addRow({wl, exhaustive ? "exhaustive" : "pruned",
                          fmt(m.seconds() * 1e3),
                          fmt(m.interHops / 1000.0, 1),
                          TextTable::fmt(m.forwardedTasks),
                          fmt(baseTicks / m.ticks)});
        }
    }
    table.print(std::cout);
}

/** The skew ablation's graphs match no WorkloadSpec: runs them here. */
void
printSkew(const Options &opts, const GridRun &)
{
    TextTable table({"input", "design", "time (ms)", "imbalance",
                     "O speedup"});

    struct Input
    {
        const char *label;
        Graph graph;
    };
    RmatParams rp;
    rp.scale = opts.scale;
    rp.seed = opts.seed;
    rp.undirected = false;
    std::uint32_t n = 1u << opts.scale;
    Input inputs[] = {
        {"power-law (R-MAT)", makeRmatGraph(rp)},
        {"uniform", makeUniformGraph(n, static_cast<std::uint64_t>(n) * 16,
                                     opts.seed, false)},
    };

    for (auto &input : inputs) {
        double bTicks = 0.0;
        for (Design d : {Design::B, Design::O}) {
            NdpSystem sys(applyDesign(opts.base, d));
            PageRankWorkload pr(input.graph, 4);
            RunMetrics m = sys.run(pr);
            if (opts.verify && !pr.verify())
                fatal("skew ablation verification failed");
            if (d == Design::B)
                bTicks = static_cast<double>(m.ticks);
            table.addRow({input.label, designName(d),
                          fmt(m.seconds() * 1e3), fmt(m.imbalance()),
                          d == Design::O ? fmt(bTicks / m.ticks) : "-"});
        }
    }
    table.print(std::cout);
}

std::vector<CellSpec>
topologyGrid(const Options &opts)
{
    return knobSweep(
        opts, {"pr", "bfs", "gcn"}, nocs,
        [](CellSpec &c, IntraTopology noc) {
            c.config->net.intraTopology = noc;
        },
        {Design::B, Design::O});
}

void
printTopology(const Options &, const GridRun &run)
{
    TextTable table({"workload", "NoC", "B time (ms)", "O time (ms)",
                     "O speedup", "O hops (k)"});
    std::size_t cell = 0;
    for (const auto &wl : {"pr", "bfs", "gcn"}) {
        for (IntraTopology noc : nocs) {
            const RunMetrics &b = run.results[cell++];
            const RunMetrics &o = run.results[cell++];
            table.addRow({wl,
                          noc == IntraTopology::Crossbar ? "crossbar"
                                                         : "ring",
                          fmt(b.seconds() * 1e3), fmt(o.seconds() * 1e3),
                          fmt(static_cast<double>(b.ticks) / o.ticks),
                          fmt(o.interHops / 1000.0, 1)});
        }
    }
    table.print(std::cout);
}

/** Every table and figure, in print order. */
const std::vector<Figure> figures{
    {"table1", "Table 1 — system configurations",
     "4x4 stacks, 128 NDP units, 64GB; Traveller Cache 1/64 "
     "capacity, C=3, 40% bypass; B = 3*Dinter",
     14, noCells, printTable1},
    {"fig02", "Figure 2 — the remote-access / load-balance tradeoff",
     "LDM cuts hops but the busiest unit slows ~1.43x; WS "
     "balances load but raises hop counts",
     14, suiteGrid, printFig02},
    {"fig06", "Figure 6 — overall speedup (normalized to B)",
     "O: 1.68x avg / 2.19x max; Sh ~1.23x; Sl ~1.14x; Sm "
     "~0.86x; B = 3.70x over host H, O = 6.29x over H",
     14, suiteGrid, printFig06},
    {"fig07", "Figure 7 — energy breakdown (normalized to B)",
     "O consumes the least energy: 24.6% avg / 40.1% max "
     "reduction; interconnect energy tracks hop counts; DRAM "
     "energy rises slightly with Traveller insertions",
     14, suiteGrid, printFig07},
    {"fig08", "Figure 8 — remote accesses (inter-stack hops, norm. to B)",
     "Sm ~0.93x; Sl up to 2x; Sh ~1.45x; C ~0.79x (lowest); "
     "O slightly above C and well below Sl/Sh",
     14, suiteGrid, printFig08},
    {"fig09", "Figure 9 — per-core active-cycle distribution",
     "B/Sm curves are steep (hotspots); Sl/Sh/O flatten the "
     "curve; Sm overlaps B on gcn; knn most imbalanced",
     14, suiteGrid, printFig09},
    // Bigger default input: 512 NDP units need enough parallel work.
    {"fig10", "Figure 10 — scalability (Page Rank; 2x2 / 4x4 / 8x8)",
     "O's speedup and energy reduction over B grow with "
     "scale; Sm/C scale worse than B; 8x8 gains <15% over "
     "4x4 in absolute time",
     15, fig10Grid, printFig10},
    {"fig11", "Figure 11 — skewed vs identical camp mappings (hops)",
     "skewed mapping saves ~12% remote-access hops on "
     "average (fewer conflicts + closer multi-data tasks)",
     13, fig11Grid, printFig11},
    {"fig12", "Figure 12 — camp count C sweep (DRAM + net energy)",
     "impact is minor: more camps cut interconnect energy "
     "but add DRAM-cache insertions; C = 3 is a good choice",
     13, fig12Grid, printFig12},
    {"fig13", "Figure 13 — Traveller vs SRAM-data vs in-DRAM-tag cache",
     "SRAM cache ~15% faster / 23% less energy but needs an "
     "unrealistic 16.12mm2 per unit; in-DRAM tags cost ~21% "
     "slowdown and ~54% more energy; Traveller needs 0.32mm2",
     13, fig13Grid, printFig13},
    {"fig14", "Figure 14 — Traveller capacity sweep (hops)",
     "larger caches keep more data and cut remote accesses, "
     "with diminishing returns beyond 1/64",
     13, fig14Grid, printFig14},
    {"fig15", "Figure 15 — Traveller associativity sweep (hops)",
     "4-way is sufficient: accesses are spread over many "
     "units, so higher associativity buys little",
     13, fig15Grid, printFig15},
    {"fig16", "Figure 16 — insertion bypass probability sweep",
     "more bypassing cuts DRAM-cache insertion energy but "
     "slightly raises hops; insensitive overall, 40% is a "
     "good balance",
     13, fig16Grid, printFig16},
    {"fig17", "Figure 17 — hybrid weight sweep (alpha = B / Dinter)",
     "hops grow with alpha while performance saturates "
     "around alpha = 3 (= d/2)",
     13, fig17Grid, printFig17},
    {"fig18", "Figure 18 — workload exchange interval sweep",
     "the interval can be made quite large without hurting "
     "performance, so the exchange cost is negligible",
     13, fig18Grid, printFig18},
    {"ablation_memtech", "Ablation — HBM-like vs HMC-like DRAM organization",
     "(extension) O-over-B speedup should persist across "
     "memory technologies",
     13, memtechGrid, printMemtech},
    {"ablation_policies",
     "Ablations — replacement, load hints, data placement",
     "Section 4.4: LRU ~= random replacement; Section 3.1: "
     "estimated loads suffice; blocked placement destroys "
     "the baseline's balance",
     13, policiesGrid, printPolicies},
    {"ablation_scoring", "Ablation — exhaustive vs pruned scheduler scoring",
     "(extension, not in the paper) pruned scoring should be "
     "nearly equivalent: camp candidates + idle units cover "
     "the useful targets",
     13, scoringGrid, printScoring},
    {"ablation_skew", "Ablation — input skew (the premise of Section 2.3)",
     "(extension) power-law inputs create the hotspots ABNDP "
     "fixes; uniform inputs should show little gain",
     13, noCells, printSkew},
    {"ablation_topology", "Ablation — intra-stack crossbar vs ring NoC",
     "(extension) the O-over-B advantage should persist; the "
     "ring adds intra-stack hops, so absolute times rise",
     13, topologyGrid, printTopology},
};

/** Rows named by --figure (comma-separated), in table order. */
std::vector<const Figure *>
selectFigures(const std::string &names)
{
    std::vector<std::string> wanted = splitCsv(names);
    std::string valid;
    for (const Figure &f : figures)
        valid += (valid.empty() ? "" : ", ") + std::string(f.name);
    for (const std::string &name : wanted) {
        auto known = [&](const Figure &f) { return name == f.name; };
        if (std::none_of(figures.begin(), figures.end(), known))
            fatal("unknown figure '", name, "'; valid: ", valid);
    }
    std::vector<const Figure *> rows;
    for (const Figure &f : figures)
        if (wanted.empty()
            || std::find(wanted.begin(), wanted.end(), f.name)
                != wanted.end())
            rows.push_back(&f);
    return rows;
}

} // namespace
} // namespace bench
} // namespace abndp

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv);
    std::vector<const Figure *> rows =
        selectFigures(opts.flags.getString("figure", ""));
    auto rowOptions = [&opts](const Figure &f) {
        Options o = opts;
        o.scale = static_cast<std::uint32_t>(
            opts.flags.getUint("scale", f.scale));
        return o;
    };

    // Build each distinct (grid, scale) once; run all cells in one pool.
    std::map<std::pair<GridFn, std::uint32_t>, GridRun> runs;
    std::vector<GridRun *> order;
    std::vector<CellSpec> cells;
    for (const Figure *f : rows) {
        Options o = rowOptions(*f);
        auto [it, fresh] = runs.try_emplace({f->grid, o.scale});
        if (!fresh)
            continue;
        it->second.cells = f->grid(o);
        cells.insert(cells.end(), it->second.cells.begin(),
                     it->second.cells.end());
        order.push_back(&it->second);
    }
    std::vector<RunMetrics> results = runGrid(opts, cells);
    auto next = results.begin();
    for (GridRun *run : order) {
        run->results.assign(next, next + run->cells.size());
        next += run->cells.size();
    }

    for (const Figure *f : rows) {
        Options o = rowOptions(*f);
        printBanner(f->artifact, f->paper);
        f->print(o, runs.at({f->grid, o.scale}));
    }
    return 0;
}
