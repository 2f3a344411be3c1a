#include "obs/stats_registry.hh"

#include <iomanip>
#include <locale>
#include <sstream>

#include "common/logging.hh"

namespace abndp
{
namespace obs
{

std::string
formatStatValue(double v, bool integer)
{
    std::ostringstream oss;
    oss.imbue(std::locale::classic());
    if (integer) {
        // Counters are uint64-valued; doubles represent every count the
        // simulator can reach in practice exactly up to 2^53.
        oss << static_cast<std::uint64_t>(v);
    } else {
        oss << std::fixed << std::setprecision(6) << v;
    }
    return oss.str();
}

void
writeStatLine(std::ostream &os, const std::string &name, double v,
              bool integer)
{
    std::string line = name;
    if (line.size() < 44)
        line.resize(44, ' ');
    os << line << ' ' << formatStatValue(v, integer) << "\n";
}

StatNode &
StatNode::child(const std::string &name)
{
    for (auto &k : kids)
        if (k->name_ == name)
            return *k;
    kids.push_back(std::unique_ptr<StatNode>(new StatNode));
    kids.back()->name_ = name;
    return *kids.back();
}

void
StatNode::addCounter(const std::string &name, const stats::Counter *c)
{
    addValue(name, [c] { return static_cast<double>(c->value()); },
             StatKind::Counter, /*integer=*/true);
}

void
StatNode::addScalar(const std::string &name, const stats::Scalar *s)
{
    addValue(name, [s] { return s->value(); }, StatKind::Gauge,
             /*integer=*/false);
}

void
StatNode::addDistribution(const std::string &name,
                          const stats::Distribution *d)
{
    addValue(name + ".samples",
             [d] { return static_cast<double>(d->samples()); },
             StatKind::Counter, /*integer=*/true);
    addValue(name + ".mean", [d] { return d->mean(); }, StatKind::Gauge,
             /*integer=*/false);
    addValue(name + ".min", [d] { return d->min(); }, StatKind::Gauge,
             /*integer=*/false);
    addValue(name + ".max", [d] { return d->max(); }, StatKind::Gauge,
             /*integer=*/false);
    addValue(name + ".stddev", [d] { return d->stddev(); }, StatKind::Gauge,
             /*integer=*/false);
}

void
StatNode::addHistogram(const std::string &name, const stats::Histogram *h)
{
    abndp_assert(!h->buckets().empty(),
                 "histogram must be initialized before registration");
    for (std::size_t i = 0; i < h->buckets().size(); ++i) {
        addValue(name + ".bucket" + std::to_string(i),
                 [h, i] { return static_cast<double>(h->buckets()[i]); },
                 StatKind::Counter, /*integer=*/true);
    }
    addValue(name + ".underflow",
             [h] { return static_cast<double>(h->underflow()); },
             StatKind::Counter, /*integer=*/true);
    addValue(name + ".overflow",
             [h] { return static_cast<double>(h->overflow()); },
             StatKind::Counter, /*integer=*/true);
}

void
StatNode::addFormula(const std::string &name, std::function<double()> fn)
{
    addValue(name, std::move(fn), StatKind::Gauge, /*integer=*/false);
}

void
StatNode::addValue(const std::string &name, std::function<double()> fn,
                   StatKind kind, bool integer)
{
    for (const auto &e : entries)
        abndp_assert(e.name != name, "duplicate stat ", name);
    entries.push_back(Entry{name, std::move(fn), kind, integer});
}

void
StatNode::addVector(const std::string &name,
                    const std::vector<std::string> &elems,
                    std::function<double(std::size_t)> get, StatKind kind,
                    bool integer)
{
    for (std::size_t i = 0; i < elems.size(); ++i)
        addValue(name + "." + elems[i],
                 [get, i] { return get(i); }, kind, integer);
}

void
StatNode::flatten(const std::string &prefix,
                  std::vector<const Entry *> &out,
                  std::vector<std::string> &names) const
{
    std::string base = prefix.empty()
        ? name_
        : (name_.empty() ? prefix : prefix + "." + name_);
    for (const auto &e : entries) {
        out.push_back(&e);
        names.push_back(base.empty() ? e.name : base + "." + e.name);
    }
    for (const auto &k : kids)
        k->flatten(base, out, names);
}

std::size_t
StatsRegistry::size() const
{
    std::vector<const StatNode::Entry *> flat;
    std::vector<std::string> names;
    collect(flat, names);
    return flat.size();
}

void
StatsRegistry::collect(std::vector<const StatNode::Entry *> &out,
                       std::vector<std::string> &names) const
{
    rootNode.flatten("", out, names);
}

void
StatsRegistry::dump(std::ostream &os) const
{
    std::vector<const StatNode::Entry *> flat;
    std::vector<std::string> names;
    collect(flat, names);
    for (std::size_t i = 0; i < flat.size(); ++i)
        writeStatLine(os, names[i], flat[i]->get(), flat[i]->integer);
}

void
StatsRegistry::beginInterval()
{
    std::vector<const StatNode::Entry *> flat;
    std::vector<std::string> names;
    collect(flat, names);
    intervalBase.resize(flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i)
        intervalBase[i] = flat[i]->get();
}

void
StatsRegistry::dumpInterval(std::ostream &os, const std::string &header)
{
    std::vector<const StatNode::Entry *> flat;
    std::vector<std::string> names;
    collect(flat, names);
    abndp_assert(flat.size() == intervalBase.size(),
                 "stats registered after beginInterval()");
    os << header << "\n";
    for (std::size_t i = 0; i < flat.size(); ++i) {
        double cur = flat[i]->get();
        double v = flat[i]->kind == StatKind::Counter
            ? cur - intervalBase[i]
            : cur;
        writeStatLine(os, names[i], v, flat[i]->integer);
        intervalBase[i] = cur;
    }
}

} // namespace obs
} // namespace abndp
