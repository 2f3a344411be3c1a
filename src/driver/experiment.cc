#include "driver/experiment.hh"

#include "common/logging.hh"
#include "core/ndp_system.hh"
#include "host/host_system.hh"

namespace abndp
{

namespace
{

/** "B, Sm, ... or HLB-mig": the names of @p designs, for messages. */
std::string
designNameList(const std::vector<Design> &designs)
{
    std::string list;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        if (i > 0)
            list += i + 1 == designs.size() ? " or " : ", ";
        list += designName(designs[i]);
    }
    return list;
}

} // namespace

RunMetrics
runExperiment(const SystemConfig &base, Design d, const WorkloadSpec &spec,
              const ExperimentOptions &opts)
{
    SystemConfig cfg = applyDesign(base, d);
    if (opts.cacheStyle)
        cfg.traveller.style = *opts.cacheStyle;
    if (opts.fault)
        cfg.fault = *opts.fault;
    auto wl = makeWorkload(spec);

    RunMetrics metrics;
    if (d == Design::H) {
        if (cfg.serving.enabled())
            fatal("design H cannot run serving mode: the open-loop "
                  "driver lives in NdpSystem (pick an NDP design: ",
                  designNameList(ndpDesigns()), ")");
        HostSystem host(cfg);
        metrics = host.run(*wl);
    } else {
        NdpSystem sys(cfg);
        metrics = sys.run(*wl);
    }

    if (opts.verify && !wl->verify()) {
        if (opts.fatalOnVerifyFailure)
            fatal("workload ", spec.name, " failed verification under ",
                  designName(d));
        warn("workload ", spec.name, " failed verification under ",
             designName(d));
    }
    return metrics;
}

Design
designFromName(const std::string &name)
{
    for (Design d : allDesigns())
        if (name == designName(d))
            return d;
    fatal("unknown design '", name, "' (expected ",
          designNameList(allDesigns()), ")");
}

std::string
designToken(Design d)
{
    std::string tok = designName(d);
    for (char &c : tok)
        if (c == '-')
            c = '_';
    return tok;
}

} // namespace abndp
