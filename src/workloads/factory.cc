#include "workloads/factory.hh"

#include "common/logging.hh"
#include "workloads/astar.hh"
#include "workloads/bfs.hh"
#include "workloads/gcn.hh"
#include "workloads/graph_gen.hh"
#include "workloads/graph_io.hh"
#include "workloads/kmeans.hh"
#include "workloads/knn.hh"
#include "workloads/kvstore.hh"
#include "workloads/pagerank.hh"
#include "workloads/spmv.hh"
#include "workloads/sssp.hh"

namespace abndp
{

WorkloadSpec
WorkloadSpec::tiny(const std::string &name)
{
    WorkloadSpec s;
    s.name = name;
    s.scale = 9;
    s.edgeFactor = 8;
    s.prIters = 3;
    s.kmeansPoints = 2048;
    s.kmeansIters = 3;
    s.knnPoints = 2048;
    s.knnQueries = 128;
    s.astarQueries = 4;
    s.kvKeys = 2048;
    s.kvLookups = 256;
    return s;
}

namespace
{

Graph
specGraph(const WorkloadSpec &spec, bool undirected)
{
    if (!spec.graphFile.empty())
        return loadEdgeList(spec.graphFile, undirected);
    RmatParams p;
    p.scale = spec.scale;
    p.edgeFactor = spec.edgeFactor;
    p.seed = spec.seed;
    p.undirected = undirected;
    return makeRmatGraph(p);
}

} // namespace

std::unique_ptr<Workload>
makeWorkloadImpl(const WorkloadSpec &spec)
{
    if (spec.name == "pr")
        return std::make_unique<PageRankWorkload>(specGraph(spec, false),
                                                  spec.prIters);
    if (spec.name == "bfs")
        return std::make_unique<BfsWorkload>(specGraph(spec, true), 0);
    if (spec.name == "sssp")
        return std::make_unique<SsspWorkload>(specGraph(spec, true), 0,
                                              spec.seed);
    if (spec.name == "astar")
        return std::make_unique<AstarWorkload>(specGraph(spec, true),
                                               spec.astarQueries,
                                               spec.seed);
    if (spec.name == "gcn")
        return std::make_unique<GcnWorkload>(specGraph(spec, true),
                                             spec.gcnLayers, spec.seed);
    if (spec.name == "kmeans")
        return std::make_unique<KmeansWorkload>(spec.kmeansPoints,
                                                spec.kmeansClusters,
                                                spec.kmeansIters,
                                                spec.seed);
    if (spec.name == "knn")
        return std::make_unique<KnnWorkload>(spec.knnPoints,
                                             spec.knnQueries, spec.knnK,
                                             spec.knnHotFraction,
                                             spec.seed, spec.knnLeafSize);
    if (spec.name == "kv")
        return std::make_unique<KvStoreWorkload>(spec.kvKeys,
                                                 spec.kvLookups,
                                                 spec.seed);
    if (spec.name == "spmv")
        return std::make_unique<SpmvWorkload>(specGraph(spec, false),
                                              spec.spmvIters, spec.seed);
    fatal("unknown workload: ", spec.name);
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec)
{
    auto wl = makeWorkloadImpl(spec);
    wl->setExplicitLoadHints(spec.explicitLoadHints);
    return wl;
}

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names{
        "pr", "bfs", "sssp", "astar", "gcn", "kmeans", "knn", "spmv"};
    return names;
}

const std::vector<std::string> &
representativeWorkloadNames()
{
    static const std::vector<std::string> names{"pr", "bfs", "gcn", "knn",
                                                "spmv"};
    return names;
}

const std::vector<std::string> &
servingWorkloadNames()
{
    static const std::vector<std::string> names{"kv", "knn", "sssp",
                                                "astar"};
    return names;
}

} // namespace abndp
