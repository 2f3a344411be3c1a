#include "workloads/graph_io.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace abndp
{

Graph
loadEdgeList(const std::string &path, bool undirected)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open graph file: ", path);

    std::vector<Graph::Edge> edges;
    std::uint32_t max_id = 0;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // SNAP headers use '#'; tolerate '%' (Matrix Market-ish) too.
        auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#'
            || line[first] == '%')
            continue;
        std::istringstream iss(line);
        std::uint64_t src, dst;
        if (!(iss >> src >> dst))
            fatal("malformed edge at ", path, ":", lineno, ": '", line,
                  "'");
        // The vertex count max_id + 1 must fit in 32 bits too.
        if (src >= 0xffffffffull || dst >= 0xffffffffull)
            fatal("vertex id out of range at ", path, ":", lineno);
        edges.emplace_back(static_cast<std::uint32_t>(src),
                           static_cast<std::uint32_t>(dst));
        max_id = std::max(max_id,
                          static_cast<std::uint32_t>(std::max(src, dst)));
    }
    if (edges.empty())
        fatal("graph file has no edges: ", path);
    return Graph::fromEdges(max_id + 1, std::move(edges), undirected);
}

void
saveEdgeList(const Graph &graph, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write graph file: ", path);
    out << "# abndp edge list: " << graph.numVertices() << " vertices, "
        << graph.numEdges() << " arcs\n";
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
        for (std::uint32_t n : graph.neighbors(v))
            out << v << "\t" << n << "\n";
}

} // namespace abndp
