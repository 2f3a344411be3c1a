/**
 * @file
 * Compressed sparse row (CSR) graph used by the graph-analytics
 * workloads, plus helpers to build it from edge lists.
 */

#ifndef ABNDP_WORKLOADS_GRAPH_HH
#define ABNDP_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace abndp
{

/** Directed graph in CSR form (undirected graphs store both arcs). */
class Graph
{
  public:
    using Edge = std::pair<std::uint32_t, std::uint32_t>;

    Graph() = default;

    /**
     * Build from an edge list. Self-loops are dropped and duplicate
     * edges collapsed. If @p undirected, both directions are stored.
     * Every row's neighbours are sorted ascending. Counting sort by
     * source, then a sort of each row: O(V + E log maxDegree).
     */
    static Graph fromEdges(std::uint32_t numVertices,
                           std::vector<Edge> edges, bool undirected);

    /** Every arc reversed; the same CSR fromEdges() would build. O(V + E). */
    Graph transposed() const;

    std::uint32_t numVertices() const { return nV; }
    std::uint64_t numEdges() const { return colIdx.size(); }

    std::uint32_t
    degree(std::uint32_t v) const
    {
        return static_cast<std::uint32_t>(rowPtr[v + 1] - rowPtr[v]);
    }

    std::span<const std::uint32_t>
    neighbors(std::uint32_t v) const
    {
        return {colIdx.data() + rowPtr[v],
                colIdx.data() + rowPtr[v + 1]};
    }

    std::uint64_t edgeOffset(std::uint32_t v) const { return rowPtr[v]; }

    std::uint32_t maxDegree() const;

    const std::vector<std::uint64_t> &row() const { return rowPtr; }
    const std::vector<std::uint32_t> &col() const { return colIdx; }

  private:
    std::uint32_t nV = 0;
    std::vector<std::uint64_t> rowPtr;
    std::vector<std::uint32_t> colIdx;
};

} // namespace abndp

#endif // ABNDP_WORKLOADS_GRAPH_HH
