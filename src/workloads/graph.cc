#include "workloads/graph.hh"

#include <algorithm>

#include "common/logging.hh"

namespace abndp
{

namespace
{

/**
 * Counting sort of arcs by source into CSR. @p forEachArc(emit) must
 * call emit(src, dst) for every arc, in the same order both times it
 * is invoked: once to count each row, once to scatter destinations.
 * Rows keep the order the arcs arrived in.
 */
template <typename ForEachArc>
void
scatterRows(std::uint32_t numVertices, ForEachArc forEachArc,
            std::vector<std::uint64_t> &rowPtr,
            std::vector<std::uint32_t> &colIdx)
{
    rowPtr.assign(std::size_t{numVertices} + 1, 0);
    forEachArc([&](std::uint32_t src, std::uint32_t) { ++rowPtr[src + 1]; });
    for (std::uint32_t v = 0; v < numVertices; ++v)
        rowPtr[v + 1] += rowPtr[v];
    colIdx.resize(rowPtr[numVertices]);
    std::vector<std::uint64_t> cursor(rowPtr.begin(), rowPtr.end() - 1);
    forEachArc([&](std::uint32_t src, std::uint32_t dst) {
        colIdx[cursor[src]++] = dst;
    });
}

} // namespace

Graph
Graph::fromEdges(std::uint32_t numVertices, std::vector<Edge> edges,
                 bool undirected)
{
    Graph g;
    g.nV = numVertices;
    scatterRows(
        numVertices,
        [&](auto &&emit) {
            for (const auto &[src, dst] : edges) {
                if (src == dst)
                    continue;
                abndp_assert(src < numVertices && dst < numVertices,
                             "edge endpoint out of range");
                emit(src, dst);
                if (undirected)
                    emit(dst, src);
            }
        },
        g.rowPtr, g.colIdx);
    // Free the input before shrink_to_fit below copies colIdx.
    std::vector<Edge>().swap(edges);

    // Sort and dedup each row, compacting the survivors leftwards.
    std::uint32_t *col = g.colIdx.data();
    std::uint64_t start = 0, out = 0;
    for (std::uint32_t v = 0; v < numVertices; ++v) {
        std::uint64_t end = g.rowPtr[v + 1];
        std::sort(col + start, col + end);
        std::uint32_t *last = std::unique(col + start, col + end);
        out = std::copy(col + start, last, col + out) - col;
        g.rowPtr[v + 1] = out;
        start = end;
    }
    if (out < g.colIdx.size()) {
        g.colIdx.resize(out);
        g.colIdx.shrink_to_fit();
    }
    return g;
}

Graph
Graph::transposed() const
{
    // Sources are visited in increasing order and each row of *this is
    // duplicate-free, so every transposed row comes out sorted and
    // duplicate-free with no sort at all.
    Graph t;
    t.nV = nV;
    scatterRows(
        nV,
        [this](auto &&emit) {
            for (std::uint32_t v = 0; v < nV; ++v)
                for (std::uint32_t n : neighbors(v))
                    emit(n, v);
        },
        t.rowPtr, t.colIdx);
    return t;
}

std::uint32_t
Graph::maxDegree() const
{
    std::uint32_t m = 0;
    for (std::uint32_t v = 0; v < nV; ++v)
        m = std::max(m, degree(v));
    return m;
}

} // namespace abndp
