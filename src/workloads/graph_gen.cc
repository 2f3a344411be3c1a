#include "workloads/graph_gen.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

Graph
makeRmatGraph(const RmatParams &p)
{
    abndp_assert(p.a >= 0 && p.b >= 0 && p.c >= 0,
                 "bad R-MAT probabilities");
    abndp_assert(p.a + p.b + p.c < 1.0, "bad R-MAT probabilities");
    std::uint32_t n = 1u << p.scale;
    std::uint64_t m = static_cast<std::uint64_t>(n) * p.edgeFactor;
    Rng rng(p.seed);

    // Rng::uniform() is exactly (next() >> 11) * 2^-53, so
    // `uniform() < x` holds iff (next() >> 11) < ceil(x * 2^53). The
    // cumulative thresholds are monotone (a, b, c >= 0), so the
    // quadrant of one draw is the number of thresholds it reaches.
    auto threshold = [](double x) {
        return static_cast<std::uint64_t>(std::ceil(std::ldexp(x, 53)));
    };
    const std::uint64_t toB = threshold(p.a);
    const std::uint64_t toC = threshold(p.a + p.b);
    const std::uint64_t toD = threshold(p.a + p.b + p.c);

    std::vector<Graph::Edge> edges;
    edges.reserve(m);
    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (std::uint32_t bit = 0; bit < p.scale; ++bit) {
            std::uint64_t r = rng.next() >> 11;
            std::uint32_t quad = (r >= toB) + (r >= toC) + (r >= toD);
            src = (src << 1) | (quad >> 1);
            dst = (dst << 1) | (quad & 1);
        }
        edges.emplace_back(src, dst);
    }
    return Graph::fromEdges(n, std::move(edges), p.undirected);
}

Graph
makeUniformGraph(std::uint32_t numVertices, std::uint64_t numEdges,
                 std::uint64_t seed, bool undirected)
{
    Rng rng(seed);
    std::vector<Graph::Edge> edges;
    edges.reserve(numEdges);
    for (std::uint64_t e = 0; e < numEdges; ++e) {
        auto src = static_cast<std::uint32_t>(rng.below(numVertices));
        auto dst = static_cast<std::uint32_t>(rng.below(numVertices));
        edges.emplace_back(src, dst);
    }
    return Graph::fromEdges(numVertices, std::move(edges), undirected);
}

Graph
makeGridGraph(std::uint32_t width, std::uint32_t height)
{
    std::vector<Graph::Edge> edges;
    edges.reserve(static_cast<std::size_t>(width) * height * 2);
    auto id = [width](std::uint32_t x, std::uint32_t y) {
        return y * width + x;
    };
    for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t x = 0; x < width; ++x) {
            if (x + 1 < width)
                edges.emplace_back(id(x, y), id(x + 1, y));
            if (y + 1 < height)
                edges.emplace_back(id(x, y), id(x, y + 1));
        }
    }
    return Graph::fromEdges(width * height, std::move(edges), true);
}

} // namespace abndp
