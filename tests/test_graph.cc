/** @file Tests for the CSR graph and the synthetic generators. */

#include <gtest/gtest.h>

#include <numeric>

#include "workloads/graph.hh"
#include "workloads/graph_gen.hh"

namespace abndp
{

TEST(Graph, FromEdgesBuildsCsr)
{
    Graph g = Graph::fromEdges(4, {{0, 1}, {0, 2}, {2, 3}}, false);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
    EXPECT_EQ(g.neighbors(0)[0], 1u);
    EXPECT_EQ(g.neighbors(0)[1], 2u);
    EXPECT_EQ(g.neighbors(2)[0], 3u);
}

TEST(Graph, DropsSelfLoopsAndDuplicates)
{
    Graph g = Graph::fromEdges(3, {{0, 0}, {0, 1}, {0, 1}, {1, 2}}, false);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, UndirectedStoresBothArcs)
{
    Graph g = Graph::fromEdges(3, {{0, 1}, {1, 2}}, true);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_EQ(g.neighbors(1)[0], 0u);
    EXPECT_EQ(g.neighbors(1)[1], 2u);
}

TEST(Graph, MaxDegree)
{
    Graph g = Graph::fromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}, false);
    EXPECT_EQ(g.maxDegree(), 3u);
}

TEST(GraphGen, RmatIsDeterministic)
{
    RmatParams p;
    p.scale = 10;
    p.edgeFactor = 8;
    Graph a = makeRmatGraph(p);
    Graph b = makeRmatGraph(p);
    EXPECT_EQ(a.numEdges(), b.numEdges());
    EXPECT_EQ(a.row(), b.row());
    EXPECT_EQ(a.col(), b.col());
}

TEST(GraphGen, RmatHasPowerLawSkew)
{
    RmatParams p;
    p.scale = 12;
    p.edgeFactor = 16;
    Graph g = makeRmatGraph(p);
    double mean =
        static_cast<double>(g.numEdges()) / g.numVertices();
    // Heavy-tailed: the hub degree dwarfs the mean degree.
    EXPECT_GT(g.maxDegree(), 20 * mean);
}

TEST(GraphGen, RmatSeedChangesGraph)
{
    RmatParams a, b;
    a.scale = b.scale = 10;
    b.seed = a.seed + 1;
    EXPECT_NE(makeRmatGraph(a).col(), makeRmatGraph(b).col());
}

TEST(GraphGen, UniformGraphHasLowSkew)
{
    Graph g = makeUniformGraph(4096, 65536, 3, false);
    double mean = static_cast<double>(g.numEdges()) / g.numVertices();
    EXPECT_LT(g.maxDegree(), 5 * mean);
}

TEST(GraphGen, GridGraphDegrees)
{
    Graph g = makeGridGraph(4, 3);
    EXPECT_EQ(g.numVertices(), 12u);
    // Corners have degree 2, edges 3, interior 4.
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 3u);
    EXPECT_EQ(g.degree(5), 4u);
    // Undirected handshake: sum of degrees = 2 * #undirected edges.
    std::uint64_t sum = 0;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        sum += g.degree(v);
    EXPECT_EQ(sum, g.numEdges());
    EXPECT_EQ(g.numEdges(), 2u * (3 * 3 + 2 * 4));
}

TEST(GraphGen, RowPointersAreMonotonic)
{
    RmatParams p;
    p.scale = 10;
    Graph g = makeRmatGraph(p);
    for (std::size_t i = 1; i < g.row().size(); ++i)
        EXPECT_LE(g.row()[i - 1], g.row()[i]);
    EXPECT_EQ(g.row().back(), g.numEdges());
}

namespace
{

/** FNV-1a over every rowPtr entry (8 bytes, LE) then every colIdx entry (4). */
std::uint64_t
csrDigest(const Graph &g)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto feed = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (std::uint64_t r : g.row())
        feed(r, 8);
    for (std::uint32_t c : g.col())
        feed(c, 4);
    return h;
}

} // namespace

TEST(GraphGen, RmatCsrDigestPinned)
{
    // Every benchmark graph is an R-MAT graph: a change to the edge
    // stream or to CSR construction fails here by name before it
    // shows up as drift in the goldens.
    struct Case
    {
        std::uint32_t scale;
        std::uint64_t seed;
        bool undirected;
        double a, b, c;
        std::uint64_t edges;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {10, 42, true, 0.57, 0.19, 0.19, 20834, 0xdb19e6a71b2f8f47ull},
        {12, 7, false, 0.57, 0.19, 0.19, 53475, 0xdfe693fe054b2849ull},
        {14, 1, true, 0.57, 0.19, 0.19, 426214, 0x2a94596264b49a4eull},
        {11, 1009, false, 0.45, 0.15, 0.25, 31488, 0xe404114a27f42945ull},
    };
    for (const Case &c : cases) {
        RmatParams p;
        p.scale = c.scale;
        p.seed = c.seed;
        p.undirected = c.undirected;
        p.a = c.a;
        p.b = c.b;
        p.c = c.c;
        Graph g = makeRmatGraph(p);
        EXPECT_EQ(g.numEdges(), c.edges) << "scale " << c.scale;
        EXPECT_EQ(csrDigest(g), c.digest) << "scale " << c.scale;
    }
}

TEST(GraphGenDeath, NegativeRmatProbabilityPanics)
{
    RmatParams p;
    p.scale = 4;
    p.b = -0.1;
    EXPECT_DEATH(makeRmatGraph(p), "bad R-MAT probabilities");
    p.b = 0.19;
    p.c = -0.01;
    EXPECT_DEATH(makeRmatGraph(p), "bad R-MAT probabilities");
}

} // namespace abndp
