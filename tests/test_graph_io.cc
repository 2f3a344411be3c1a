/** @file Tests for the SNAP edge-list loader. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "workloads/factory.hh"
#include "workloads/graph_gen.hh"
#include "workloads/graph_io.hh"

namespace abndp
{

namespace
{

/** RAII temp file. */
struct TempFile
{
    TempFile()
    {
        char tmpl[] = "/tmp/abndp_graph_XXXXXX";
        int fd = mkstemp(tmpl);
        EXPECT_GE(fd, 0);
        close(fd);
        path = tmpl;
    }
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

} // namespace

TEST(GraphIo, LoadsSnapStyleEdgeList)
{
    TempFile f;
    {
        std::ofstream out(f.path);
        out << "# Directed graph: example\n"
               "# FromNodeId\tToNodeId\n"
               "0\t1\n"
               "0\t2\n"
               "2\t3\n";
    }
    Graph g = loadEdgeList(f.path, false);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.neighbors(2)[0], 3u);
}

TEST(GraphIo, UndirectedLoadStoresBothArcs)
{
    TempFile f;
    {
        std::ofstream out(f.path);
        out << "0 1\n1 2\n";
    }
    Graph g = loadEdgeList(f.path, true);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(1), 2u);
}

TEST(GraphIo, RoundTripPreservesGraph)
{
    RmatParams p;
    p.scale = 8;
    p.edgeFactor = 4;
    Graph g = makeRmatGraph(p);
    TempFile f;
    saveEdgeList(g, f.path);
    Graph g2 = loadEdgeList(f.path, false);
    // Trailing isolated vertices are not representable in an edge list,
    // so the loaded vertex count may shrink; everything else matches.
    EXPECT_EQ(g2.numEdges(), g.numEdges());
    ASSERT_LE(g2.numVertices(), g.numVertices());
    for (std::uint32_t v = 0; v < g2.numVertices(); ++v) {
        ASSERT_EQ(g2.degree(v), g.degree(v)) << v;
        for (std::uint32_t i = 0; i < g2.degree(v); ++i)
            ASSERT_EQ(g2.neighbors(v)[i], g.neighbors(v)[i]);
    }
    for (std::uint32_t v = g2.numVertices(); v < g.numVertices(); ++v)
        EXPECT_EQ(g.degree(v), 0u);
}

TEST(GraphIo, FactoryUsesGraphFile)
{
    TempFile f;
    {
        std::ofstream out(f.path);
        for (int v = 0; v < 64; ++v)
            out << v << " " << (v + 1) % 64 << "\n";
    }
    WorkloadSpec spec = WorkloadSpec::tiny("bfs");
    spec.graphFile = f.path;
    auto wl = makeWorkload(spec);
    EXPECT_EQ(wl->name(), "bfs");
    // Runs end-to-end on the loaded ring graph.
    SystemConfig cfg;
    SimAllocator alloc(cfg);
    wl->setup(alloc);
    ImmediateExecutor exec(*wl);
    wl->emitInitialTasks(exec);
    exec.runToCompletion();
    EXPECT_TRUE(wl->verify());
}

TEST(GraphIoDeath, MissingFileIsFatal)
{
    EXPECT_DEATH(loadEdgeList("/nonexistent/abndp.graph", false),
                 "cannot open");
}

TEST(GraphIoDeath, MalformedLineIsFatal)
{
    TempFile f;
    {
        std::ofstream out(f.path);
        out << "0 1\nnot an edge\n";
    }
    EXPECT_DEATH(loadEdgeList(f.path, false), "malformed");
}

TEST(GraphIoDeath, MaxVertexIdIsFatal)
{
    // 2^32 - 1 fits a uint32 id, but the vertex count would wrap to 0.
    TempFile f;
    {
        std::ofstream out(f.path);
        out << "0 1\n4294967295 2\n";
    }
    EXPECT_DEATH(loadEdgeList(f.path, false), "vertex id out of range");
}

} // namespace abndp
