#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/subgraph.h"
#include "util/rng.h"

namespace holim {
namespace {

Graph Triangle() {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return std::move(b).Build().ValueOrDie();
}

/// The five CSR arrays of a graph, read back through the public API, and
/// its reported footprint.
struct CsrArrays {
  std::vector<EdgeId> out_offsets;
  std::vector<NodeId> out_targets;
  std::vector<EdgeId> in_offsets;
  std::vector<NodeId> in_sources;
  std::vector<EdgeId> in_edge_ids;
  std::size_t footprint_bytes = 0;
  bool operator==(const CsrArrays&) const = default;
};

CsrArrays ReadBack(const Graph& g) {
  CsrArrays csr;
  csr.in_offsets.push_back(0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    csr.out_offsets.push_back(g.OutEdgeBegin(u));
    csr.in_offsets.push_back(csr.in_offsets.back() + g.InDegree(u));
    for (NodeId v : g.InNeighbors(u)) csr.in_sources.push_back(v);
    for (EdgeId e : g.InEdgeIds(u)) csr.in_edge_ids.push_back(e);
  }
  csr.out_offsets.push_back(g.OutEdgeBegin(g.num_nodes()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    csr.out_targets.push_back(g.EdgeTarget(e));
  }
  csr.footprint_bytes = g.MemoryFootprintBytes();
  return csr;
}

/// Test-only copy of the build GraphBuilder used before its counting sort:
/// one global index sort by (src, dst), then the dedup walk. Vectors are
/// sized as that build sized them, so the footprint is its capacity sum.
CsrArrays IndexSortBuild(NodeId n,
                         const std::vector<std::pair<NodeId, NodeId>>& arcs,
                         bool dedup) {
  std::vector<std::size_t> order(arcs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return arcs[a] < arcs[b]; });
  CsrArrays csr;
  csr.out_offsets.assign(n + 1, 0);
  csr.out_targets.reserve(arcs.size());
  NodeId prev_src = kInvalidNode, prev_dst = kInvalidNode;
  for (std::size_t idx : order) {
    const auto [s, d] = arcs[idx];
    if (dedup && (s == d || (s == prev_src && d == prev_dst))) continue;
    prev_src = s;
    prev_dst = d;
    csr.out_targets.push_back(d);
    ++csr.out_offsets[s + 1];
  }
  for (NodeId u = 0; u < n; ++u) csr.out_offsets[u + 1] += csr.out_offsets[u];
  const EdgeId m = csr.out_targets.size();
  csr.in_offsets.assign(n + 1, 0);
  for (NodeId v : csr.out_targets) ++csr.in_offsets[v + 1];
  for (NodeId v = 0; v < n; ++v) csr.in_offsets[v + 1] += csr.in_offsets[v];
  csr.in_sources.resize(m);
  csr.in_edge_ids.resize(m);
  std::vector<EdgeId> cursor(csr.in_offsets.begin(), csr.in_offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (EdgeId e = csr.out_offsets[u]; e < csr.out_offsets[u + 1]; ++e) {
      const EdgeId slot = cursor[csr.out_targets[e]]++;
      csr.in_sources[slot] = u;
      csr.in_edge_ids[slot] = e;
    }
  }
  csr.footprint_bytes = csr.out_offsets.capacity() * sizeof(EdgeId) +
                        csr.out_targets.capacity() * sizeof(NodeId) +
                        csr.in_offsets.capacity() * sizeof(EdgeId) +
                        csr.in_sources.capacity() * sizeof(NodeId) +
                        csr.in_edge_ids.capacity() * sizeof(EdgeId);
  return csr;
}

// Random multigraphs with repeated arcs, self-loops, isolated nodes and
// unsorted insertion: the counting-sort build gives the index sort's bits.
TEST(GraphBuilderTest, MatchesGlobalIndexSort) {
  for (NodeId n : {0u, 1u, 2u, 50u, 1000u}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 7919 + n);
      std::vector<std::pair<NodeId, NodeId>> arcs;
      // Endpoints avoid the top quarter of ids, which stay isolated.
      const NodeId span = n < 4 ? n : n - n / 4;
      const std::size_t draws = n == 0 ? 0 : 3 * n + 5;
      for (std::size_t i = 0; i < draws; ++i) {
        const NodeId u = static_cast<NodeId>(rng.NextBounded(span));
        const NodeId w = static_cast<NodeId>(rng.NextBounded(span));
        const NodeId v = i % 7 == 0 ? u : w;  // every 7th draw a self-loop
        arcs.emplace_back(u, v);
        if (i % 5 == 0) arcs.emplace_back(u, v);  // repeated arc
      }
      for (bool dedup : {true, false}) {
        GraphBuilder builder(n);
        builder.set_deduplicate(dedup);
        for (const auto& [u, v] : arcs) builder.AddEdge(u, v);
        const Graph g = std::move(builder).Build().ValueOrDie();
        EXPECT_EQ(ReadBack(g), IndexSortBuild(n, arcs, dedup))
            << "n=" << n << " seed=" << seed << " dedup=" << dedup;
      }
    }
  }
}

TEST(GraphBuilderTest, BuildsCsr) {
  Graph g = Triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(g.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  ASSERT_EQ(g.InNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(0)[0], 2u);
}

TEST(GraphBuilderTest, UndirectedAddsBothArcs) {
  GraphBuilder b(2);
  b.AddUndirectedEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(1), 1u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdgesAndSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);  // self loop
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, KeepsDuplicatesWhenDisabled) {
  GraphBuilder b(3);
  b.set_deduplicate(false);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2);
  b.AddEdge(0, 5);
  auto result = std::move(b).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(4);
  Graph g = std::move(b).Build().ValueOrDie();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutNeighbors(2).empty());
}

TEST(GraphTest, EdgeIdsAreOutCsrPositions) {
  GraphBuilder b(4);
  b.AddEdge(1, 3);
  b.AddEdge(0, 2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  // Sorted by (src, dst): (0,1)=id0, (0,2)=id1, (1,3)=id2.
  EXPECT_EQ(g.OutEdgeBegin(0), 0u);
  EXPECT_EQ(g.OutEdgeBegin(1), 2u);
  EXPECT_EQ(g.EdgeTarget(0), 1u);
  EXPECT_EQ(g.EdgeTarget(1), 2u);
  EXPECT_EQ(g.EdgeSource(0), 0u);
  EXPECT_EQ(g.EdgeSource(2), 1u);
}

TEST(GraphTest, InEdgeIdsMatchOutEdges) {
  Graph g = Triangle();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto in_neighbors = g.InNeighbors(v);
    auto in_edges = g.InEdgeIds(v);
    ASSERT_EQ(in_neighbors.size(), in_edges.size());
    for (std::size_t i = 0; i < in_neighbors.size(); ++i) {
      EXPECT_EQ(g.EdgeSource(in_edges[i]), in_neighbors[i]);
      EXPECT_EQ(g.EdgeTarget(in_edges[i]), v);
    }
  }
}

TEST(GraphTest, DegreesConsistent) {
  Graph g = Triangle();
  EdgeId out_sum = 0, in_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out_sum += g.OutDegree(u);
    in_sum += g.InDegree(u);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST(GraphTest, MemoryFootprintPositive) {
  Graph g = Triangle();
  EXPECT_GT(g.MemoryFootprintBytes(), 0u);
}

TEST(EdgeListIoTest, RoundTrip) {
  Graph g = Triangle();
  const std::string path = "/tmp/holim_graph_io_test.txt";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 3u);
  EXPECT_EQ(loaded->num_edges(), 3u);
  std::remove(path.c_str());
}

// Rows straddle the loader's read chunks, and a comment longer than a
// chunk makes it grow its buffer: the graph still round-trips exactly.
TEST(EdgeListIoTest, RowsSpanningReadChunksRoundTrip) {
  const Graph g = GenerateBarabasiAlbert(20000, 3, 11).ValueOrDie();
  const std::string path = "/tmp/holim_graph_io_chunks.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "# " << std::string(200000, 'c') << "\r\n";
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.OutNeighbors(u)) out << u << '\t' << v << "\r\n";
      if (u % 1000 == 0) out << "% comment\n\n";
    }
  }
  EdgeListOptions options;
  options.renumber = false;
  auto loaded = ReadEdgeList(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The generator's builder also held the arcs its dedup dropped, so the
  // capacity-based footprints may differ; the arrays may not.
  CsrArrays expected = ReadBack(g), actual = ReadBack(*loaded);
  expected.footprint_bytes = actual.footprint_bytes = 0;
  EXPECT_EQ(actual, expected);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, SkipsCommentsAndRenumbers) {
  const std::string path = "/tmp/holim_graph_io_test2.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "# SNAP-style header\n%% another comment\n100 200\n200 300\n");
    fclose(f);
  }
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 3u);  // renumbered to 0..2
  EXPECT_EQ(loaded->num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, UndirectedOptionDoublesArcs) {
  const std::string path = "/tmp/holim_graph_io_test3.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "0 1\n");
    fclose(f);
  }
  EdgeListOptions options;
  options.undirected = true;
  auto loaded = ReadEdgeList(path, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileIsIoError) {
  auto loaded = ReadEdgeList("/tmp/definitely_missing_holim.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(EdgeListIoTest, MalformedLineIsIoError) {
  const std::string path = "/tmp/holim_graph_io_test4.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "justone\n");
    fclose(f);
  }
  auto loaded = ReadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(SubgraphTest, InducedSubgraphKeepsInternalEdges) {
  // 0->1->2->3 plus 0->3; induce on {0,1,3}.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(0, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  auto sub = ExtractInducedSubgraph(g, {0, 1, 3}).ValueOrDie();
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 0->1 and 0->3 survive
  // Mappings are mutually inverse.
  for (NodeId s = 0; s < sub.graph.num_nodes(); ++s) {
    EXPECT_EQ(sub.to_subgraph[sub.to_original[s]], s);
  }
  EXPECT_EQ(sub.to_subgraph[2], kInvalidNode);
}

TEST(SubgraphTest, EdgeMappingPointsAtOriginalEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto sub = ExtractInducedSubgraph(g, {0, 1}).ValueOrDie();
  ASSERT_EQ(sub.graph.num_edges(), 1u);
  const EdgeId orig = sub.edge_to_original[0];
  EXPECT_EQ(g.EdgeSource(orig), 0u);
  EXPECT_EQ(g.EdgeTarget(orig), 1u);
}

TEST(SubgraphTest, ProjectsValues) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto sub = ExtractInducedSubgraph(g, {1, 2}).ValueOrDie();
  std::vector<double> node_vals = {10, 20, 30};
  auto projected = ProjectNodeValues(sub, node_vals);
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_EQ(projected[0], 20);
  EXPECT_EQ(projected[1], 30);
  std::vector<double> edge_vals = {0.5, 0.7};
  auto pe = ProjectEdgeValues(sub, edge_vals);
  ASSERT_EQ(pe.size(), 1u);
  EXPECT_EQ(pe[0], 0.7);  // the 1->2 edge
}

TEST(SubgraphTest, OutOfRangeNodeRejected) {
  Graph g = Triangle();
  auto sub = ExtractInducedSubgraph(g, {0, 9});
  EXPECT_FALSE(sub.ok());
}

TEST(SubgraphTest, DuplicateNodesDeduplicated) {
  Graph g = Triangle();
  auto sub = ExtractInducedSubgraph(g, {0, 0, 1, 1}).ValueOrDie();
  EXPECT_EQ(sub.graph.num_nodes(), 2u);
}

}  // namespace
}  // namespace holim
