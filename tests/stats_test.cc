#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/stats.h"
#include "util/rng.h"

namespace holim {
namespace {

TEST(BfsTest, DistancesOnPath) {
  Graph g = GeneratePath(5).ValueOrDie();
  auto dist = BfsDistances(g, 0);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(dist[u], u);
  // Reverse direction unreachable.
  auto dist_from_end = BfsDistances(g, 4);
  EXPECT_EQ(dist_from_end[0], kUnreachable);
  EXPECT_EQ(dist_from_end[4], 0u);
}

TEST(BfsTest, StarGraph) {
  GraphBuilder b(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto dist = BfsDistances(g, 0);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_EQ(dist[leaf], 1u);
}

TEST(ReachabilityTest, CountsClosure) {
  Graph g = GeneratePath(10).ValueOrDie();
  EXPECT_EQ(ForwardReachableCount(g, {0}), 10u);
  EXPECT_EQ(ForwardReachableCount(g, {5}), 5u);
  EXPECT_EQ(ForwardReachableCount(g, {0, 5}), 10u);  // union, no double count
  EXPECT_EQ(ForwardReachableCount(g, {}), 0u);
}

TEST(StatsTest, PathDiameter) {
  Graph g = GeneratePath(11).ValueOrDie();
  auto stats = ComputeGraphStats(g, 11, 1);
  EXPECT_EQ(stats.num_nodes, 11u);
  EXPECT_EQ(stats.num_edges, 10u);
  EXPECT_EQ(stats.observed_diameter, 10u);
  EXPECT_GT(stats.effective_diameter_90, 1.0);
}

TEST(StatsTest, AverageDegree) {
  Graph g = GenerateErdosRenyi(1000, 5.0, 3).ValueOrDie();
  auto stats = ComputeGraphStats(g, 0);
  EXPECT_NEAR(stats.avg_out_degree, 5.0, 0.5);
  EXPECT_EQ(stats.effective_diameter_90, 0.0);  // samples disabled
}

TEST(StatsTest, EmptyGraph) {
  GraphBuilder b(0);
  Graph g = std::move(b).Build().ValueOrDie();
  auto stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_EQ(stats.avg_out_degree, 0.0);
}

TEST(StatsTest, SmallWorldHasSmallEffectiveDiameter) {
  Graph g = GenerateBarabasiAlbert(5000, 4, 9).ValueOrDie();
  auto stats = ComputeGraphStats(g, 32, 1);
  // Social-like graphs: effective diameter well under 10 (Table 2 band).
  EXPECT_GT(stats.effective_diameter_90, 1.0);
  EXPECT_LT(stats.effective_diameter_90, 10.0);
}

/// Reference diameters: one BfsDistances per sampled source, the sources
/// drawn as ComputeGraphStats draws them. Returns (eff_diam90, observed).
std::pair<double, uint32_t> PerSourceDiameters(const Graph& g,
                                               uint32_t diameter_samples,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> hop_counts;
  uint64_t reachable_pairs = 0;
  uint32_t observed = 0;
  const uint32_t samples = std::min<uint32_t>(diameter_samples, g.num_nodes());
  for (uint32_t i = 0; i < samples; ++i) {
    const auto dist = BfsDistances(
        g, static_cast<NodeId>(rng.NextBounded(g.num_nodes())));
    for (uint32_t d : dist) {
      if (d == kUnreachable || d == 0) continue;
      if (d >= hop_counts.size()) hop_counts.resize(d + 1, 0);
      ++hop_counts[d];
      ++reachable_pairs;
      observed = std::max(observed, d);
    }
  }
  if (reachable_pairs == 0) return {0.0, observed};
  const double target = 0.9 * static_cast<double>(reachable_pairs);
  uint64_t cumulative = 0;
  for (uint32_t d = 1; d < hop_counts.size(); ++d) {
    const uint64_t next = cumulative + hop_counts[d];
    if (static_cast<double>(next) >= target) {
      const double frac =
          hop_counts[d] == 0
              ? 0.0
              : (target - static_cast<double>(cumulative)) / hop_counts[d];
      return {(d - 1) + frac, observed};
    }
    cumulative = next;
  }
  return {0.0, observed};
}

/// True when the first lane group (64 draws) of `seed` repeats a source.
bool DrawsDuplicateSource(NodeId n, uint64_t seed) {
  Rng rng(seed);
  std::set<uint64_t> drawn;
  for (uint32_t i = 0; i < std::min<uint32_t>(64, n); ++i) {
    if (!drawn.insert(rng.NextBounded(n)).second) return true;
  }
  return false;
}

// The bit-parallel sweep (64 sources per lane group) reproduces the
// per-source BFS histogram: one group, a partial group, several groups,
// many levels, unreachable pairs and repeated sources.
TEST(StatsTest, BitParallelDiametersMatchPerSourceBfs) {
  GraphBuilder split(300);  // directed cycle, two-way path, star, isolated
  for (NodeId u = 0; u < 100; ++u) split.AddEdge(u, (u + 1) % 100);
  for (NodeId u = 100; u < 179; ++u) split.AddUndirectedEdge(u, u + 1);
  for (NodeId leaf = 181; leaf < 220; ++leaf) split.AddEdge(180, leaf);
  const Graph disconnected = std::move(split).Build().ValueOrDie();
  const Graph path = GeneratePath(200).ValueOrDie();
  const Graph ba = GenerateBarabasiAlbert(2000, 3, 4).ValueOrDie();
  // Seed 3 repeats a source within the first 64 draws on every graph.
  for (const Graph* g : {&path, &disconnected, &ba}) {
    ASSERT_TRUE(DrawsDuplicateSource(g->num_nodes(), 3)) << g->num_nodes();
  }
  for (const Graph* g : {&path, &disconnected, &ba}) {
    for (uint32_t samples : {1u, 8u, 63u, 64u, 65u, 130u}) {
      for (uint64_t seed : {1u, 3u}) {
        const GraphStats stats = ComputeGraphStats(*g, samples, seed);
        const auto [eff, observed] = PerSourceDiameters(*g, samples, seed);
        EXPECT_EQ(stats.effective_diameter_90, eff)
            << "n=" << g->num_nodes() << " samples=" << samples
            << " seed=" << seed;
        EXPECT_EQ(stats.observed_diameter, observed)
            << "n=" << g->num_nodes() << " samples=" << samples
            << " seed=" << seed;
      }
    }
  }
}

TEST(StatsTest, MaxDegreesTracked) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  auto stats = ComputeGraphStats(g, 0);
  EXPECT_EQ(stats.max_out_degree, 3u);
  EXPECT_EQ(stats.max_in_degree, 2u);
}

}  // namespace
}  // namespace holim
