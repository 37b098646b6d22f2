#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/imm.h"
#include "algo/rr_sets.h"
#include "algo/tim_plus.h"
#include "diffusion/spread_estimator.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"

namespace holim {
namespace {

TEST(RrSetsTest, RootAlwaysMember) {
  Graph g = GenerateErdosRenyi(100, 4.0, 1).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  RrCollection rr(g, params);
  rr.GenerateParallel(200, 1);
  EXPECT_EQ(rr.num_sets(), 200u);
  for (std::size_t i = 0; i < rr.num_sets(); ++i) {
    EXPECT_FALSE(rr.set(i).empty());
  }
}

TEST(RrSetsTest, ZeroProbabilitySingletons) {
  Graph g = GenerateErdosRenyi(50, 3.0, 2).ValueOrDie();
  auto params = MakeUniformIc(g, 0.0);
  RrCollection rr(g, params);
  rr.GenerateParallel(100, 2);
  for (std::size_t i = 0; i < rr.num_sets(); ++i) {
    EXPECT_EQ(rr.set(i).size(), 1u);  // only the root
  }
}

TEST(RrSetsTest, CoverageEstimatesSpreadUnbiased) {
  // n * E[coverage of {u}] == sigma({u}) (the RIS identity). Check on a
  // small graph against Monte-Carlo spread.
  Graph g = GenerateBarabasiAlbert(80, 2, 3).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  RrCollection rr(g, params);
  rr.GenerateParallel(60000, 3);
  McOptions mc;
  mc.num_simulations = 60000;
  mc.seed = 4;
  for (NodeId u : {NodeId{0}, NodeId{1}, NodeId{10}}) {
    const double ris = g.num_nodes() * rr.CoveredFraction({u});
    // CoveredFraction counts the root too when u is the root; compare with
    // spread + activation-of-self = sigma + P(u activates itself = always
    // when root == u). RIS estimates E[|influenced set|] including u.
    const double sigma = EstimateSpread(g, params, {u}, mc) + 1.0;
    EXPECT_NEAR(ris, sigma, 0.08 * sigma) << "node " << u;
  }
}

/// `sources` in-edge-free nodes, then `sinks` nodes whose in-rows each
/// list every source: an RR set rooted at a sink is exactly the root plus
/// its row's live in-edges, one independent draw of the whole row.
Graph LongRowGraph(NodeId sources, NodeId sinks) {
  GraphBuilder b(sources + sinks);
  for (NodeId v = sources; v < sources + sinks; ++v) {
    for (NodeId u = 0; u < sources; ++u) b.AddEdge(u, v);
  }
  return std::move(b).Build().ValueOrDie();
}

/// IC params with every in-edge (u, v) at `p_of(u, v)`.
template <typename Fn>
InfluenceParams RowProbabilities(const Graph& g, Fn p_of) {
  InfluenceParams params = MakeUniformIc(g, 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto in_neighbors = g.InNeighbors(v);
    const auto in_edges = g.InEdgeIds(v);
    for (std::size_t j = 0; j < in_neighbors.size(); ++j) {
      params.probability[in_edges[j]] = p_of(in_neighbors[j], v);
    }
  }
  return params;
}

/// All sinks share one row law. Per source u, the fraction of sink-rooted
/// sets containing u must lie within the Bernstein radius
/// sqrt(2 p (1-p) L / N) + 2 L / 3N, L = ln(2 / delta), of p(u, sink); so
/// must the mean number of live edges per row around sum p, with variance
/// sum p (1-p) and range d. delta = 1e-9: with fixed seeds, a failure is a
/// statement about the sampler.
void ExpectRowLaw(const Graph& g, const InfluenceParams& params,
                  NodeId sources, uint64_t seed) {
  const double log_term = std::log(2.0 / 1e-9);
  RrCollection rr(g, params);
  ASSERT_TRUE(rr.GenerateParallel(200000, seed).ok());
  std::vector<double> live(sources, 0.0);
  double rows = 0.0;
  for (std::size_t s = 0; s < rr.num_sets(); ++s) {
    const auto set = rr.set(s);
    if (set[0] < sources) continue;
    rows += 1.0;
    for (std::size_t j = 1; j < set.size(); ++j) live[set[j]] += 1.0;
  }
  ASSERT_GT(rows, 50000.0);
  const auto in_neighbors = g.InNeighbors(sources);
  const auto in_edges = g.InEdgeIds(sources);
  double mean = 0.0, variance = 0.0, observed = 0.0;
  for (std::size_t j = 0; j < in_neighbors.size(); ++j) {
    const NodeId u = in_neighbors[j];
    const double p = params.p(in_edges[j]);
    const double radius = std::sqrt(2.0 * p * (1.0 - p) * log_term / rows) +
                          2.0 * log_term / (3.0 * rows);
    EXPECT_NEAR(live[u] / rows, p, radius) << "source " << u;
    mean += p;
    variance += p * (1.0 - p);
    observed += live[u];
  }
  const double row_radius =
      std::sqrt(2.0 * variance * log_term / rows) +
      2.0 * static_cast<double>(sources) * log_term / (3.0 * rows);
  EXPECT_NEAR(observed / rows, mean, row_radius);
}

TEST(RrSetsTest, LongRowLiveFrequenciesMatchEdgeProbabilities) {
  constexpr NodeId kSources = 256, kSinks = 256;
  const Graph g = LongRowGraph(kSources, kSinks);
  {
    SCOPED_TRACE("uniform IC");
    ExpectRowLaw(g, MakeUniformIc(g, 0.05), kSources, 101);
  }
  {
    SCOPED_TRACE("WC");
    ExpectRowLaw(g, MakeWeightedCascade(g), kSources, 102);
  }
  // Mixed rows thin every candidate below the max: the classic
  // trivalency levels, and a row whose max is high enough that a
  // mis-stepped gap would revisit positions often.
  for (const auto& levels : std::vector<std::vector<double>>{
           {0.1, 0.01, 0.001}, {0.6, 0.2, 0.05}}) {
    SCOPED_TRACE("mixed row, max " + std::to_string(levels[0]));
    ExpectRowLaw(g,
                 RowProbabilities(
                     g, [&](NodeId u, NodeId) { return levels[u % 3]; }),
                 kSources, 103);
  }
}

TEST(RrSetsTest, CertainRowsYieldWholeRowOrNothing) {
  // Sink v's row: all p = 1 (v % 3 == 0), all p = 0 (v % 3 == 1), or p = 1
  // on even sources and 0 on odd ones (v % 3 == 2).
  constexpr NodeId kSources = 256, kSinks = 48;
  const Graph g = LongRowGraph(kSources, kSinks);
  const auto live = [](NodeId u, NodeId v) {
    return v % 3 == 0 || (v % 3 == 2 && u % 2 == 0);
  };
  const InfluenceParams params = RowProbabilities(
      g, [&](NodeId u, NodeId v) { return live(u, v) ? 1.0 : 0.0; });
  RrCollection rr(g, params);
  ASSERT_TRUE(rr.GenerateParallel(20000, 104).ok());
  std::size_t whole_rows = 0;
  for (std::size_t s = 0; s < rr.num_sets(); ++s) {
    const auto set = rr.set(s);
    const NodeId root = set[0];
    if (root < kSources) {
      EXPECT_EQ(set.size(), 1u);
      continue;
    }
    std::vector<NodeId> members(set.begin() + 1, set.end());
    std::sort(members.begin(), members.end());
    std::vector<NodeId> expected;
    for (NodeId u = 0; u < kSources; ++u) {
      if (live(u, root)) expected.push_back(u);
    }
    EXPECT_EQ(members, expected) << "root " << root;
    whole_rows += root % 3 == 0;
  }
  EXPECT_GT(whole_rows, 1000u);
}

TEST(RrSetsTest, MaxCoverageGreedyOnCraftedSets) {
  // Graph with 4 nodes; p = 0 so each RR set is just its root. Coverage
  // greedy then picks the most frequent roots.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.0);
  RrCollection rr(g, params);
  rr.GenerateParallel(4000, 5);
  auto coverage = rr.SelectMaxCoverage(2);
  EXPECT_EQ(coverage.seeds.size(), 2u);
  EXPECT_GT(coverage.covered_fraction, 0.4);  // ~2/4 of uniform roots
  EXPECT_LT(coverage.covered_fraction, 0.65);
}

TEST(RrSetsTest, LtModeWalksSinglePath) {
  // LT live-edge RR sets on a path: reverse walk from root collects the
  // full prefix (each node has exactly one in-edge of weight 1).
  Graph g = GeneratePath(6).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  RrCollection rr(g, params);
  rr.GenerateParallel(500, 6);
  for (std::size_t i = 0; i < rr.num_sets(); ++i) {
    const auto& set = rr.set(i);
    // Set = {root, root-1, ..., 0}: size == root+1.
    EXPECT_EQ(set.size(), static_cast<std::size_t>(set[0]) + 1);
  }
}

TEST(RrSetsTest, MemoryAccounting) {
  Graph g = GenerateErdosRenyi(200, 4.0, 7).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  RrCollection rr(g, params);
  rr.GenerateParallel(1000, 8);
  EXPECT_GT(rr.MemoryBytes(), rr.num_sets() * sizeof(NodeId));
  EXPECT_GT(rr.total_entries(), 1000u);
  // The skip-and-thin row table: three doubles per node, none under LT.
  EXPECT_GE(rr.RowTableMemoryBytes(), g.num_nodes() * 3 * sizeof(double));
  EXPECT_EQ(RrCollection(g, MakeLinearThreshold(g)).RowTableMemoryBytes(),
            0u);
  rr.Clear();
  EXPECT_EQ(rr.num_sets(), 0u);
}

TEST(TimPlusTest, SelectsQualitySeedsOnStar) {
  GraphBuilder b(20);
  for (NodeId leaf = 1; leaf < 20; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.5);
  TimPlusOptions options;
  options.epsilon = 0.2;
  options.max_theta = 100000;
  TimPlusSelector tim(g, params, options);
  auto selection = tim.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 0u);
  EXPECT_GT(tim.last_run_stats().theta, 0u);
}

TEST(TimPlusTest, SpreadComparableToGreedyChoice) {
  Graph g = GenerateBarabasiAlbert(300, 3, 9).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  TimPlusOptions options;
  options.epsilon = 0.3;
  options.max_theta = 200000;
  TimPlusSelector tim(g, params, options);
  auto tim_sel = tim.Select(5).ValueOrDie();
  McOptions mc;
  mc.num_simulations = 5000;
  mc.seed = 10;
  const double tim_spread = EstimateSpread(g, params, tim_sel.seeds, mc);
  // Degree-based floor: TIM+'s seeds must beat random picks comfortably.
  const double random_spread =
      EstimateSpread(g, params, {7, 33, 77, 120, 250}, mc);
  EXPECT_GT(tim_spread, random_spread);
}

TEST(TimPlusTest, ThetaCapRecorded) {
  Graph g = GenerateBarabasiAlbert(100, 2, 11).ValueOrDie();
  auto params = MakeUniformIc(g, 0.05);
  TimPlusOptions options;
  options.epsilon = 0.05;  // tiny epsilon -> huge theta -> cap binds
  options.max_theta = 500;
  TimPlusSelector tim(g, params, options);
  auto selection = tim.Select(2).ValueOrDie();
  EXPECT_TRUE(tim.last_run_stats().theta_capped);
  EXPECT_EQ(tim.last_run_stats().theta, 500u);
}

TEST(TimPlusTest, MemoryGrowsWithTheta) {
  Graph g = GenerateBarabasiAlbert(200, 3, 12).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  TimPlusOptions small_opts, large_opts;
  small_opts.max_theta = 200;
  large_opts.max_theta = 20000;
  small_opts.epsilon = large_opts.epsilon = 0.1;
  TimPlusSelector small_tim(g, params, small_opts);
  TimPlusSelector large_tim(g, params, large_opts);
  (void)small_tim.Select(3).ValueOrDie();
  (void)large_tim.Select(3).ValueOrDie();
  EXPECT_GT(large_tim.last_run_stats().rr_memory_bytes,
            small_tim.last_run_stats().rr_memory_bytes);
}

// TIM's Algorithm 2 runs rounds i = 1 .. log2(n) - 1. On a ring where
// every node has in-degree 2 and p = 0, every RR set is its root alone with
// width 2, so kappa = 1 - (1 - 2/m)^k = 1 - (1 - 1/n)^4 exactly, which
// first exceeds 2^-i at i = 8 = floor(log2 1000) - 1: only the last round
// certifies, and KPT* = n * kappa / 2.
TEST(TimPlusTest, KptEstimationRunsTheLastRound) {
  constexpr NodeId n = 1000;
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    b.AddEdge(u, (u + 1) % n);
    b.AddEdge(u, (u + 2) % n);
  }
  const Graph g = std::move(b).Build().ValueOrDie();
  const auto params = MakeUniformIc(g, 0.0);
  TimPlusOptions options;
  options.max_theta = 1000;
  TimPlusSelector tim(g, params, options);
  ASSERT_TRUE(tim.Select(4).ok());
  const double kappa = 1.0 - std::pow(1.0 - 1.0 / n, 4.0);
  ASSERT_GT(kappa, std::pow(2.0, -8));
  ASSERT_LT(kappa, std::pow(2.0, -7));
  EXPECT_NEAR(tim.last_run_stats().kpt_star, n * kappa / 2.0, 1e-9);
}

TEST(ImmTest, SelectsHubOnStar) {
  GraphBuilder b(20);
  for (NodeId leaf = 1; leaf < 20; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.5);
  ImmOptions options;
  options.epsilon = 0.2;
  options.max_theta = 100000;
  ImmSelector imm(g, params, options);
  auto selection = imm.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 0u);
}

TEST(ImmTest, UsesFewerRrSetsThanTimPlus) {
  // IMM's sample reuse should land at a smaller theta than TIM+ for the
  // same epsilon (its headline improvement).
  Graph g = GenerateBarabasiAlbert(400, 3, 13).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  TimPlusOptions tim_opts;
  tim_opts.epsilon = 0.3;
  tim_opts.max_theta = 2000000;
  ImmOptions imm_opts;
  imm_opts.epsilon = 0.3;
  imm_opts.max_theta = 2000000;
  TimPlusSelector tim(g, params, tim_opts);
  ImmSelector imm(g, params, imm_opts);
  (void)tim.Select(5).ValueOrDie();
  (void)imm.Select(5).ValueOrDie();
  EXPECT_LT(imm.last_run_stats().theta, tim.last_run_stats().theta);
}

TEST(LogNChooseKTest, KnownValues) {
  EXPECT_NEAR(LogNChooseK(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogNChooseK(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(LogNChooseK(10, 10), 0.0, 1e-9);
}

}  // namespace
}  // namespace holim
