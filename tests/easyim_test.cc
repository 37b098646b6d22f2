#include <gtest/gtest.h>

#include <cmath>

#include "algo/easyim.h"
#include "diffusion/spread_estimator.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"

namespace holim {
namespace {

std::vector<double> Scores(const Graph& g, const InfluenceParams& params,
                           uint32_t l) {
  EasyImScorer scorer(g, params, l);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> scores;
  scorer.AssignScores(excluded, &scores);
  return scores;
}

TEST(EasyImTest, PathClosedForm) {
  // On a directed path with uniform p, Delta_l(u) = sum_{i=1..min(l,len)} p^i.
  Graph g = GeneratePath(6).ValueOrDie();
  auto params = MakeUniformIc(g, 0.5);
  for (uint32_t l = 1; l <= 5; ++l) {
    auto scores = Scores(g, params, l);
    for (NodeId u = 0; u < 6; ++u) {
      const uint32_t reach = std::min<uint32_t>(l, 5 - u);
      double expected = 0;
      for (uint32_t i = 1; i <= reach; ++i) expected += std::pow(0.5, i);
      EXPECT_NEAR(scores[u], expected, 1e-12)
          << "node " << u << " l=" << l;
    }
  }
}

TEST(EasyImTest, StarGraphScore) {
  // Hub -> 4 leaves with p = 0.1: Delta_1(hub) = 0.4, leaves 0.
  GraphBuilder b(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  auto scores = Scores(g, params, 3);
  EXPECT_NEAR(scores[0], 0.4, 1e-12);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_EQ(scores[leaf], 0.0);
}

TEST(EasyImTest, TreeScoreEqualsExpectedSpread) {
  // Conclusion 2: on trees EaSyIM captures the expected spread exactly
  // (with l >= depth). Verify against Monte Carlo.
  Graph g = GenerateRandomTree(60, 3, 4).ValueOrDie();
  auto params = MakeUniformIc(g, 0.3);
  auto scores = Scores(g, params, 30);
  McOptions mc;
  mc.num_simulations = 60000;
  mc.seed = 5;
  for (NodeId u : {NodeId{0}, NodeId{1}, NodeId{5}, NodeId{20}}) {
    const double sigma = EstimateSpread(g, params, {u}, mc);
    EXPECT_NEAR(scores[u], sigma, 0.05 * std::max(1.0, sigma))
        << "node " << u;
  }
}

TEST(EasyImTest, ScoreMonotoneInL) {
  Graph g = GenerateBarabasiAlbert(300, 3, 6).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  auto s1 = Scores(g, params, 1);
  auto s3 = Scores(g, params, 3);
  auto s5 = Scores(g, params, 5);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_LE(s1[u], s3[u] + 1e-12);
    EXPECT_LE(s3[u], s5[u] + 1e-12);
  }
}

TEST(EasyImTest, ExcludedNodesRemovedFromGraph) {
  Graph g = GeneratePath(4).ValueOrDie();  // 0->1->2->3
  auto params = MakeUniformIc(g, 0.5);
  EasyImScorer scorer(g, params, 3);
  EpochSet excluded(4);
  excluded.Reset(4);
  excluded.Insert(1);
  std::vector<double> scores;
  scorer.AssignScores(excluded, &scores);
  // Node 0's only path goes through excluded node 1 -> score 0.
  EXPECT_EQ(scores[0], 0.0);
  EXPECT_TRUE(std::isinf(scores[1]) && scores[1] < 0);
  EXPECT_NEAR(scores[2], 0.5, 1e-12);
}

TEST(EasyImTest, LinearSpaceContract) {
  Graph g = GenerateBarabasiAlbert(10000, 3, 7).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  EasyImScorer scorer(g, params, 3);
  // O(n) scratch: two doubles per node.
  EXPECT_LE(scorer.ScratchBytes(), 2u * sizeof(double) * (g.num_nodes() + 16));
}

TEST(EasyImTest, HigherDegreeNodesScoreHigher) {
  // With uniform p, Delta_1 is p * outdeg: ordering must follow degree.
  Graph g = GenerateBarabasiAlbert(500, 3, 8).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  auto scores = Scores(g, params, 1);
  for (NodeId u = 0; u + 1 < g.num_nodes(); ++u) {
    if (g.OutDegree(u) > g.OutDegree(u + 1)) {
      EXPECT_GT(scores[u], scores[u + 1]);
    }
  }
}

TEST(EasyImTest, WcParamsSupported) {
  Graph g = GenerateBarabasiAlbert(200, 3, 9).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  auto scores = Scores(g, params, 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_GE(scores[u], 0.0);
    EXPECT_TRUE(std::isfinite(scores[u]));
  }
}

TEST(EasyImTest, ParallelScoresBitwiseIdenticalToSerial) {
  Graph g = GenerateBarabasiAlbert(2000, 3, 11).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  EasyImScorer serial(g, params, 4), parallel(g, params, 4);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  excluded.Insert(5);
  excluded.Insert(500);
  std::vector<double> serial_scores, parallel_scores;
  serial.AssignScores(excluded, &serial_scores);
  ThreadPool pool(4);
  parallel.AssignScores(excluded, &parallel_scores, &pool);
  ASSERT_EQ(serial_scores.size(), parallel_scores.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(serial_scores[u], parallel_scores[u]) << "node " << u;
  }
}

/// Parameterized sweep: scores are finite, nonnegative, and bounded by the
/// reachable-set size for every (l, p) combination.
class EasyImPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>> {};

TEST_P(EasyImPropertyTest, ScoresBoundedByReachability) {
  const auto [l, p] = GetParam();
  Graph g = GenerateErdosRenyi(300, 4.0, 10).ValueOrDie();
  auto params = MakeUniformIc(g, p);
  auto scores = Scores(g, params, l);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_GE(scores[u], 0.0);
    EXPECT_TRUE(std::isfinite(scores[u]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EasyImPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 10u),
                       ::testing::Values(0.01, 0.1, 0.5)));

}  // namespace
}  // namespace holim
