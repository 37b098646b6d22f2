#include <gtest/gtest.h>

#include <cmath>

#include "diffusion/spread_estimator.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

TEST(SpreadEstimatorTest, ExactOnTwoNodeGraph) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.35);
  McOptions mc;
  mc.num_simulations = 200000;
  mc.seed = 1;
  EXPECT_NEAR(EstimateSpread(g, params, {0}, mc), 0.35, 0.005);
}

TEST(SpreadEstimatorTest, ExactOnDiamond) {
  // 0 -> {1,2} -> 3, all p = 0.5.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.5);
  // E = P(1) + P(2) + P(3). P(1)=P(2)=.5.
  // P(3) = 1 - (1 - .5*.5)^2 = 1 - .75^2 = .4375.
  McOptions mc;
  mc.num_simulations = 200000;
  mc.seed = 2;
  EXPECT_NEAR(EstimateSpread(g, params, {0}, mc), 0.5 + 0.5 + 0.4375, 0.01);
}

TEST(SpreadEstimatorTest, SeedsExcludedFromSpread) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  McOptions mc;
  mc.num_simulations = 100;
  EXPECT_DOUBLE_EQ(EstimateSpread(g, params, {0, 1}, mc), 0.0);
}

TEST(SpreadEstimatorTest, DeterministicInSeed) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.5);
  ThreadPool pool(1);
  McOptions mc;
  mc.num_simulations = 1000;
  mc.seed = 77;
  mc.pool = &pool;
  const double a = EstimateSpread(g, params, {0}, mc);
  const double b2 = EstimateSpread(g, params, {0}, mc);
  EXPECT_DOUBLE_EQ(a, b2);
}

// Simulation i draws from its own (seed, i)-derived stream and blocks are
// reduced in fixed order, so estimates are bitwise identical for any pool
// size — 1 vs 8 threads, for both first-layer models.
TEST(SpreadEstimatorTest, SpreadBitwiseEqualAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(300, 2, 19).ValueOrDie();
  const std::vector<NodeId> seeds = {0, 5, 17};
  for (auto params : {MakeWeightedCascade(g), MakeLinearThreshold(g)}) {
    ThreadPool pool1(1), pool8(8);
    McOptions mc;
    mc.num_simulations = 1000;  // several kMcBlockSize blocks
    mc.seed = 4;
    mc.pool = &pool1;
    const double one = EstimateSpread(g, params, seeds, mc);
    mc.pool = &pool8;
    const double eight = EstimateSpread(g, params, seeds, mc);
    EXPECT_EQ(one, eight);
  }
}

// IC-N runs on the same per-simulation streams: 1 vs 8 threads, bitwise.
TEST(SpreadEstimatorTest, IcnPositiveSpreadBitwiseEqualAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(300, 2, 19).ValueOrDie();
  auto params = MakeUniformIc(g, 0.05);
  ThreadPool pool1(1), pool8(8);
  McOptions mc;
  mc.num_simulations = 1000;
  mc.seed = 42;
  mc.pool = &pool1;
  const double one = EstimateIcnPositiveSpread(g, params, 0.9, {0, 5}, mc);
  mc.pool = &pool8;
  const double eight = EstimateIcnPositiveSpread(g, params, 0.9, {0, 5}, mc);
  EXPECT_EQ(one, eight);
}

TEST(SpreadEstimatorTest, OpinionSpreadBitwiseEqualAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(200, 2, 29).ValueOrDie();
  g.BuildEdgeSourceIndex();
  auto params = MakeUniformIc(g, 0.2);
  OpinionParams opinions =
      MakeRandomOpinions(g, OpinionDistribution::kStandardNormal, 3);
  const std::vector<NodeId> seeds = {1, 2, 3};
  ThreadPool pool1(1), pool8(8);
  McOptions mc;
  mc.num_simulations = 700;
  mc.seed = 11;
  mc.pool = &pool1;
  const auto one = EstimateOpinionSpread(g, params, opinions,
                                         OiBase::kIndependentCascade, seeds,
                                         0.7, mc);
  mc.pool = &pool8;
  const auto eight = EstimateOpinionSpread(g, params, opinions,
                                           OiBase::kIndependentCascade, seeds,
                                           0.7, mc);
  EXPECT_EQ(one.opinion_spread, eight.opinion_spread);
  EXPECT_EQ(one.effective_opinion_spread, eight.effective_opinion_spread);
  EXPECT_EQ(one.plain_spread, eight.plain_spread);
}

TEST(SpreadEstimatorTest, MonotoneInSeedSetSize) {
  GraphBuilder b(6);
  for (NodeId u = 0; u < 5; ++u) b.AddEdge(u, u + 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.3);
  McOptions mc;
  mc.num_simulations = 20000;
  mc.seed = 3;
  const double one = EstimateSpread(g, params, {0}, mc);
  const double two = EstimateSpread(g, params, {0, 3}, mc);
  EXPECT_GT(two, one);
}

TEST(SpreadEstimatorTest, OpinionEstimateBundlesAllThreeMetrics) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {1.0, -0.5};
  opinions.interaction = {1.0};
  McOptions mc;
  mc.num_simulations = 1000;
  auto e = EstimateOpinionSpread(g, params, opinions,
                                 OiBase::kIndependentCascade, {0}, 1.0, mc);
  // o'_1 = (-0.5 + 1)/2 = 0.25 deterministically.
  EXPECT_NEAR(e.opinion_spread, 0.25, 1e-9);
  EXPECT_NEAR(e.effective_opinion_spread, 0.25, 1e-9);
  EXPECT_NEAR(e.plain_spread, 1.0, 1e-9);
}

TEST(SpreadEstimatorTest, LambdaZeroIgnoresNegativeMass) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {-1.0, -0.8};
  opinions.interaction = {1.0};
  McOptions mc;
  mc.num_simulations = 1000;
  auto lambda1 = EstimateOpinionSpread(g, params, opinions,
                                       OiBase::kIndependentCascade, {0}, 1.0, mc);
  auto lambda0 = EstimateOpinionSpread(g, params, opinions,
                                       OiBase::kIndependentCascade, {0}, 0.0, mc);
  EXPECT_LT(lambda1.effective_opinion_spread, 0.0);
  EXPECT_DOUBLE_EQ(lambda0.effective_opinion_spread, 0.0);
}

TEST(SpreadEstimatorTest, OcEstimatorRuns) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeLinearThreshold(g);
  OpinionParams opinions;
  opinions.opinion = {1.0, 0.0};
  opinions.interaction = {0.5};
  McOptions mc;
  mc.num_simulations = 1000;
  EXPECT_NEAR(EstimateOcOpinionSpread(g, params, opinions, {0}, mc), 0.5, 1e-9);
}

}  // namespace
}  // namespace holim
