#include <gtest/gtest.h>

#include <vector>

#include "algo/imrank.h"
#include "diffusion/spread_estimator.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"

namespace holim {
namespace {

TEST(ImRankTest, HubWinsOnStar) {
  GraphBuilder b(10);
  for (NodeId leaf = 1; leaf < 10; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.4);
  ImRankSelector imrank(g, params);
  auto selection = imrank.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 0u);
}

TEST(ImRankTest, MassConservedByLfa) {
  // LFA only moves mass between nodes: the total must stay n.
  Graph g = GenerateBarabasiAlbert(200, 3, 1).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  ImRankSelector imrank(g, params);
  std::vector<double> scores(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) scores[u] = g.OutDegree(u);
  auto mass = imrank.LastToFirstAllocation(scores);
  double total = 0;
  for (double m : mass) total += m;
  EXPECT_NEAR(total, static_cast<double>(g.num_nodes()), 1e-6);
}

TEST(ImRankTest, ConvergesQuickly) {
  Graph g = GenerateBarabasiAlbert(300, 3, 2).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ImRankSelector imrank(g, params);
  auto selection = imrank.Select(10).ValueOrDie();
  EXPECT_EQ(selection.seeds.size(), 10u);
  EXPECT_LE(imrank.last_iterations(), 20u);
}

TEST(ImRankTest, BeatsRandomOnSpread) {
  Graph g = GenerateBarabasiAlbert(400, 3, 3).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ImRankSelector imrank(g, params);
  auto selection = imrank.Select(8).ValueOrDie();
  McOptions mc;
  mc.num_simulations = 2000;
  mc.seed = 4;
  const double imrank_spread = EstimateSpread(g, params, selection.seeds, mc);
  const double random_spread =
      EstimateSpread(g, params, {11, 57, 123, 199, 250, 301, 350, 390}, mc);
  EXPECT_GT(imrank_spread, random_spread);
}

TEST(ImRankTest, RejectsBadK) {
  Graph g = GeneratePath(3).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ImRankSelector imrank(g, params);
  EXPECT_FALSE(imrank.Select(0).ok());
  EXPECT_FALSE(imrank.Select(4).ok());
}

}  // namespace
}  // namespace holim
