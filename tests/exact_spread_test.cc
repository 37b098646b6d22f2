// Ground truth for the spread estimators: exact sigma(S) on graphs small
// enough to list every live-edge world.
//
// IC/WC worlds are the 2^m edge subsets (edge e live w.p. p(e)); LT worlds
// give every node one of its in-edges or none (in-edge e w.p. w(e), none
// w.p. 1 - sum w). sigma(S) = sum over worlds of P(world) * (|reach(S)| -
// |S|). Both the sketch oracle at R worlds and the Monte-Carlo estimator
// at R simulations average R independent draws of a quantity in
// [0, n - |S|], so Hoeffding bounds their error by
// (n - |S|) * sqrt(ln(2 / delta) / 2R) with probability 1 - delta. The
// seeds are fixed, so the test is deterministic; delta = 1e-9 makes a
// failure a statement about the estimator, not about luck.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"

namespace holim {
namespace {

constexpr uint32_t kSamples = 4096;
constexpr double kDelta = 1e-9;

/// |reach(seeds)| - |seeds| over the live edges (indexed by EdgeId).
int64_t ReachBeyondSeeds(const Graph& graph, const std::vector<char>& live,
                         const std::vector<NodeId>& seeds) {
  std::vector<char> seen(graph.num_nodes(), 0);
  std::vector<NodeId> stack;
  for (const NodeId s : seeds) {
    if (!seen[s]) stack.push_back(s);
    seen[s] = 1;
  }
  int64_t reached = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    const auto targets = graph.OutNeighbors(u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (!live[graph.OutEdgeBegin(u) + i] || seen[targets[i]]) continue;
      seen[targets[i]] = 1;
      stack.push_back(targets[i]);
      ++reached;
    }
  }
  return reached;
}

/// Exact sigma(S) by listing every live-edge world of the model.
double ExactSpread(const Graph& graph, const InfluenceParams& params,
                   const std::vector<NodeId>& seeds) {
  const EdgeId m = graph.num_edges();
  std::vector<char> live(m, 0);
  double sigma = 0.0;
  if (params.model != DiffusionModel::kLinearThreshold) {
    for (uint64_t subset = 0; subset < (uint64_t{1} << m); ++subset) {
      double probability = 1.0;
      for (EdgeId e = 0; e < m; ++e) {
        live[e] = (subset >> e) & 1;
        probability *= live[e] ? params.p(e) : 1.0 - params.p(e);
      }
      sigma += probability * ReachBeyondSeeds(graph, live, seeds);
    }
    return sigma;
  }
  // Mixed-radix counter over the per-node choices: choice[v] indexes v's
  // in-row, and choice[v] == in-degree means "no live in-edge".
  const NodeId n = graph.num_nodes();
  std::vector<std::size_t> choice(n, 0);
  while (true) {
    double probability = 1.0;
    std::fill(live.begin(), live.end(), 0);
    for (NodeId v = 0; v < n; ++v) {
      const auto in_edges = graph.InEdgeIds(v);
      if (choice[v] < in_edges.size()) {
        live[in_edges[choice[v]]] = 1;
        probability *= params.p(in_edges[choice[v]]);
      } else {
        double none = 1.0;
        for (const EdgeId e : in_edges) none -= params.p(e);
        probability *= std::max(0.0, none);
      }
    }
    sigma += probability * ReachBeyondSeeds(graph, live, seeds);
    NodeId v = 0;
    while (v < n && ++choice[v] > graph.InEdgeIds(v).size()) choice[v++] = 0;
    if (v == n) return sigma;
  }
}

double HoeffdingRadius(const Graph& graph, const std::vector<NodeId>& seeds) {
  return (graph.num_nodes() - static_cast<double>(seeds.size())) *
         std::sqrt(std::log(2.0 / kDelta) / (2.0 * kSamples));
}

/// Eight nodes, eleven edges: two paths into a 3-cycle plus a side branch,
/// so seeds reach each other along several routes.
Graph SmallGraph() {
  GraphBuilder b(8);
  for (const auto& [u, v] :
       std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}, {1, 3},
                                              {2, 3}, {3, 4}, {4, 5},
                                              {5, 3}, {2, 6}, {6, 7},
                                              {1, 7}, {7, 4}}) {
    b.AddEdge(u, v);
  }
  return std::move(b).Build().ValueOrDie();
}

/// IC with distinct per-edge probabilities, WC, and LT with residual mass
/// (weights 0.8 / indeg, so "no live in-edge" has probability 0.2).
std::vector<InfluenceParams> AllModels(const Graph& g) {
  InfluenceParams ic = MakeUniformIc(g, 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ic.probability[e] = 0.15 + 0.06 * static_cast<double>(e);
  }
  InfluenceParams lt = MakeLinearThreshold(g);
  for (double& w : lt.probability) w *= 0.8;
  return {ic, MakeWeightedCascade(g), lt};
}

// The enumerator itself on worlds with one outcome: p = 1 everywhere makes
// sigma plain reachability.
TEST(ExactSpreadTest, EnumeratorMatchesDeterministicReachability) {
  const Graph g = SmallGraph();
  const InfluenceParams certain = MakeUniformIc(g, 1.0);
  EXPECT_DOUBLE_EQ(ExactSpread(g, certain, {0}), 7.0);
  EXPECT_DOUBLE_EQ(ExactSpread(g, certain, {3}), 2.0);
  EXPECT_DOUBLE_EQ(ExactSpread(g, certain, {6, 7}), 3.0);
  // A chain under LT: every node's single in-edge has weight 1.
  GraphBuilder chain(4);
  for (NodeId u = 0; u < 3; ++u) chain.AddEdge(u, u + 1);
  const Graph c = std::move(chain).Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(ExactSpread(c, MakeLinearThreshold(c), {0}), 3.0);
}

TEST(ExactSpreadTest, SketchAndMonteCarloWithinHoeffdingRadius) {
  const Graph g = SmallGraph();
  ASSERT_LE(g.num_edges(), 12u);
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {3}, {0, 5}, {1, 2, 6}};
  for (const InfluenceParams& params : AllModels(g)) {
    SketchOptions options;
    options.num_snapshots = kSamples;
    options.seed = 2024;
    const SketchOracle oracle(g, params, options);
    McOptions mc;
    mc.num_simulations = kSamples;
    mc.seed = 2024;
    for (const auto& seeds : seed_sets) {
      const std::string where =
          std::string(DiffusionModelName(params.model)) + " |S|=" +
          std::to_string(seeds.size()) + " first seed " +
          std::to_string(seeds[0]);
      const double exact = ExactSpread(g, params, seeds);
      const double radius = HoeffdingRadius(g, seeds);
      EXPECT_NEAR(oracle.Estimate(seeds), exact, radius) << where;
      EXPECT_NEAR(EstimateSpread(g, params, seeds, mc), exact, radius)
          << where;
    }
  }
}

}  // namespace
}  // namespace holim
