// Ground truth for the spread estimators and the greedy driver: exact
// sigma(S) on graphs small enough to list every live-edge world.
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
//
// On exact gains sigma is monotone submodular, so LazyGreedy and
// EagerGreedy must both return the eager arg-max sequence and reach
// (1 - 1/e) of the brute-force optimum (Nemhauser et al.). RR coverage
// gets the same Hoeffding check, TIM+/IMM are held to their
// (1 - 1/e - eps) guarantee, and StaticGreedy to greedy's bound on its
// sampled worlds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/imm.h"
#include "algo/lazy_greedy.h"
#include "algo/rr_sets.h"
#include "algo/tim_plus.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "engine/holim_engine.h"
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

/// The seed sets every estimator is checked on.
const std::vector<std::vector<NodeId>> kSeedSets = {
    {0}, {3}, {0, 5}, {1, 2, 6}};

std::string Where(const InfluenceParams& params,
                  const std::vector<NodeId>& seeds) {
  return std::string(DiffusionModelName(params.model)) +
         " |S|=" + std::to_string(seeds.size()) + " first seed " +
         std::to_string(seeds[0]);
}

TEST(ExactSpreadTest, SketchAndMonteCarloWithinHoeffdingRadius) {
  const Graph g = SmallGraph();
  ASSERT_LE(g.num_edges(), 12u);
  for (const InfluenceParams& params : AllModels(g)) {
    SketchOptions options;
    options.num_snapshots = kSamples;
    options.seed = 2024;
    const SketchOracle oracle(g, params, options);
    McOptions mc;
    mc.num_simulations = kSamples;
    mc.seed = 2024;
    for (const auto& seeds : kSeedSets) {
      const std::string where = Where(params, seeds);
      const double exact = ExactSpread(g, params, seeds);
      const double radius = HoeffdingRadius(g, seeds);
      EXPECT_NEAR(oracle.Estimate(seeds), exact, radius) << where;
      EXPECT_NEAR(EstimateSpread(g, params, seeds, mc), exact, radius)
          << where;
    }
  }
}

// RR coverage: an RR set is covered w.p. (sigma(S) + |S|) / n, so n times
// the covered fraction of theta sets, minus |S|, is an average of theta
// draws in [0, n] shifted by |S|: Hoeffding radius n * sqrt(ln(2/delta) /
// 2 theta). IC's distinct per-edge probabilities make every row with more
// than one in-edge thin its candidates.
TEST(ExactSpreadTest, RrCoverageWithinHoeffdingRadius) {
  constexpr std::size_t kTheta = std::size_t{1} << 16;
  const Graph g = SmallGraph();
  const double n = g.num_nodes();
  const double radius = n * std::sqrt(std::log(2.0 / kDelta) / (2.0 * kTheta));
  for (const InfluenceParams& params : AllModels(g)) {
    RrCollection rr(g, params, /*track_widths=*/false, /*build_index=*/false);
    ASSERT_TRUE(rr.GenerateParallel(kTheta, 2025).ok());
    for (const auto& seeds : kSeedSets) {
      SCOPED_TRACE(Where(params, seeds));
      EXPECT_NEAR(n * rr.CoveredFraction(seeds) - seeds.size(),
                  ExactSpread(g, params, seeds), radius);
    }
  }
}

/// Exact marginal gains: ExactSpread(S + u) minus the running sum of
/// committed gains.
class ExactGains : public GainOracle {
 public:
  ExactGains(const Graph& graph, const InfluenceParams& params)
      : graph_(graph), params_(params) {}
  double Gain(NodeId u) override {
    seeds_.push_back(u);
    const double sigma = ExactSpread(graph_, params_, seeds_);
    seeds_.pop_back();
    return sigma - value_;
  }
  void Commit(NodeId u, double gain) override {
    seeds_.push_back(u);
    value_ += gain;
  }

 private:
  const Graph& graph_;
  const InfluenceParams& params_;
  std::vector<NodeId> seeds_;
  double value_ = 0.0;
};

/// Eager greedy on the same gains: each round scores every uncommitted
/// node that fits the residual budget (empty `costs`: top-k) and commits
/// the best key, the first in ascending id on ties.
std::vector<NodeId> ReferenceEagerGreedy(const Graph& graph,
                                         const InfluenceParams& params,
                                         uint32_t k,
                                         std::span<const double> costs = {},
                                         double budget = 0.0) {
  ExactGains gains(graph, params);
  std::vector<NodeId> seeds;
  std::vector<char> chosen(graph.num_nodes(), 0);
  while (seeds.size() < k) {
    NodeId best = kInvalidNode;
    double best_key = 0.0, best_gain = 0.0;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      if (chosen[u] || (!costs.empty() && costs[u] > budget)) continue;
      const double gain = gains.Gain(u);
      const double key = costs.empty() ? gain : gain / costs[u];
      if (best == kInvalidNode || key > best_key) {
        best = u;
        best_key = key;
        best_gain = gain;
      }
    }
    if (best == kInvalidNode) break;
    gains.Commit(best, best_gain);
    chosen[best] = 1;
    if (!costs.empty()) budget -= costs[best];
    seeds.push_back(best);
  }
  return seeds;
}

/// max sigma(S) over every k-subset of the nodes.
double BruteForceOpt(const Graph& graph, const InfluenceParams& params,
                     uint32_t k) {
  const NodeId n = graph.num_nodes();
  std::vector<char> pick(n, 0);
  std::fill(pick.end() - k, pick.end(), 1);
  double best = 0.0;
  do {
    std::vector<NodeId> seeds;
    for (NodeId u = 0; u < n; ++u) {
      if (pick[u]) seeds.push_back(u);
    }
    best = std::max(best, ExactSpread(graph, params, seeds));
  } while (std::next_permutation(pick.begin(), pick.end()));
  return best;
}

TEST(ExactGreedyTest, LazyEqualsEagerAndReachesTheGreedyBound) {
  const Graph g = SmallGraph();
  for (const InfluenceParams& params : AllModels(g)) {
    for (const uint32_t k : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                   " k=" + std::to_string(k));
      ExactGains gains(g, params);
      const std::vector<NodeId> lazy =
          LazyGreedy(gains, AllNodes(g.num_nodes()), k).selection.seeds;
      EXPECT_EQ(lazy, ReferenceEagerGreedy(g, params, k));
      ASSERT_EQ(lazy.size(), k);
      const double opt = BruteForceOpt(g, params, k);
      EXPECT_GE(ExactSpread(g, params, lazy), (1.0 - std::exp(-1.0)) * opt);
    }
  }
}

// TIM+ and IMM promise (1 - 1/e - eps) * OPT w.p. 1 - n^-ell; with fixed
// seeds each run below either meets the bound or is a sampler defect.
TEST(ExactGreedyTest, TimPlusAndImmReachTheirGuaranteeAgainstBruteForce) {
  const Graph g = SmallGraph();
  for (const InfluenceParams& params : AllModels(g)) {
    for (const uint32_t k : {1u, 2u, 3u}) {
      const double opt = BruteForceOpt(g, params, k);
      for (const double eps : {0.1, 0.2}) {
        for (const uint64_t seed : {7u, 8u, 9u}) {
          SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                       " k=" + std::to_string(k) + " eps=" +
                       std::to_string(eps) + " seed=" + std::to_string(seed));
          const double bound = (1.0 - std::exp(-1.0) - eps) * opt;
          TimPlusOptions tim_options;
          tim_options.epsilon = eps;
          tim_options.seed = seed;
          TimPlusSelector tim(g, params, tim_options);
          const auto tim_seeds = tim.Select(k).ValueOrDie().seeds;
          ASSERT_EQ(tim_seeds.size(), k);
          EXPECT_GE(ExactSpread(g, params, tim_seeds), bound) << "TIM+";
          ImmOptions imm_options;
          imm_options.epsilon = eps;
          imm_options.seed = seed;
          ImmSelector imm(g, params, imm_options);
          const auto imm_seeds = imm.Select(k).ValueOrDie().seeds;
          ASSERT_EQ(imm_seeds.size(), k);
          EXPECT_GE(ExactSpread(g, params, imm_seeds), bound) << "IMM";
        }
      }
    }
  }
}

TEST(ExactGreedyTest, BudgetedLazyEqualsEagerWithTwoCostLevels) {
  const Graph g = SmallGraph();
  // Odd nodes cost twice as much: the ratio key and the drop rule both
  // matter under a budget of 4.
  std::vector<double> costs(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) costs[u] = u % 2 ? 2.0 : 1.0;
  for (const InfluenceParams& params : AllModels(g)) {
    SCOPED_TRACE(DiffusionModelName(params.model));
    ExactGains gains(g, params);
    const std::vector<NodeId> lazy =
        LazyGreedy(gains, AllNodes(g.num_nodes()), g.num_nodes(), costs,
                   /*budget=*/4.0)
            .selection.seeds;
    EXPECT_EQ(lazy,
              ReferenceEagerGreedy(g, params, g.num_nodes(), costs, 4.0));
    double spent = 0.0;
    for (const NodeId u : lazy) spent += costs[u];
    EXPECT_LE(spent, 4.0);
  }
}

// The production eager driver on exact gains is the reference loop above,
// and (sigma being submodular) the lazy driver too: top-k and under the
// two-cost budget.
TEST(ExactGreedyTest, EagerDriverEqualsReferenceAndLazy) {
  const Graph g = SmallGraph();
  const std::vector<NodeId> nodes = AllNodes(g.num_nodes());
  std::vector<double> costs(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) costs[u] = u % 2 ? 2.0 : 1.0;
  for (const InfluenceParams& params : AllModels(g)) {
    for (const uint32_t k : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                   " k=" + std::to_string(k));
      ExactGains eager_gains(g, params);
      const LazyGreedyRun eager = EagerGreedy(eager_gains, nodes, k);
      ExactGains lazy_gains(g, params);
      const LazyGreedyRun lazy = LazyGreedy(lazy_gains, nodes, k);
      EXPECT_EQ(eager.selection.seeds, ReferenceEagerGreedy(g, params, k));
      EXPECT_EQ(eager.selection.seeds, lazy.selection.seeds);
      EXPECT_EQ(eager.selection.seed_scores, lazy.selection.seed_scores);
    }
    SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                 " budgeted");
    ExactGains eager_gains(g, params);
    const LazyGreedyRun eager =
        EagerGreedy(eager_gains, nodes, g.num_nodes(), costs, 4.0);
    ExactGains lazy_gains(g, params);
    const LazyGreedyRun lazy =
        LazyGreedy(lazy_gains, nodes, g.num_nodes(), costs, 4.0);
    EXPECT_EQ(eager.selection.seeds,
              ReferenceEagerGreedy(g, params, g.num_nodes(), costs, 4.0));
    EXPECT_EQ(eager.selection.seeds, lazy.selection.seeds);
  }
}

// StaticGreedy is greedy on the sketch estimate of R worlds. Counting the
// seeds, f(S) = sigma(S) + |S| is monotone submodular on every sample, and
// greedy on sigma - |S| picks exactly greedy-on-f's seeds. If every set T
// of at most k seeds has |f_hat(T) - f(T)| <= r, then
//   f(S) >= f_hat(S) - r >= (1 - 1/e) f_hat(OPT) - r
//        >= (1 - 1/e)(OPT + k) - (2 - 1/e) r.
// r is the Hoeffding radius of an average of R draws in [0, n],
// union-bounded over those sets.
TEST(ExactGreedyTest, StaticGreedyReachesTheSampledGreedyBound) {
  constexpr uint32_t kWorlds = 1u << 16;
  const Graph g = SmallGraph();
  const NodeId n = g.num_nodes();
  for (const InfluenceParams& params : AllModels(g)) {
    double subsets = 0.0, choose = 1.0;
    for (const uint32_t k : {1u, 2u, 3u}) {
      choose = choose * (n - k + 1) / k;
      subsets += choose;
      const double r = n * std::sqrt(std::log(2.0 * subsets / kDelta) /
                                     (2.0 * kWorlds));
      const double opt = BruteForceOpt(g, params, k);
      const double bound = (1.0 - std::exp(-1.0)) * (opt + k) -
                           (2.0 - std::exp(-1.0)) * r;
      for (const uint64_t seed : {7u, 8u, 9u}) {
        SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                     " k=" + std::to_string(k) + " seed=" +
                     std::to_string(seed));
        SolveRequest request;
        request.algorithm = "static-greedy";
        request.k = k;
        request.params = &params;
        request.seed = seed;
        request.num_snapshots = kWorlds;
        request.evaluate_spread = false;
        HolimEngine engine(g);
        auto result = engine.Solve(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(result->seeds.size(), k);
        EXPECT_GE(ExactSpread(g, params, result->seeds) + k, bound);
      }
    }
  }
}

}  // namespace
}  // namespace holim
