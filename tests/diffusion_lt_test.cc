#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "diffusion/linear_threshold.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "util/rng.h"

namespace holim {
namespace {

/// Test-only live-edge form of LT (Kempe's equivalence, paper Sec. 3.3):
/// each node keeps at most one live in-edge, edge (u, v) with probability
/// w(u,v) and none with probability 1 - sum_u w(u,v); a node activates iff
/// a seed reaches it over live edges. It shares no code with LtSimulator,
/// so the two forms' spreads can be compared.
class LiveEdgeSimulator {
 public:
  LiveEdgeSimulator(const Graph& graph, const InfluenceParams& params)
      : graph_(graph),
        params_(params),
        active_(graph.num_nodes()),
        live_choice_(graph.num_nodes(), -1),
        live_sampled_(graph.num_nodes()) {}

  /// The in-CSR position of v's live in-edge, or -1 for none.
  int64_t SampleLiveInEdge(NodeId v, Rng& rng) const {
    const auto edge_ids = graph_.InEdgeIds(v);
    if (edge_ids.empty()) return -1;
    double r = rng.NextDouble();
    for (std::size_t i = 0; i < edge_ids.size(); ++i) {
      const double w = params_.p(edge_ids[i]);
      if (r < w) return static_cast<int64_t>(i);
      r -= w;
    }
    return -1;
  }

  /// BFS from `seeds` over live arcs, sampling each reached node's live
  /// in-edge on first contact.
  const Cascade& Run(std::span<const NodeId> seeds, Rng& rng) {
    active_.Reset(graph_.num_nodes());
    live_sampled_.Reset(graph_.num_nodes());
    cascade_.order.clear();
    for (const NodeId s : seeds) {
      if (active_.Contains(s)) continue;
      active_.Insert(s);
      cascade_.order.push_back({s, kSeedActivation, 0});
    }
    for (std::size_t head = 0; head < cascade_.order.size(); ++head) {
      const Activation current = cascade_.order[head];
      const auto neighbors = graph_.OutNeighbors(current.node);
      const EdgeId base = graph_.OutEdgeBegin(current.node);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const NodeId v = neighbors[i];
        if (active_.Contains(v)) continue;
        if (!live_sampled_.Contains(v)) {
          live_sampled_.Insert(v);
          live_choice_[v] = SampleLiveInEdge(v, rng);
        }
        if (live_choice_[v] < 0) continue;
        const EdgeId live =
            graph_.InEdgeIds(v)[static_cast<std::size_t>(live_choice_[v])];
        if (live == base + i) {
          active_.Insert(v);
          cascade_.order.push_back({v, live, current.step + 1});
        }
      }
    }
    return cascade_;
  }

 private:
  const Graph& graph_;
  const InfluenceParams& params_;
  Cascade cascade_;
  EpochSet active_;
  std::vector<int64_t> live_choice_;  // per node, valid once sampled
  EpochSet live_sampled_;
};

TEST(LtSimulatorTest, SingleInEdgeWithFullWeightAlwaysFires) {
  // 0 -> 1: w = 1/indeg(1) = 1 >= theta always (theta < 1 a.s.).
  Graph g = GeneratePath(3).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  LtSimulator sim(g, params);
  Rng rng(1);
  const NodeId seeds[] = {0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sim.Run(seeds, rng).order.size(), 3u);
  }
}

TEST(LtSimulatorTest, HalfWeightFiresHalfTheTime) {
  // Two in-edges into node 2, only one active seed -> weight 0.5 -> fires
  // iff theta <= 0.5, i.e. with probability ~0.5.
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeLinearThreshold(g);
  LtSimulator sim(g, params);
  Rng rng(2);
  const NodeId seeds[] = {0};
  int fired = 0;
  const int runs = 20000;
  for (int i = 0; i < runs; ++i) {
    fired += sim.Run(seeds, rng).order.size() == 2 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fired) / runs, 0.5, 0.02);
}

TEST(LtSimulatorTest, BothSeedsGuaranteeActivation) {
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeLinearThreshold(g);
  LtSimulator sim(g, params);
  Rng rng(3);
  const NodeId seeds[] = {0, 1};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sim.Run(seeds, rng).order.size(), 3u);
  }
}

TEST(LtSimulatorTest, BlockedNodeBreaksChain) {
  Graph g = GeneratePath(4).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  LtSimulator sim(g, params);
  EpochSet blocked(4);
  blocked.Reset(4);
  blocked.Insert(1);
  Rng rng(4);
  const NodeId seeds[] = {0};
  EXPECT_EQ(sim.RunWithBlocked(seeds, rng, blocked).order.size(), 1u);
}

TEST(LiveEdgeTest, PathAlwaysFullyLive) {
  // Each node has exactly one in-edge with weight 1 -> always live.
  Graph g = GeneratePath(5).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  LiveEdgeSimulator sim(g, params);
  Rng rng(5);
  const NodeId seeds[] = {0};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sim.Run(seeds, rng).order.size(), 5u);
  }
}

TEST(LiveEdgeTest, SampleLiveInEdgeRespectsDistribution) {
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeLinearThreshold(g);  // each in-edge w = 0.5
  LiveEdgeSimulator sim(g, params);
  Rng rng(6);
  int counts[2] = {0, 0};
  const int runs = 20000;
  for (int i = 0; i < runs; ++i) {
    const int64_t pick = sim.SampleLiveInEdge(2, rng);
    ASSERT_GE(pick, 0);  // weights sum to 1: always picks one
    ++counts[pick];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / runs, 0.5, 0.02);
}

TEST(LiveEdgeTest, KempeEquivalenceWithThresholdForm) {
  // The live-edge and threshold forms of LT induce the same activation
  // distribution (Kempe et al. 2003). Compare expected spreads by MC.
  Graph g = GenerateBarabasiAlbert(300, 3, 7).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  LtSimulator threshold_sim(g, params);
  LiveEdgeSimulator live_sim(g, params);
  Rng rng_a(8), rng_b(9);
  const NodeId seeds[] = {0, 5, 10};
  double spread_threshold = 0, spread_live = 0;
  const int runs = 4000;
  for (int i = 0; i < runs; ++i) {
    spread_threshold += threshold_sim.Run(seeds, rng_a).order.size();
    spread_live += live_sim.Run(seeds, rng_b).order.size();
  }
  spread_threshold /= runs;
  spread_live /= runs;
  EXPECT_NEAR(spread_threshold, spread_live,
              0.06 * std::max(spread_threshold, 1.0));
}

TEST(LtSimulatorTest, WeightsNeverExceedThresholdRange) {
  // Sanity: with 1/indeg weights, total incoming weight == 1, so the
  // threshold-form simulator can activate any node when all parents fire.
  Graph g = GenerateErdosRenyi(200, 4.0, 10).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    double sum = 0;
    for (EdgeId e : g.InEdgeIds(v)) sum += params.p(e);
    EXPECT_LE(sum, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace holim
