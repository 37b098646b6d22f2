#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "algo/lazy_greedy.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "sketch_reference.h"
#include "util/deadline.h"

namespace holim {
namespace {

using sketch_reference::Reference;
using sketch_reference::SameLaneArena;

SketchOptions Opts(uint32_t snapshots, uint64_t seed = 7,
                   ThreadPool* pool = nullptr) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  options.pool = pool;
  return options;
}

// Hand-built 5-node world, IC with p = 1: every snapshot is the full graph,
// so the sketch estimate equals exact reachability.
TEST(SketchOracleTest, MatchesReachabilityOnDeterministicIcWorld) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  SketchOracle oracle(g, params, Opts(7));
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0}), 3.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{1}), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{4}), 0.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0, 1}), 2.0);

  auto zero = MakeUniformIc(g, 0.0);
  SketchOracle empty_oracle(g, zero, Opts(7));
  EXPECT_DOUBLE_EQ(empty_oracle.Estimate(std::vector<NodeId>{0}), 0.0);
}

// WC on a chain: every node has in-degree 1, so every edge is live with
// probability 1 and the sketch equals chain reachability.
TEST(SketchOracleTest, MatchesReachabilityOnDeterministicWcWorld) {
  GraphBuilder b(5);
  for (NodeId u = 0; u < 4; ++u) b.AddEdge(u, u + 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeWeightedCascade(g);
  SketchOracle oracle(g, params, Opts(5));
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0}), 4.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{3}), 1.0);
}

// LT on a chain: the single in-edge has weight 1 and is always picked.
TEST(SketchOracleTest, MatchesReachabilityOnDeterministicLtWorld) {
  GraphBuilder b(5);
  for (NodeId u = 0; u < 4; ++u) b.AddEdge(u, u + 1);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeLinearThreshold(g);
  SketchOracle oracle(g, params, Opts(5));
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{0}), 4.0);
  EXPECT_DOUBLE_EQ(oracle.Estimate(std::vector<NodeId>{2}), 2.0);
}

// On a random graph the lane-arena walk must agree with a naive
// reachability sweep over worlds rebuilt from the streams, for every model.
TEST(SketchOracleTest, EstimateMatchesBruteForceOnRandomGraph) {
  Graph g = GenerateBarabasiAlbert(80, 3, 11).ValueOrDie();
  const std::vector<NodeId> seeds = {0, 7, 33};
  for (auto params : {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
                      MakeLinearThreshold(g)}) {
    SketchOracle oracle(g, params, Opts(13));
    EXPECT_DOUBLE_EQ(oracle.Estimate(seeds),
                     Reference(g, params, 7, 13).Estimate(seeds));
  }
}

// The arena is bitwise identical for any sampling thread count (the same
// contract as the RR engine's GenerateParallel), and R = 130 spans a
// partial third lane group.
TEST(SketchOracleTest, ArenaDeterministicAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(200, 3, 5).ValueOrDie();
  for (auto params : {MakeUniformIc(g, 0.2), MakeWeightedCascade(g),
                      MakeLinearThreshold(g)}) {
    ThreadPool pool1(1), pool8(8);
    SketchOracle serial(g, params, Opts(130, 21, nullptr));
    SketchOracle one(g, params, Opts(130, 21, &pool1));
    SketchOracle eight(g, params, Opts(130, 21, &pool8));
    EXPECT_TRUE(SameLaneArena(serial, one));
    EXPECT_TRUE(SameLaneArena(serial, eight));
  }
}

// A build charges exactly ceil(R / 4) work-budget ticks for any lane
// grouping and pool: a budget of that many ticks expires inside the build
// (the B-th tick fails), one more lets it finish with one tick to spare.
TEST(SketchOracleTest, BuildChargesCeilQuarterRTicks) {
  Graph g = GenerateBarabasiAlbert(60, 2, 3).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  ThreadPool pool(4);
  for (uint32_t r : {1u, 4u, 63u, 64u, 65u, 130u}) {
    const uint64_t ticks = (r + 3) / 4;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SketchOptions options = Opts(r, 7, p);
      Deadline tight = Deadline::WorkBudget(ticks);
      options.deadline = &tight;
      EXPECT_FALSE(SketchOracle(g, params, options).build_status().ok())
          << "R=" << r;
      Deadline enough = Deadline::WorkBudget(ticks + 1);
      options.deadline = &enough;
      EXPECT_TRUE(SketchOracle(g, params, options).build_status().ok())
          << "R=" << r;
      EXPECT_FALSE(enough.Check().ok()) << "R=" << r;
    }
  }
}

// Incremental session spread is bitwise equal to one-shot Estimate on the
// same prefix across a full k=8 CELF run (R a power of two so every value
// is exactly representable — but the contract holds for any R because both
// sides divide the same integer once).
TEST(SketchOracleTest, SessionBitwiseEqualsOneShotAcrossCelfRun) {
  Graph g = GenerateBarabasiAlbert(64, 2, 9).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  auto oracle = std::make_shared<const SketchOracle>(g, params, Opts(8));
  auto objective = std::make_shared<SketchSpreadObjective>(oracle);
  CelfSelector celf(g, objective, /*plus_plus=*/true, "CELF-sketch");
  auto selection = celf.Select(8).ValueOrDie();
  ASSERT_EQ(selection.seeds.size(), 8u);

  SketchOracle::Session session(*oracle);
  std::vector<NodeId> prefix;
  for (std::size_t i = 0; i < selection.seeds.size(); ++i) {
    const NodeId u = selection.seeds[i];
    const double gain = session.MarginalGain(u);
    EXPECT_EQ(gain, session.Commit(u));
    EXPECT_EQ(gain, selection.seed_scores[i]);
    prefix.push_back(u);
    EXPECT_EQ(session.Spread(), oracle->Estimate(prefix));
  }
}

// One-shot gains over the frozen worlds: every probe re-walks
// reach(S + u) with Estimate — the baseline the session replaces.
class EstimateGains : public GainOracle {
 public:
  explicit EstimateGains(const SketchOracle& oracle) : oracle_(oracle) {}
  double Gain(NodeId u) override {
    seeds_.push_back(u);
    const double value = oracle_.Estimate(seeds_);
    seeds_.pop_back();
    return value - value_;
  }
  void Commit(NodeId u, double gain) override {
    seeds_.push_back(u);
    value_ += gain;
  }

 private:
  const SketchOracle& oracle_;
  std::vector<NodeId> seeds_;
  double value_ = 0.0;
};

// CELF over session probes picks exactly the seeds of lazy greedy over
// one-shot Estimate calls and of eager session greedy: gains on a static
// sample are exactly submodular, and every path breaks ties toward the
// smaller node id.
TEST(SketchOracleTest, CelfSketchMatchesEagerFrozenGreedy) {
  Graph g = GenerateBarabasiAlbert(70, 2, 15).ValueOrDie();
  auto params = MakeUniformIc(g, 0.25);
  auto oracle = std::make_shared<const SketchOracle>(g, params, Opts(8, 3));

  EstimateGains one_shot(*oracle);
  const std::vector<NodeId> one_shot_seeds =
      LazyGreedy(one_shot, AllNodes(g.num_nodes()), 6).selection.seeds;

  auto session_objective = std::make_shared<SketchSpreadObjective>(oracle);
  CelfSelector celf(g, session_objective, /*plus_plus=*/false, "CELF-sketch");
  auto celf_sel = celf.Select(6).ValueOrDie();
  EXPECT_EQ(one_shot_seeds, celf_sel.seeds);

  // The session-driven eager greedy walks the same hill.
  auto greedy_objective = std::make_shared<SketchSpreadObjective>(oracle);
  GreedySelector greedy(g, greedy_objective, "greedy-sketch");
  auto greedy_sel = greedy.Select(6).ValueOrDie();
  EXPECT_EQ(celf_sel.seeds, greedy_sel.seeds);
  EXPECT_EQ(celf_sel.seed_scores, greedy_sel.seed_scores);

  // Laziness still skips work: far fewer evaluations than eager's k * n.
  EXPECT_LT(celf.last_evaluation_count(), 6u * g.num_nodes() / 2);
  EXPECT_GE(celf.last_evaluation_count(), g.num_nodes());
}

// The singleton reach bounds never undercount: per node, at least its
// reach summed over the reference's worlds, and exactly that under LT,
// whose worlds all condense to forests. Undirected BA and directed ER
// graphs both give cycles, so worlds hold non-trivial SCCs; R spans one
// lane, partial and full groups, and partial later groups.
TEST(SketchOracleTest, SingletonReachBoundsCoverEveryWorldsReach) {
  for (const Graph& g : {GenerateBarabasiAlbert(90, 2, 17).ValueOrDie(),
                         GenerateErdosRenyi(90, 3.0, 19).ValueOrDie()}) {
    const int64_t n = g.num_nodes();
    for (const auto& params : {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
                               MakeLinearThreshold(g)}) {
      const bool lt = params.model == DiffusionModel::kLinearThreshold;
      for (const uint32_t r : {1u, 63u, 64u, 65u, 130u}) {
        SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                     " R=" + std::to_string(r));
        const SketchOracle oracle(g, params, Opts(r, 5));
        const Reference reference(g, params, 5, r);
        const std::vector<int64_t> bounds = oracle.SingletonReachBounds();
        ASSERT_EQ(bounds.size(), g.num_nodes());
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          const int64_t reach =
              reference.TotalReached(std::vector<NodeId>{u});
          if (lt) {
            EXPECT_EQ(bounds[u], reach) << "node " << u;
          } else {
            EXPECT_GE(bounds[u], reach) << "node " << u;
          }
          EXPECT_LE(bounds[u], n * r) << "node " << u;
        }
      }
    }
  }
}

// Every edge live (IC, p = 1): 0 -> {1, 2} -> SCC {3, 4} -> 5, where both
// members of the SCC point at 5. The SCC and 5 are reached from 0 along
// two condensation paths, so 0's bound counts those three nodes twice;
// every other bound is exact (the SCC's two edges into 5 count 5 once).
// Nodes 6-9 are isolated, so the cap at n leaves 0's 9 alone.
TEST(SketchOracleTest, SingletonReachBoundOvercountsADiamondsSharedPart) {
  GraphBuilder b(10);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 3}, {3, 5}, {4, 5}}) {
    b.AddEdge(u, v);
  }
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  constexpr uint32_t kR = 3;
  const SketchOracle oracle(g, params, Opts(kR));
  const Reference reference(g, params, 7, kR);
  const std::vector<int64_t> exact = {6, 4, 4, 3, 3, 1, 1, 1, 1, 1};
  const std::vector<int64_t> bounds = oracle.SingletonReachBounds();
  ASSERT_EQ(bounds.size(), exact.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(reference.TotalReached(std::vector<NodeId>{u}), kR * exact[u]);
    EXPECT_EQ(bounds[u], kR * (exact[u] + (u == 0 ? 3 : 0))) << "node " << u;
  }
}

// The mean live out-degree counts every live edge of every world once.
TEST(SketchOracleTest, MeanLiveOutDegreeCountsEveryWorldsLiveEdges) {
  Graph g = GenerateErdosRenyi(90, 3.0, 19).ValueOrDie();
  for (const auto& params : {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
                             MakeLinearThreshold(g)}) {
    for (const uint32_t r : {1u, 64u, 65u, 130u}) {
      SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                   " R=" + std::to_string(r));
      const SketchOracle oracle(g, params, Opts(r, 5));
      const Reference reference(g, params, 5, r);
      EXPECT_EQ(oracle.MeanLiveOutDegree(),
                static_cast<double>(reference.LiveEdges()) / r /
                    g.num_nodes());
    }
  }
}

// Bound-seeded lazy greedy keeps eager greedy's seeds and gains bit for
// bit on the same worlds: CELF, CELF++ and StaticGreedy against GREEDY
// through the engine, top-k and budgeted with degree costs, under every
// model. LT bounds are exact, so there CELF probes fewer nodes than the
// graph has (a full pre-pass would probe all of them). IC at p = 0.02
// leaves about 0.08 live out-edges per node and world, too sparse to pay
// for the bounds, so there the pre-pass probes every node.
TEST(SketchOracleTest, BoundSeededCelfFamilyMatchesEagerGreedy) {
  Graph g = GenerateBarabasiAlbert(150, 2, 29).ValueOrDie();
  std::vector<double> degree_costs(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    degree_costs[u] = 1.0 + g.OutDegree(u);
  }
  for (const auto& [params, sparse] :
       std::vector<std::pair<InfluenceParams, bool>>{
           {MakeUniformIc(g, 0.2), false},
           {MakeUniformIc(g, 0.02), true},
           {MakeWeightedCascade(g), false},
           {MakeLinearThreshold(g), false}}) {
    for (const uint32_t r : {64u, 65u}) {
      for (const QueryKind query : {QueryKind::kTopK, QueryKind::kBudgeted}) {
        SCOPED_TRACE(std::string(DiffusionModelName(params.model)) +
                     (sparse ? " sparse" : "") + " R=" + std::to_string(r) +
                     " " + QueryKindName(query));
        HolimEngine engine(g);
        auto solve = [&](const std::string& algorithm) {
          SolveRequest request;
          request.algorithm = algorithm;
          request.query = query;
          request.k = 8;
          request.params = &params;
          request.seed = 13;
          request.oracle = SpreadOracle::kSketch;
          request.num_sketches = r;
          request.num_snapshots = r;
          if (query == QueryKind::kBudgeted) {
            request.node_costs = degree_costs;
            request.budget = 30.0;
          }
          return engine.Solve(request).ValueOrDie();
        };
        const SolveResult eager = solve("greedy");
        ASSERT_FALSE(eager.seeds.empty());
        for (const std::string lazy : {"celf", "celf++", "static-greedy"}) {
          const SolveResult result = solve(lazy);
          EXPECT_EQ(result.seeds, eager.seeds) << lazy;
          EXPECT_EQ(result.seed_scores, eager.seed_scores) << lazy;
          if (params.model == DiffusionModel::kLinearThreshold) {
            EXPECT_LT(result.Stat("evaluations"), g.num_nodes()) << lazy;
          }
          if (sparse) {
            EXPECT_GE(result.Stat("evaluations"), g.num_nodes()) << lazy;
          }
        }
      }
    }
  }
}

// IC-N over deterministic worlds: chain 0 -> 1 -> 2 with p = 1 and
// q = 0.5 gives positive spread q^2 + q^3 = 0.375 exactly.
TEST(SketchOracleTest, IcnPositiveMatchesHandComputedWorld) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  SketchOracle oracle(g, params, Opts(6));
  EXPECT_DOUBLE_EQ(oracle.EstimateIcnPositive(std::vector<NodeId>{0}, 0.5),
                   0.375);
  EXPECT_DOUBLE_EQ(oracle.EstimateIcnPositive(std::vector<NodeId>{0}, 0.0),
                   0.0);
  EXPECT_DOUBLE_EQ(oracle.EstimateIcnPositive(std::vector<NodeId>{0}, 1.0),
                   2.0);
}

// OI opinion replay over deterministic worlds (p = 1): expected opinions
// follow the paper's recurrence exactly; with phi = 1 the MC estimator is
// deterministic too, so both agree to rounding.
TEST(SketchOracleTest, OpinionReplayMatchesDeterministicOi) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {0.8, 0.6, -1.0};
  opinions.interaction = {1.0, 1.0};
  SketchOptions options = Opts(4);
  options.record_edge_offsets = true;
  SketchOracle oracle(g, params, options);

  // o'_1 = (0.6 + 0.8)/2 = 0.7; o'_2 = (-1.0 + 0.7)/2 = -0.15.
  auto estimate = oracle.EstimateOpinion(opinions, OiBase::kIndependentCascade,
                                         std::vector<NodeId>{0}, 1.0);
  EXPECT_NEAR(estimate.opinion_spread, 0.55, 1e-12);
  EXPECT_NEAR(estimate.effective_opinion_spread, 0.55, 1e-12);
  EXPECT_NEAR(estimate.plain_spread, 2.0, 1e-12);

  McOptions mc;
  mc.num_simulations = 50;
  auto reference = EstimateOpinionSpread(g, params, opinions,
                                         OiBase::kIndependentCascade,
                                         std::vector<NodeId>{0}, 1.0, mc);
  EXPECT_NEAR(estimate.opinion_spread, reference.opinion_spread, 1e-9);

  // phi = 0.5: the signed-parent term vanishes in expectation, so
  // o'_1 = 0.3 and o'_2 = -0.5.
  OpinionParams half = opinions;
  half.interaction = {0.5, 0.5};
  auto mixed = oracle.EstimateOpinion(half, OiBase::kIndependentCascade,
                                      std::vector<NodeId>{0}, 1.0);
  EXPECT_NEAR(mixed.opinion_spread, -0.2, 1e-12);
}

// The sketch estimate converges to the MC estimate (both are unbiased
// estimators of sigma).
TEST(SketchOracleTest, AgreesWithMonteCarloWithinTolerance) {
  Graph g = GenerateBarabasiAlbert(150, 3, 23).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  const std::vector<NodeId> seeds = {0, 1, 2};
  SketchOracle oracle(g, params, Opts(4000));
  McOptions mc;
  mc.num_simulations = 4000;
  mc.seed = 12;
  const double mc_value = EstimateSpread(g, params, seeds, mc);
  EXPECT_NEAR(oracle.Estimate(seeds), mc_value, 0.15 * mc_value + 0.5);
}

}  // namespace
}  // namespace holim
