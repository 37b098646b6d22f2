// Differential tests pinning the bit-parallel lane-mask oracle to the
// scalar reference of tests/sketch_reference.h, which rebuilds every world
// from the per-(snapshot, node) stream contract and BFSes it one world at
// a time. The lane arena itself must match the streams row for row, and
// every estimator must agree BITWISE (integer reach counts and level
// counts divided once; the opinion replay visits the identical (v, e)
// sequence). Snapshot counts straddle the 64-lane word boundary on
// purpose: R = 1 (single partial word), 63/64/65 (full word +/- one lane),
// and 200 (the bench workload's multi-group shape, 3 full words + partial).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "diffusion/sketch_oracle.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "sketch_reference.h"

namespace holim {
namespace {

using sketch_reference::Reference;

constexpr uint32_t kWordBoundaryCounts[] = {1, 63, 64, 65, 200};

SketchOptions Opts(uint32_t snapshots, uint64_t seed = 7,
                   bool record_edge_offsets = false) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  options.record_edge_offsets = record_edge_offsets;
  return options;
}

std::vector<InfluenceParams> AllModels(const Graph& g) {
  return {MakeUniformIc(g, 0.3), MakeWeightedCascade(g),
          MakeLinearThreshold(g)};
}

// Same sample: every (group, node) lane row — targets, lane masks and,
// when recorded, out-row offsets — equals the union of the group's worlds
// rebuilt from the streams.
TEST(SketchBitParallelTest, LaneRowsMatchStreams) {
  Graph g = GenerateBarabasiAlbert(120, 3, 11).ValueOrDie();
  for (const auto& params : AllModels(g)) {
    for (uint32_t r : kWordBoundaryCounts) {
      const Reference reference(g, params, 7, r);
      for (const bool offsets : {false, true}) {
        SketchOracle oracle(g, params, Opts(r, 7, offsets));
        EXPECT_TRUE(reference.MatchesLaneArena(oracle, offsets))
            << "model=" << static_cast<int>(params.model) << " R=" << r
            << " offsets=" << offsets;
      }
    }
  }
}

// One-shot Estimate: every model, every word-boundary snapshot count,
// several seed-set shapes (singleton, spread-out set, duplicates — the
// reference dedups seeds via its visited set, the lanes path via all-zero
// fresh masks; both must subtract R * |seeds| identically). 0/1 weights
// keep EstimateWeighted exact, so it is pinned bitwise too.
TEST(SketchBitParallelTest, EstimateBitwiseEqualsReference) {
  Graph g = GenerateBarabasiAlbert(120, 3, 11).ValueOrDie();
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {5, 41, 99}, {7, 7, 23}, {119}};
  std::vector<double> weights(g.num_nodes(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) weights[u] = 1.0;
  for (const auto& params : AllModels(g)) {
    for (uint32_t r : kWordBoundaryCounts) {
      SketchOracle oracle(g, params, Opts(r));
      const Reference reference(g, params, 7, r);
      for (const auto& seeds : seed_sets) {
        EXPECT_EQ(oracle.Estimate(seeds), reference.Estimate(seeds))
            << "model=" << static_cast<int>(params.model) << " R=" << r;
        EXPECT_EQ(oracle.EstimateWeighted(seeds, weights),
                  reference.EstimateWeighted(seeds, weights))
            << "model=" << static_cast<int>(params.model) << " R=" << r;
      }
    }
  }
}

// Persistent sessions driven through a probe/commit script must report
// marginal gains, commit gains and running spreads bitwise equal to the
// reference's integer reach differences — and stay bitwise equal to
// one-shot Estimate of the committed prefix (the activate-once pruning
// may never change a value).
TEST(SketchBitParallelTest, SessionBitwiseEqualsReference) {
  Graph g = GenerateBarabasiAlbert(100, 3, 19).ValueOrDie();
  const std::vector<NodeId> commits = {4, 17, 52, 4, 88};  // incl. re-commit
  const std::vector<NodeId> probes = {0, 9, 33, 61, 99};
  for (const auto& params : AllModels(g)) {
    for (uint32_t r : kWordBoundaryCounts) {
      SketchOracle oracle(g, params, Opts(r, 13));
      const Reference reference(g, params, 13, r);
      SketchOracle::Session session(oracle);
      std::vector<NodeId> prefix;
      for (NodeId u : commits) {
        for (NodeId p : probes) {
          EXPECT_EQ(session.MarginalGain(p), reference.MarginalGain(prefix, p));
        }
        EXPECT_EQ(session.Commit(u), reference.MarginalGain(prefix, u));
        prefix.push_back(u);
        const double spread = session.Spread();
        EXPECT_EQ(spread, reference.Estimate(prefix));
        EXPECT_EQ(spread, oracle.Estimate(prefix));
      }
      session.Reset();
      EXPECT_EQ(session.MarginalGain(commits[0]),
                reference.MarginalGain({}, commits[0]));
    }
  }
}

// IC-N positive spread: both sides accumulate the same integer
// per-distance activation counts and fold them through one q-polynomial.
TEST(SketchBitParallelTest, IcnPositiveBitwiseEqualsReference) {
  Graph g = GenerateBarabasiAlbert(90, 3, 29).ValueOrDie();
  const std::vector<NodeId> seeds = {2, 31, 74};
  for (const auto& params : AllModels(g)) {
    for (uint32_t r : kWordBoundaryCounts) {
      SketchOracle oracle(g, params, Opts(r, 5));
      const Reference reference(g, params, 5, r);
      for (double q : {0.0, 0.37, 0.5, 1.0}) {
        EXPECT_EQ(oracle.EstimateIcnPositive(seeds, q),
                  reference.EstimateIcnPositive(seeds, q))
            << "model=" << static_cast<int>(params.model) << " R=" << r
            << " q=" << q;
      }
    }
  }
}

// Opinion replay (IC base): lane-filtering a group's union rows visits
// each world's live edges in EdgeId order — the reference's order — so
// all three accumulated figures match bitwise.
TEST(SketchBitParallelTest, OpinionReplayBitwiseEqualsReference) {
  Graph g = GenerateBarabasiAlbert(80, 3, 37).ValueOrDie();
  auto params = MakeUniformIc(g, 0.35);
  OpinionParams opinions = MakeRandomOpinions(
      g, OpinionDistribution::kStandardNormal, /*seed=*/17);
  const std::vector<NodeId> seeds = {1, 40, 66};
  for (uint32_t r : kWordBoundaryCounts) {
    SketchOracle oracle(g, params, Opts(r, 3, /*record_edge_offsets=*/true));
    const Reference reference(g, params, 3, r);
    for (double lambda : {0.5, 1.0}) {
      auto lanes = oracle.EstimateOpinion(
          opinions, OiBase::kIndependentCascade, seeds, lambda);
      auto expected = reference.EstimateOpinion(opinions, seeds, lambda);
      EXPECT_EQ(lanes.opinion_spread, expected.opinion_spread);
      EXPECT_EQ(lanes.effective_opinion_spread,
                expected.effective_opinion_spread);
      EXPECT_EQ(lanes.plain_spread, expected.plain_spread);
    }
  }
}

// Session-CELF picks exactly the seeds of eager frozen greedy (one-shot
// evaluations, no session) — gains on the static sample stay exactly
// submodular integers, so CELF's lazy bound never misranks — and each
// per-round score is the reference's marginal gain of that seed.
TEST(SketchBitParallelTest, CelfBitParallelMatchesEagerFrozenGreedy) {
  Graph g = GenerateBarabasiAlbert(70, 2, 15).ValueOrDie();
  auto params = MakeUniformIc(g, 0.25);
  auto oracle = std::make_shared<const SketchOracle>(g, params, Opts(65, 3));

  auto eager_objective =
      std::make_shared<SketchSpreadObjective>(oracle, /*use_session=*/false);
  GreedySelector eager(g, eager_objective, "eager-frozen");
  auto eager_sel = eager.Select(6).ValueOrDie();

  auto lanes_objective = std::make_shared<SketchSpreadObjective>(oracle);
  CelfSelector lanes_celf(g, lanes_objective, /*plus_plus=*/false,
                          "CELF-bitparallel");
  auto lanes_sel = lanes_celf.Select(6).ValueOrDie();
  EXPECT_EQ(eager_sel.seeds, lanes_sel.seeds);

  const Reference reference(g, params, 3, 65);
  std::vector<NodeId> prefix;
  for (std::size_t i = 0; i < lanes_sel.seeds.size(); ++i) {
    EXPECT_EQ(lanes_sel.seed_scores[i],
              reference.MarginalGain(prefix, lanes_sel.seeds[i]));
    prefix.push_back(lanes_sel.seeds[i]);
  }
}

}  // namespace
}  // namespace holim
