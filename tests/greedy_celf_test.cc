#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "algo/celf.h"
#include "algo/greedy.h"
#include "algo/lazy_greedy.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

McOptions FastMc(uint32_t sims = 2000, uint64_t seed = 3) {
  McOptions mc;
  mc.num_simulations = sims;
  mc.seed = seed;
  return mc;
}

TEST(GreedyTest, PicksObviousBestSeed) {
  // Star hub clearly dominates.
  GraphBuilder b(8);
  for (NodeId leaf = 1; leaf < 8; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.5);
  auto objective = std::make_shared<SpreadObjective>(g, params, FastMc());
  GreedySelector greedy(g, objective);
  auto selection = greedy.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 0u);
}

TEST(GreedyTest, MarginalGainsDecreaseForSubmodularObjective) {
  Graph g = GenerateBarabasiAlbert(60, 2, 4).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  auto objective =
      std::make_shared<SpreadObjective>(g, params, FastMc(4000, 5));
  GreedySelector greedy(g, objective);
  auto selection = greedy.Select(5).ValueOrDie();
  for (std::size_t i = 1; i < selection.seed_scores.size(); ++i) {
    // Allow small MC noise around the submodular decrease.
    EXPECT_LE(selection.seed_scores[i], selection.seed_scores[i - 1] + 0.5);
  }
}

TEST(CelfTest, MatchesGreedySeedsOnSmallGraph) {
  Graph g = GenerateBarabasiAlbert(40, 2, 6).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  auto obj_a = std::make_shared<SpreadObjective>(g, params, FastMc(3000, 7));
  auto obj_b = std::make_shared<SpreadObjective>(g, params, FastMc(3000, 7));
  GreedySelector greedy(g, obj_a);
  CelfSelector celf(g, obj_b, /*plus_plus=*/false, "CELF");
  auto gs = greedy.Select(3).ValueOrDie();
  auto cs = celf.Select(3).ValueOrDie();
  EXPECT_EQ(gs.seeds, cs.seeds);
}

TEST(CelfTest, LazyEvaluationSkipsWork) {
  Graph g = GenerateBarabasiAlbert(120, 2, 8).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  auto objective = std::make_shared<SpreadObjective>(g, params, FastMc(500, 9));
  CelfSelector celf(g, objective, /*plus_plus=*/false, "CELF");
  auto selection = celf.Select(5).ValueOrDie();
  ASSERT_EQ(selection.seeds.size(), 5u);
  // Plain greedy would need ~ 5 * 120 = 600 evaluations; CELF's lazy bound
  // must do far fewer (n initial + a handful per round).
  EXPECT_LT(celf.last_evaluation_count(), 300u);
  EXPECT_GE(celf.last_evaluation_count(), 120u);
}

TEST(CelfTest, PlusPlusProducesSameSeedsAsCelf) {
  Graph g = GenerateBarabasiAlbert(50, 2, 10).ValueOrDie();
  auto params = MakeUniformIc(g, 0.15);
  auto obj_a = std::make_shared<SpreadObjective>(g, params, FastMc(2000, 11));
  auto obj_b = std::make_shared<SpreadObjective>(g, params, FastMc(2000, 11));
  CelfSelector celf(g, obj_a, false, "CELF");
  CelfSelector celfpp(g, obj_b, true, "CELF++");
  auto a = celf.Select(4).ValueOrDie();
  auto b = celfpp.Select(4).ValueOrDie();
  EXPECT_EQ(a.seeds, b.seeds);
}

TEST(ModifiedGreedyTest, MaximizesEffectiveOpinion) {
  // Positive-opinion hub must beat negative-opinion hub.
  GraphBuilder b(6);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 4);
  b.AddEdge(1, 5);
  Graph g = std::move(b).Build().ValueOrDie();
  auto influence = MakeUniformIc(g, 0.9);
  OpinionParams opinions;
  opinions.opinion = {0.1, 0.1, -0.9, -0.9, 0.9, 0.9};
  opinions.interaction.assign(g.num_edges(), 1.0);
  auto objective = std::make_shared<EffectiveOpinionObjective>(
      g, influence, opinions, OiBase::kIndependentCascade, 1.0, FastMc());
  GreedySelector modified_greedy(g, objective, "Modified-GREEDY");
  auto selection = modified_greedy.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 1u);
}

TEST(ModifiedGreedyTest, LambdaChangesSelection) {
  // Node 0 reaches {+1, -0.8} (high gross, risky); node 1 reaches {+0.4}.
  // With lambda=1 total for 0 is (1 - 0.8 + small) vs 0.4... craft so that
  // lambda=0 favors 0 and lambda=1 favors 1.
  GraphBuilder b(5);
  b.AddEdge(0, 2);  // +0.6 reachable
  b.AddEdge(0, 3);  // -1.0 reachable
  b.AddEdge(1, 4);  // +0.5 reachable
  Graph g = std::move(b).Build().ValueOrDie();
  auto influence = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {0.8, 0.8, 0.6, -1.0, 0.5};
  opinions.interaction.assign(g.num_edges(), 1.0);
  // Final opinions from 0: node2 (0.6+0.8)/2=0.7, node3 (-1+0.8)/2=-0.1.
  // lambda=0: 0 yields 0.7 > 1's 0.65... wait node4: (0.5+0.8)/2=0.65.
  // lambda=1: 0 yields 0.6 < 0.65 -> picks 1.
  auto mk = [&](double lambda) {
    auto objective = std::make_shared<EffectiveOpinionObjective>(
        g, influence, opinions, OiBase::kIndependentCascade, lambda,
        FastMc(500, 13));
    GreedySelector sel(g, objective, "MG");
    return sel.Select(1).ValueOrDie().seeds[0];
  };
  EXPECT_EQ(mk(0.0), 0u);
  EXPECT_EQ(mk(1.0), 1u);
}

TEST(GreedyTest, RejectsBadK) {
  Graph g = GenerateErdosRenyi(10, 2.0, 14).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  auto objective = std::make_shared<SpreadObjective>(g, params, FastMc(10));
  GreedySelector greedy(g, objective);
  EXPECT_FALSE(greedy.Select(0).ok());
  EXPECT_FALSE(greedy.Select(999).ok());
  CelfSelector celf(g, objective);
  EXPECT_FALSE(celf.Select(0).ok());
}

// ---------------------------------------------------------------------------
// LazyGreedy driver contracts, on hand-traceable coverage gains.
// ---------------------------------------------------------------------------

// Node u covers the items covers[u]; its gain is how many of them S has
// not covered yet. Exactly submodular, so every pop sequence below can be
// traced by hand.
class CoverageGains : public GainOracle {
 public:
  explicit CoverageGains(std::vector<std::vector<int>> covers,
                         bool plus_plus = false)
      : covers_(std::move(covers)), plus_plus_(plus_plus) {}

  double Gain(NodeId u) override {
    gained.push_back(u);
    if (on_gain) on_gain();
    return NewItems(u, covered_);
  }
  void Commit(NodeId u, double /*gain*/) override {
    ++commits;
    covered_.insert(covers_[u].begin(), covers_[u].end());
  }
  bool GainWith(NodeId x, NodeId u, double* gain) override {
    if (!plus_plus_) return false;
    ++gain_with_calls;
    std::set<int> with = covered_;
    with.insert(covers_[x].begin(), covers_[x].end());
    *gain = NewItems(u, with);
    return true;
  }
  bool EmptySetGainBounds(std::span<const NodeId> candidates,
                          std::vector<double>* out) override {
    if (bounds.empty()) return false;
    EXPECT_EQ(commits, 0) << "bounds asked after a commit";
    for (const NodeId u : candidates) out->push_back(bounds[u]);
    return true;
  }

  int gain_with_calls = 0;
  int commits = 0;
  std::vector<NodeId> gained;     // every Gain call's node, in order
  std::function<void()> on_gain;  // runs inside each Gain call
  // Non-empty: offered as the empty-set gain bounds, one per node id.
  std::vector<double> bounds;

 private:
  double NewItems(NodeId u, const std::set<int>& covered) const {
    double count = 0;
    for (const int item : covers_[u]) count += covered.count(item) ? 0 : 1;
    return count;
  }

  std::vector<std::vector<int>> covers_;
  bool plus_plus_;
  std::set<int> covered_;
};

// Items 0-9 belong to node 0 (A), 20-25 to node 1 (X); node 2 (U) shares
// four of A's and one of X's plus three of its own; node 3 covers one.
// Pre-pass 10, 6, 8, 1. Round 0 commits A. Round 1 re-scores U (8 -> 4)
// and then X (fresh 6), and commits X. Round 2 re-scores U (4 -> 3) and
// commits it.
std::vector<std::vector<int>> OverlapCovers() {
  return {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
          {20, 21, 22, 23, 24, 25},
          {0, 1, 2, 3, 20, 30, 31, 32},
          {40}};
}

TEST(LazyGreedyTest, EqualKeysPopTheSmallestIdFirst) {
  // Six one-item nodes: every key is 1.0. The pre-pass order must not
  // matter, only the ids.
  CoverageGains gains({{0}, {1}, {2}, {3}, {4}, {5}});
  const std::vector<NodeId> shuffled = {4, 2, 5, 0, 3, 1};
  const LazyGreedyRun run = LazyGreedy(gains, shuffled, 3);
  EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(run.selection.seed_scores, (std::vector<double>{1, 1, 1}));

  // Budgeted: node u covers u + 1 items at cost u + 1, so every ratio is
  // 1.0 and the budget of 6 fits nodes 0, 1 and 2 exactly.
  CoverageGains ratios({{0}, {1, 2}, {3, 4, 5}, {6, 7, 8, 9}});
  const std::vector<double> costs = {1, 2, 3, 4};
  const LazyGreedyRun budgeted = LazyGreedy(
      ratios, std::vector<NodeId>{3, 1, 0, 2}, 4, costs, /*budget=*/6.0);
  EXPECT_EQ(budgeted.selection.seeds, (std::vector<NodeId>{0, 1, 2}));

  // Bound-keyed: nodes 0 and 3 carry a loose bound of 2, the rest an exact
  // 1. Round 0 scores 0 and 3 down to 1 and commits 0; each later round
  // scores the smallest never-scored id and commits it. The unscored
  // nodes 4 and 5 never cost an evaluation.
  CoverageGains bounded({{0}, {1}, {2}, {3}, {4}, {5}});
  bounded.bounds = {2, 1, 1, 2, 1, 1};
  const LazyGreedyRun lazy = LazyGreedy(bounded, shuffled, 3);
  EXPECT_EQ(lazy.selection.seeds, run.selection.seeds);
  EXPECT_EQ(lazy.selection.seed_scores, run.selection.seed_scores);
  EXPECT_EQ(bounded.gained, (std::vector<NodeId>{0, 3, 1, 2}));
  EXPECT_EQ(lazy.evaluations, 4u);
}

TEST(LazyGreedyTest, OverBudgetCandidateNeverReturns) {
  // Ratios: node 3 60/6 = 10 (over the whole budget of 5), node 1 9/2,
  // node 0 10/4, node 2 1/1. Round 0 drops 3 and commits 1 (residual 3);
  // round 1 drops 0 (cost 4) and commits 2. Neither dropped node is ever
  // scored again.
  std::vector<std::vector<int>> covers(4);
  for (int i = 0; i < 10; ++i) covers[0].push_back(i);
  for (int i = 0; i < 9; ++i) covers[1].push_back(100 + i);
  covers[2] = {200};
  for (int i = 0; i < 60; ++i) covers[3].push_back(300 + i);
  CoverageGains gains(covers, /*plus_plus=*/true);
  const std::vector<double> costs = {4, 2, 1, 6};
  const LazyGreedyRun run =
      LazyGreedy(gains, AllNodes(4), 4, costs, /*budget=*/5.0);
  EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(run.selection.seed_scores, (std::vector<double>{9, 1}));
  EXPECT_EQ(gains.gained, (std::vector<NodeId>{0, 1, 2, 3, 2}));
  EXPECT_EQ(run.evaluations, 5u);
  // The CELF++ look-ahead is top-k only.
  EXPECT_EQ(gains.gain_with_calls, 0);

  // Keyed on exact bounds, the dropped nodes 3 and 0 are never scored at
  // all: 3 pops over the budget in round 0, 0 over the residual in round 1.
  CoverageGains bounded(covers, /*plus_plus=*/true);
  bounded.bounds = {10, 9, 1, 60};
  const LazyGreedyRun lazy =
      LazyGreedy(bounded, AllNodes(4), 4, costs, /*budget=*/5.0);
  EXPECT_EQ(lazy.selection.seeds, run.selection.seeds);
  EXPECT_EQ(lazy.selection.seed_scores, run.selection.seed_scores);
  EXPECT_EQ(bounded.gained, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(lazy.evaluations, 2u);
  EXPECT_EQ(bounded.gain_with_calls, 0);
}

TEST(LazyGreedyTest, CelfPlusPlusSkipsOneReevaluationAfterPrevBestCommits) {
  CoverageGains plain_gains(OverlapCovers());
  const LazyGreedyRun plain = LazyGreedy(plain_gains, AllNodes(4), 3);
  EXPECT_EQ(plain.selection.seeds, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(plain.selection.seed_scores, (std::vector<double>{10, 6, 3}));
  // Pre-pass 4, round 1 re-scores U and X, round 2 re-scores U.
  EXPECT_EQ(plain.evaluations, 7u);

  // CELF++: round 1 re-scores U against S + X (X is the heap top then)
  // and X against S + U. X commits, so round 2 takes U's gain from the
  // cache: one Gain call fewer, two look-aheads at two evaluations each.
  CoverageGains pp_gains(OverlapCovers(), /*plus_plus=*/true);
  const LazyGreedyRun pp = LazyGreedy(pp_gains, AllNodes(4), 3);
  EXPECT_EQ(pp.selection.seeds, plain.selection.seeds);
  EXPECT_EQ(pp.selection.seed_scores, plain.selection.seed_scores);
  EXPECT_EQ(pp_gains.gained.size(), plain_gains.gained.size() - 1);
  EXPECT_EQ(pp_gains.gain_with_calls, 2);
  EXPECT_EQ(pp.evaluations, 10u);

  // Keyed on exact bounds {10, 6, 8, 1}, every entry starts never scored
  // and holds no look-ahead. Round 0 scores A (look-ahead against U) and
  // commits it. Round 1 scores U (against X) and X (against U) for the
  // first time, and X commits. Round 2 serves U from its round-1 cache:
  // the only cache hit, on an entry scored the round before. Node 3 is
  // never scored.
  CoverageGains bounded_pp(OverlapCovers(), /*plus_plus=*/true);
  bounded_pp.bounds = {10, 6, 8, 1};
  const LazyGreedyRun lazy_pp = LazyGreedy(bounded_pp, AllNodes(4), 3);
  EXPECT_EQ(lazy_pp.selection.seeds, plain.selection.seeds);
  EXPECT_EQ(lazy_pp.selection.seed_scores, plain.selection.seed_scores);
  EXPECT_EQ(bounded_pp.gained, (std::vector<NodeId>{0, 2, 1}));
  EXPECT_EQ(bounded_pp.gain_with_calls, 3);
  EXPECT_EQ(lazy_pp.evaluations, 9u);
}

TEST(LazyGreedyTest, CancelledTokenDiscardsTheCurrentRound) {
  // Cancel from inside round 1's first re-score (Gain call 5): the driver
  // must stop before anything scored after the cancel is committed.
  CancelToken token;
  Deadline deadline = Deadline::WorkBudget(1000, &token);
  CoverageGains gains(OverlapCovers());
  gains.on_gain = [&] {
    if (gains.gained.size() == 5) token.Cancel();
  };
  const LazyGreedyRun run =
      LazyGreedy(gains, AllNodes(4), 3, {}, 0.0, &deadline);
  EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{0}));
  EXPECT_EQ(gains.commits, 1);
  EXPECT_TRUE(run.selection.degraded);
  EXPECT_EQ(run.selection.stop_status.code(), StatusCode::kCancelled);
}

TEST(LazyGreedyTest, OneCheckpointBeforeThePrePassAndOnePerLaterRound) {
  // A budget of B ticks completes B - 1 checkpoints: the pre-pass check
  // plus one per round after round 0, so k = 3 needs a budget of 4.
  // Bound-keyed pre-passes score nothing and still take one check.
  for (const bool bounded : {false, true}) {
    for (uint64_t budget = 1; budget <= 4; ++budget) {
      SCOPED_TRACE(std::to_string(budget) + (bounded ? " bounded" : ""));
      Deadline deadline = Deadline::WorkBudget(budget);
      CoverageGains gains(OverlapCovers());
      if (bounded) gains.bounds = {12, 6, 9, 1};
      const LazyGreedyRun run =
          LazyGreedy(gains, AllNodes(4), 3, {}, 0.0, &deadline);
      const std::size_t rounds = budget - 1;
      EXPECT_EQ(run.selection.seeds.size(), rounds);
      EXPECT_EQ(run.selection.degraded, rounds < 3);
      if (rounds == 0) {
        EXPECT_TRUE(gains.gained.empty());
      }
      if (rounds == 3) {
        EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{0, 1, 2}));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EagerGreedy driver contracts, on the same coverage gains.
// ---------------------------------------------------------------------------

TEST(EagerGreedyTest, EqualKeysCommitTheSmallestId) {
  // Every key is 1.0; the scan order must not matter, only the ids.
  CoverageGains gains({{0}, {1}, {2}, {3}, {4}, {5}});
  const std::vector<NodeId> shuffled = {4, 2, 5, 0, 3, 1};
  const LazyGreedyRun run = EagerGreedy(gains, shuffled, 3);
  EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(run.selection.seed_scores, (std::vector<double>{1, 1, 1}));
  // Six scores, then five, then four.
  EXPECT_EQ(run.evaluations, 15u);

  // Budgeted: every ratio is 1.0 and the budget of 6 fits nodes 0, 1 and
  // 2 exactly; node 3 (cost 4) no longer fits once 0 and 1 are in.
  CoverageGains ratios({{0}, {1, 2}, {3, 4, 5}, {6, 7, 8, 9}});
  const std::vector<double> costs = {1, 2, 3, 4};
  const LazyGreedyRun budgeted = EagerGreedy(
      ratios, std::vector<NodeId>{3, 1, 0, 2}, 4, costs, /*budget=*/6.0);
  EXPECT_EQ(budgeted.selection.seeds, (std::vector<NodeId>{0, 1, 2}));
}

TEST(EagerGreedyTest, OverBudgetCandidateIsNeverCommitted) {
  // Ratios: node 3 60/6 = 10 but over the whole budget of 5, node 1 9/2,
  // node 0 10/4, node 2 1/1. Round 0 skips 3 unscored and commits 1
  // (residual 3); round 1 skips 0 (cost 4) and commits 2 (residual 2);
  // round 2 finds nothing that fits.
  std::vector<std::vector<int>> covers(4);
  for (int i = 0; i < 10; ++i) covers[0].push_back(i);
  for (int i = 0; i < 9; ++i) covers[1].push_back(100 + i);
  covers[2] = {200};
  for (int i = 0; i < 60; ++i) covers[3].push_back(300 + i);
  CoverageGains gains(covers, /*plus_plus=*/true);
  const std::vector<double> costs = {4, 2, 1, 6};
  const LazyGreedyRun run =
      EagerGreedy(gains, AllNodes(4), 4, costs, /*budget=*/5.0);
  EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(run.selection.seed_scores, (std::vector<double>{9, 1}));
  EXPECT_EQ(gains.gained, (std::vector<NodeId>{0, 1, 2, 2}));
  EXPECT_EQ(run.evaluations, 4u);
  EXPECT_FALSE(run.selection.degraded);
  // The eager driver never asks for look-aheads.
  EXPECT_EQ(gains.gain_with_calls, 0);
}

TEST(EagerGreedyTest, OneCheckpointPerRound) {
  // Round by round: A (10), X (6), U (4 -> 3), then node 3 (1). k = 4
  // takes four checkpoints, so a budget of 5 ticks completes it and a
  // budget of B <= 4 completes B - 1 rounds.
  for (uint64_t budget = 1; budget <= 5; ++budget) {
    SCOPED_TRACE(budget);
    Deadline deadline = Deadline::WorkBudget(budget);
    CoverageGains gains(OverlapCovers());
    const LazyGreedyRun run =
        EagerGreedy(gains, AllNodes(4), 4, {}, 0.0, &deadline);
    const std::size_t rounds = std::min<std::size_t>(budget - 1, 4);
    EXPECT_EQ(run.selection.seeds.size(), rounds);
    EXPECT_EQ(gains.commits, static_cast<int>(rounds));
    EXPECT_EQ(run.selection.degraded, budget <= 4);
    if (budget == 5) {
      EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{0, 1, 2, 3}));
      EXPECT_EQ(run.selection.seed_scores,
                (std::vector<double>{10, 6, 3, 1}));
      EXPECT_EQ(run.evaluations, 10u);
    }
  }
}

TEST(EagerGreedyTest, CancelledTokenDiscardsTheCurrentRound) {
  // Cancel from inside round 1's first score (Gain call 5): the round
  // still finishes its scan, but nothing it scored is committed.
  CancelToken token;
  Deadline deadline = Deadline::WorkBudget(1000, &token);
  CoverageGains gains(OverlapCovers());
  gains.on_gain = [&] {
    if (gains.gained.size() == 5) token.Cancel();
  };
  const LazyGreedyRun run =
      EagerGreedy(gains, AllNodes(4), 3, {}, 0.0, &deadline);
  EXPECT_EQ(run.selection.seeds, (std::vector<NodeId>{0}));
  EXPECT_EQ(gains.commits, 1);
  EXPECT_TRUE(run.selection.degraded);
  EXPECT_EQ(run.selection.stop_status.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace holim
