// Query-family tests (QueryKind vocabulary through HolimEngine::Solve).
//
// The load-bearing contracts:
//  * budgeted greedy matches the exhaustive-over-subsets optimum on a
//    crafted graph where the drop-when-over-budget rule must fire;
//  * uniform-cost budgeted selection is bitwise-identical to plain CELF /
//    greedy at budget == k, and its spread matches the sketch stream
//    reference (tests/sketch_reference.h) bitwise;
//  * all-ones targeted selection is bitwise-identical to untargeted, and
//    its weighted spread equals the plain spread and the reference's
//    bitwise;
//  * explain's per-seed contributions telescope to the evaluate spread
//    (bitwise at a power-of-two snapshot count), reproduce CELF's
//    per-round seed scores, and equal the reference's marginal gains;
//  * the Workspace content fingerprint invalidates on cost / target /
//    given-seed changes;
//  * unsupported (algorithm, kind) pairs fail with a typed Unimplemented
//    error, and SolveResult::stats honors the sorted-lookup contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_support/query_support.h"
#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "sketch_reference.h"

namespace holim {
namespace {

using sketch_reference::Reference;

// Local gtest glue for Result<T>: assert-ok, then move the value out.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                   \
  auto HOLIM_CONCAT_(_res_, __LINE__) = (rexpr);           \
  ASSERT_TRUE(HOLIM_CONCAT_(_res_, __LINE__).ok())         \
      << HOLIM_CONCAT_(_res_, __LINE__).status().ToString(); \
  lhs = std::move(*HOLIM_CONCAT_(_res_, __LINE__))

class QueryFamilyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateBarabasiAlbert(250, 2, 9).ValueOrDie();
    params_ = MakeUniformIc(graph_, 0.1);
  }

  SolveRequest BaseRequest(const std::string& algorithm, uint32_t k) const {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = k;
    request.params = &params_;
    request.oracle = SpreadOracle::kSketch;
    request.num_sketches = 64;
    request.seed = 17;
    return request;
  }

  Graph graph_;
  InfluenceParams params_;
};

// Three disjoint out-stars with p = 1.0 (every snapshot identical, so the
// sketch spread is the exact spread): center 0 reaches 5 leaves (cost 3),
// center 6 reaches 4 (cost 2), center 11 reaches 3 (cost 2); leaves are
// individually unaffordable. Budget 4: the ratio order pops center 6
// (4/2) first, then center 0 (5/3) — which must be dropped permanently
// (cost 3 > residual 2) — then center 11 fits. That greedy outcome
// {6, 11} with spread 7 is also the exhaustive optimum.
TEST_F(QueryFamilyTest, BudgetedMatchesExhaustiveOptimumOnStars) {
  GraphBuilder b(15);
  for (NodeId leaf = 1; leaf <= 5; ++leaf) b.AddEdge(0, leaf);
  for (NodeId leaf = 7; leaf <= 10; ++leaf) b.AddEdge(6, leaf);
  for (NodeId leaf = 12; leaf <= 14; ++leaf) b.AddEdge(11, leaf);
  Graph stars = std::move(b).Build().ValueOrDie();
  InfluenceParams certain = MakeUniformIc(stars, 1.0);

  std::vector<double> costs(15, 5.0);  // leaves never fit budget 4
  costs[0] = 3.0;
  costs[6] = 2.0;
  costs[11] = 2.0;
  const double budget = 4.0;

  HolimEngine engine(stars);
  for (const char* algorithm : {"greedy", "celf", "celf++"}) {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = 15;
    request.params = &certain;
    request.oracle = SpreadOracle::kSketch;
    request.num_sketches = 16;
    request.query = QueryKind::kBudgeted;
    request.node_costs = costs;
    request.budget = budget;
    ASSERT_OK_AND_ASSIGN(SolveResult result, engine.Solve(request));

    EXPECT_EQ(result.seeds, (std::vector<NodeId>{6, 11})) << algorithm;
    EXPECT_DOUBLE_EQ(result.total_cost, 4.0) << algorithm;
    EXPECT_DOUBLE_EQ(result.spread, 7.0) << algorithm;

    // Exhaustive reference: every subset of the 15 nodes within budget.
    double best = 0.0;
    for (uint32_t mask = 1; mask < (1u << 15); ++mask) {
      double cost = 0.0;
      std::vector<NodeId> subset;
      for (NodeId u = 0; u < 15; ++u) {
        if (mask & (1u << u)) {
          cost += costs[u];
          subset.push_back(u);
        }
      }
      if (cost > budget) continue;
      SolveRequest eval = request;
      eval.query = QueryKind::kEvaluate;
      eval.given_seeds = subset;
      ASSERT_OK_AND_ASSIGN(SolveResult scored, engine.Solve(eval));
      best = std::max(best, scored.spread);
    }
    EXPECT_DOUBLE_EQ(result.spread, best) << algorithm;
  }
}

// With uniform (empty -> 1.0) costs and budget == k, the benefit-per-cost
// ratio IS the gain and the drop rule never fires before the budget is
// spent — selection, per-round scores, and spread must be bitwise equal
// to the plain top-k solve, whose spread is the stream reference's.
TEST_F(QueryFamilyTest, UniformCostBudgetedBitwiseEqualsTopK) {
  constexpr uint32_t kSeeds = 6;
  const Reference reference(graph_, params_, 17, 64);
  for (const char* algorithm : {"greedy", "celf", "celf++"}) {
    HolimEngine engine(graph_);
    SolveRequest topk = BaseRequest(algorithm, kSeeds);
    ASSERT_OK_AND_ASSIGN(SolveResult plain, engine.Solve(topk));
    EXPECT_EQ(plain.spread, reference.Estimate(plain.seeds)) << algorithm;

    SolveRequest budgeted = topk;
    budgeted.query = QueryKind::kBudgeted;
    budgeted.budget = static_cast<double>(kSeeds);
    ASSERT_OK_AND_ASSIGN(SolveResult capped, engine.Solve(budgeted));

    EXPECT_EQ(capped.seeds, plain.seeds) << algorithm;
    EXPECT_EQ(capped.seed_scores, plain.seed_scores) << algorithm;
    EXPECT_EQ(capped.spread, plain.spread) << algorithm;
    EXPECT_DOUBLE_EQ(capped.total_cost,
                     static_cast<double>(capped.seeds.size()));
  }
}

// All-ones target weights keep every weighted partial sum an exact small
// integer, so the weighted kernels reproduce the integer path bit for bit:
// same seeds, same scores, and targeted_spread == spread == the stream
// reference's weighted spread, bitwise.
TEST_F(QueryFamilyTest, AllOnesTargetedBitwiseEqualsUntargeted) {
  constexpr uint32_t kSeeds = 6;
  const Reference reference(graph_, params_, 17, 64);
  const std::vector<double> ones(graph_.num_nodes(), 1.0);
  for (const char* algorithm : {"greedy", "celf", "celf++"}) {
    HolimEngine engine(graph_);
    SolveRequest topk = BaseRequest(algorithm, kSeeds);
    ASSERT_OK_AND_ASSIGN(SolveResult plain, engine.Solve(topk));

    SolveRequest targeted = topk;
    targeted.query = QueryKind::kTargeted;
    targeted.target_weights = ones;
    ASSERT_OK_AND_ASSIGN(SolveResult aimed, engine.Solve(targeted));

    EXPECT_EQ(aimed.seeds, plain.seeds) << algorithm;
    EXPECT_EQ(aimed.seed_scores, plain.seed_scores) << algorithm;
    EXPECT_EQ(aimed.spread, plain.spread) << algorithm;
    EXPECT_EQ(aimed.targeted_spread, aimed.spread) << algorithm;
    EXPECT_EQ(aimed.targeted_spread,
              reference.EstimateWeighted(aimed.seeds, ones))
        << algorithm;
  }
}

// A genuinely non-uniform target set must bias the selection's weighted
// spread: the targeted solve scores at least as high on the weighted
// objective as the untargeted winner evaluated under the same weights.
TEST_F(QueryFamilyTest, TargetedSolveBeatsUntargetedOnWeightedObjective) {
  SolveRequest targeted = BaseRequest("celf", 5);
  targeted.query = QueryKind::kTargeted;
  targeted.target_weights.assign(graph_.num_nodes(), 0.0);
  for (NodeId u = 0; u < graph_.num_nodes(); u += 3) {
    targeted.target_weights[u] = 1.0;
  }
  HolimEngine engine(graph_);
  ASSERT_OK_AND_ASSIGN(SolveResult aimed, engine.Solve(targeted));

  SolveRequest topk = BaseRequest("celf", 5);
  ASSERT_OK_AND_ASSIGN(SolveResult plain, engine.Solve(topk));
  SolveRequest rescored = targeted;
  rescored.query = QueryKind::kEvaluate;
  rescored.given_seeds = plain.seeds;
  ASSERT_OK_AND_ASSIGN(SolveResult baseline, engine.Solve(rescored));

  EXPECT_GE(aimed.targeted_spread, baseline.targeted_spread);
}

// Explain's contributions are the committed session gains, in given_seeds
// order: they telescope to the evaluate spread (bitwise at a power-of-two
// snapshot count, where every per-commit quotient is an exact dyadic) and
// reproduce CELF's per-round seed scores for CELF's own seed order.
TEST_F(QueryFamilyTest, ExplainContributionsSumToEvaluateSpread) {
  HolimEngine engine(graph_);
  SolveRequest topk = BaseRequest("celf", 6);
  topk.num_sketches = 256;  // power of two: exact telescoping
  ASSERT_OK_AND_ASSIGN(SolveResult plain, engine.Solve(topk));

  SolveRequest explain = topk;
  explain.query = QueryKind::kExplain;
  explain.given_seeds = plain.seeds;
  ASSERT_OK_AND_ASSIGN(SolveResult attributed, engine.Solve(explain));
  ASSERT_EQ(attributed.seed_contributions.size(), plain.seeds.size());
  EXPECT_EQ(attributed.seed_contributions, plain.seed_scores);

  // Each contribution is the stream reference's marginal gain of that
  // seed over the seeds before it.
  const Reference reference(graph_, params_, 17, 256);
  std::vector<NodeId> prefix;
  for (std::size_t i = 0; i < plain.seeds.size(); ++i) {
    EXPECT_EQ(attributed.seed_contributions[i],
              reference.MarginalGain(prefix, plain.seeds[i]));
    prefix.push_back(plain.seeds[i]);
  }

  SolveRequest evaluate = explain;
  evaluate.query = QueryKind::kEvaluate;
  ASSERT_OK_AND_ASSIGN(SolveResult scored, engine.Solve(evaluate));
  double sum = 0.0;
  for (const double c : attributed.seed_contributions) sum += c;
  EXPECT_EQ(sum, scored.spread);
  EXPECT_EQ(attributed.spread, scored.spread);
}

// Weighted explain telescopes to the weighted evaluate spread the same
// way (0/1 weights keep every partial sum exactly representable).
TEST_F(QueryFamilyTest, WeightedExplainSumsToWeightedEvaluate) {
  SolveRequest explain = BaseRequest("celf", 4);
  explain.num_sketches = 256;
  explain.query = QueryKind::kExplain;
  explain.given_seeds = {3, 11, 42, 99};
  explain.target_weights.assign(graph_.num_nodes(), 0.0);
  for (NodeId u = 0; u < graph_.num_nodes(); u += 2) {
    explain.target_weights[u] = 1.0;
  }
  HolimEngine engine(graph_);
  ASSERT_OK_AND_ASSIGN(SolveResult attributed, engine.Solve(explain));

  SolveRequest evaluate = explain;
  evaluate.query = QueryKind::kEvaluate;
  ASSERT_OK_AND_ASSIGN(SolveResult scored, engine.Solve(evaluate));

  double sum = 0.0;
  for (const double c : attributed.seed_contributions) sum += c;
  EXPECT_EQ(sum, scored.targeted_spread);
  EXPECT_EQ(attributed.targeted_spread, scored.targeted_spread);
  // The unweighted spread is reported alongside, from the same arena.
  EXPECT_EQ(attributed.spread, scored.spread);
}

// The selector cache key folds in the content fingerprints of the query
// vectors: re-solving with identical fields is warm, changing any cost or
// weight bit is a cold rebuild.
TEST_F(QueryFamilyTest, WorkspaceFingerprintInvalidatesOnQueryFields) {
  HolimEngine engine(graph_);
  SolveRequest budgeted = BaseRequest("celf", 5);
  budgeted.query = QueryKind::kBudgeted;
  budgeted.node_costs.assign(graph_.num_nodes(), 2.0);
  budgeted.budget = 10.0;
  ASSERT_OK_AND_ASSIGN(SolveResult cold, engine.Solve(budgeted));
  EXPECT_FALSE(cold.warm_selector);
  ASSERT_OK_AND_ASSIGN(SolveResult warm, engine.Solve(budgeted));
  EXPECT_TRUE(warm.warm_selector);
  EXPECT_EQ(warm.seeds, cold.seeds);
  EXPECT_EQ(warm.seed_scores, cold.seed_scores);

  budgeted.node_costs[7] = 2.5;  // one cost bit changes -> cold
  ASSERT_OK_AND_ASSIGN(SolveResult recost, engine.Solve(budgeted));
  EXPECT_FALSE(recost.warm_selector);

  SolveRequest targeted = BaseRequest("celf", 5);
  targeted.query = QueryKind::kTargeted;
  targeted.target_weights.assign(graph_.num_nodes(), 1.0);
  ASSERT_OK_AND_ASSIGN(SolveResult aimed, engine.Solve(targeted));
  EXPECT_FALSE(aimed.warm_selector);
  targeted.target_weights[0] = 0.5;
  ASSERT_OK_AND_ASSIGN(SolveResult reweighted, engine.Solve(targeted));
  EXPECT_FALSE(reweighted.warm_selector);

  // Evaluate runs no selector; changing the given seeds changes the answer
  // while the sketch arena stays warm.
  SolveRequest evaluate = BaseRequest("celf", 5);
  evaluate.query = QueryKind::kEvaluate;
  evaluate.given_seeds = {1, 2, 3};
  ASSERT_OK_AND_ASSIGN(SolveResult first, engine.Solve(evaluate));
  evaluate.given_seeds = {4, 5, 6};
  ASSERT_OK_AND_ASSIGN(SolveResult second, engine.Solve(evaluate));
  EXPECT_TRUE(second.warm_sketch);
  EXPECT_NE(first.spread, second.spread);
}

// The capability mask is enforced with a typed error — no silent top-k
// fallback — while evaluate/explain are oracle-side and work for every
// algorithm name.
TEST_F(QueryFamilyTest, UnsupportedQueryKindIsTypedError) {
  HolimEngine engine(graph_);
  SolveRequest request = BaseRequest("degree", 5);
  request.query = QueryKind::kBudgeted;
  request.budget = 5.0;
  Result<SolveResult> result = engine.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(result.status().message().find("does not support"),
            std::string::npos);

  SolveRequest evaluate = BaseRequest("degree", 5);
  evaluate.query = QueryKind::kEvaluate;
  evaluate.given_seeds = {1, 2};
  ASSERT_OK_AND_ASSIGN(SolveResult scored, engine.Solve(evaluate));
  EXPECT_GT(scored.spread, 0.0);
}

// Malformed query fields fail fast with InvalidArgument.
TEST_F(QueryFamilyTest, QueryFieldValidation) {
  HolimEngine engine(graph_);

  SolveRequest no_budget = BaseRequest("celf", 5);
  no_budget.query = QueryKind::kBudgeted;
  EXPECT_EQ(engine.Solve(no_budget).status().code(),
            StatusCode::kInvalidArgument);

  SolveRequest bad_costs = BaseRequest("celf", 5);
  bad_costs.query = QueryKind::kBudgeted;
  bad_costs.budget = 5.0;
  bad_costs.node_costs = {1.0, 2.0};  // wrong arity
  EXPECT_EQ(engine.Solve(bad_costs).status().code(),
            StatusCode::kInvalidArgument);

  SolveRequest no_weights = BaseRequest("celf", 5);
  no_weights.query = QueryKind::kTargeted;
  EXPECT_EQ(engine.Solve(no_weights).status().code(),
            StatusCode::kInvalidArgument);

  SolveRequest mc_targeted = BaseRequest("celf", 5);
  mc_targeted.query = QueryKind::kTargeted;
  mc_targeted.target_weights.assign(graph_.num_nodes(), 1.0);
  mc_targeted.oracle = SpreadOracle::kMonteCarlo;
  EXPECT_EQ(engine.Solve(mc_targeted).status().code(),
            StatusCode::kInvalidArgument);

  SolveRequest no_seeds = BaseRequest("celf", 5);
  no_seeds.query = QueryKind::kExplain;
  EXPECT_EQ(engine.Solve(no_seeds).status().code(),
            StatusCode::kInvalidArgument);

  SolveRequest bad_seed = BaseRequest("celf", 5);
  bad_seed.query = QueryKind::kEvaluate;
  bad_seed.given_seeds = {graph_.num_nodes()};
  EXPECT_EQ(engine.Solve(bad_seed).status().code(),
            StatusCode::kInvalidArgument);
}

// --seeds ids must each be a whole unsigned decimal below n.
TEST(ParseSeedListTest, AcceptsIdListsAndRejectsPartialTokens) {
  const Graph graph = GeneratePath(10).ValueOrDie();
  EXPECT_EQ(ParseSeedList("3,5", graph).ValueOrDie(),
            (std::vector<NodeId>{3, 5}));
  EXPECT_EQ(ParseSeedList(" 0, 9\t7 ", graph).ValueOrDie(),
            (std::vector<NodeId>{0, 9, 7}));
  for (const char* bad : {"3abc,5", "+4", "-1", "0x3", "10", "", " , "}) {
    auto seeds = ParseSeedList(bad, graph);
    ASSERT_FALSE(seeds.ok()) << bad;
    EXPECT_EQ(seeds.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// SolveResult::stats come back sorted by name (the engine sorts once per
// solve), so Stat() can binary-search; hand-filled results restore the
// invariant with SortStats().
TEST_F(QueryFamilyTest, StatsAreSortedAndBinarySearchable) {
  HolimEngine engine(graph_);
  SolveRequest request = BaseRequest("tim+", 5);
  request.oracle = SpreadOracle::kMonteCarlo;
  request.epsilon = 0.3;
  request.max_theta = 20000;
  ASSERT_OK_AND_ASSIGN(SolveResult result, engine.Solve(request));
  ASSERT_FALSE(result.stats.empty());
  EXPECT_TRUE(std::is_sorted(
      result.stats.begin(), result.stats.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  for (const auto& [name, value] : result.stats) {
    EXPECT_EQ(result.Stat(name), value);
  }
  EXPECT_EQ(result.Stat("no-such-stat", -1.0), -1.0);

  SolveResult by_hand;
  by_hand.stats = {{"zeta", 1.0}, {"alpha", 2.0}, {"mu", 3.0}};
  by_hand.SortStats();
  EXPECT_EQ(by_hand.stats.front().first, "alpha");
  EXPECT_EQ(by_hand.Stat("mu"), 3.0);
  EXPECT_EQ(by_hand.Stat("beta", 9.0), 9.0);
}

}  // namespace
}  // namespace holim
