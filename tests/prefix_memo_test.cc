// Prefix answer memo tests.
//
// The memo rests on one contract: for every algorithm registered with
// AlgorithmInfo::prefix_nested, Select(k) returns the first k seeds and
// seed scores of Select(K) for k <= K. The first test pins that contract
// registry-wide. The rest pin what the engine builds on it: a memo answer
// equals a fresh engine's cold answer bit for bit, is flagged
// warm_answer on exactly the hits, touches the Workspace as a re-Select
// would, is charged to its selector and dies with it, and is never read
// by deadline-bounded or budgeted solves.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// The request every case starts from, with the heavyweights' knobs
/// turned down (as in engine_test).
SolveRequest BaseRequest(const AlgorithmInfo& info,
                         const InfluenceParams& params,
                         const OpinionParams& opinions) {
  SolveRequest request;
  request.algorithm = info.name;
  request.params = &params;
  if (info.needs_opinions) request.opinions = &opinions;
  request.l = 2;
  request.epsilon = 0.3;
  request.max_theta = 20000;
  request.mc = 20;
  request.seed = 11;
  return request;
}

TEST(PrefixContractTest, PrefixNestedAlgorithmsSelectNestedPrefixes) {
  std::set<std::string> not_nested;
  for (const AlgorithmInfo* info : HolimEngine::Registry().List()) {
    if (!info->prefix_nested) not_nested.insert(info->name);
  }
  // TIM+'s and IMM's θ depends on k; IMRank stops once its top-k set is
  // stable.
  EXPECT_EQ(not_nested, (std::set<std::string>{"imm", "imrank", "tim+"}));

  constexpr uint32_t kLarge = 20;
  const Graph shapes[] = {GenerateBarabasiAlbert(200, 2, 5).ValueOrDie(),
                          GenerateErdosRenyi(200, 3.0, 9).ValueOrDie()};
  for (const Graph& graph : shapes) {
    const OpinionParams opinions = MakeRandomOpinions(
        graph, OpinionDistribution::kStandardNormal, 42);
    const InfluenceParams models[] = {MakeUniformIc(graph, 0.1),
                                      MakeWeightedCascade(graph),
                                      MakeLinearThreshold(graph)};
    for (const InfluenceParams& params : models) {
      for (const AlgorithmInfo* info : HolimEngine::Registry().List()) {
        if (!info->prefix_nested) continue;
        SCOPED_TRACE(info->name + " n=" + std::to_string(graph.num_nodes()) +
                     " m=" + std::to_string(graph.num_edges()) + " model=" +
                     std::to_string(static_cast<int>(params.model)));
        SolveRequest request = BaseRequest(*info, params, opinions);
        request.mc = 8;  // the contract holds for any mc; this keeps it fast
        Workspace workspace;
        const SolveContext ctx{
            graph, request, workspace, nullptr,
            HolimEngine::SketchKeyFor(request, FingerprintParams(params))};
        auto large_selector = info->factory(ctx);
        ASSERT_TRUE(large_selector.ok()) << large_selector.status().ToString();
        auto large = (*large_selector)->Select(kLarge);
        ASSERT_TRUE(large.ok()) << large.status().ToString();
        ASSERT_EQ(large->seeds.size(), kLarge);
        for (const uint32_t k : {1u, 6u, 13u}) {
          auto small_selector = info->factory(ctx);
          ASSERT_TRUE(small_selector.ok());
          auto small = (*small_selector)->Select(k);
          ASSERT_TRUE(small.ok()) << small.status().ToString();
          const SeedSelection prefix = [&] {
            PrefixMemo memo;
            memo.Record(kLarge, *large);
            return memo.Prefix(k);
          }();
          EXPECT_EQ(small->seeds, prefix.seeds) << "k=" << k;
          EXPECT_EQ(small->seed_scores, prefix.seed_scores) << "k=" << k;
        }
      }
    }
  }
}

/// One engine answering k = 20, 5, 20, 10, 40 in turn, each answer held
/// against a fresh engine's cold solve of the same request.
void ExpectDescendingKsMatchFreshEngines(SpreadOracle oracle) {
  const Graph graph = GenerateBarabasiAlbert(200, 2, 5).ValueOrDie();
  const InfluenceParams params = MakeUniformIc(graph, 0.1);
  const OpinionParams opinions =
      MakeRandomOpinions(graph, OpinionDistribution::kStandardNormal, 42);
  const uint32_t ks[] = {20, 5, 20, 10, 40};
  const bool hit[] = {false, true, true, true, false};
  for (const AlgorithmInfo* info : HolimEngine::Registry().List()) {
    SCOPED_TRACE(info->name);
    SolveRequest request = BaseRequest(*info, params, opinions);
    request.oracle = oracle;
    request.num_sketches = 32;
    HolimEngine engine(graph);
    for (int i = 0; i < 5; ++i) {
      SCOPED_TRACE("k=" + std::to_string(ks[i]));
      request.k = ks[i];
      auto warm = engine.Solve(request);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      HolimEngine fresh(graph);
      auto cold = fresh.Solve(request);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      EXPECT_EQ(warm->seeds, cold->seeds);
      EXPECT_EQ(warm->seed_scores, cold->seed_scores);
      EXPECT_EQ(Bits(warm->spread), Bits(cold->spread));
      EXPECT_EQ(warm->tier, cold->tier);
      EXPECT_EQ(warm->algorithm, cold->algorithm);
      EXPECT_FALSE(cold->warm_answer);
      EXPECT_EQ(warm->warm_answer, info->prefix_nested && hit[i]);
      if (warm->warm_answer) {
        EXPECT_TRUE(warm->stats.empty());
        EXPECT_EQ(warm->select_seconds, 0.0);
        EXPECT_EQ(warm->scratch_bytes, 0u);
      }
      // The second k = 20 finds its spread stored by the first.
      if (warm->warm_answer && i == 2) EXPECT_EQ(warm->spread_seconds, 0.0);
    }
  }
}

TEST(PrefixMemoTest, DescendingKsMatchFreshEnginesUnderMc) {
  ExpectDescendingKsMatchFreshEngines(SpreadOracle::kMonteCarlo);
}

TEST(PrefixMemoTest, DescendingKsMatchFreshEnginesUnderSketch) {
  ExpectDescendingKsMatchFreshEngines(SpreadOracle::kSketch);
}

class PrefixMemoEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateBarabasiAlbert(200, 2, 5).ValueOrDie();
    params_ = MakeUniformIc(graph_, 0.1);
  }

  SolveRequest Request(const std::string& algorithm, uint32_t k) const {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = k;
    request.params = &params_;
    request.l = 2;
    request.mc = 20;
    request.seed = 11;
    return request;
  }

  Graph graph_;
  InfluenceParams params_;
};

TEST_F(PrefixMemoEngineTest, HitTouchesTheWorkspaceLikeAReselect) {
  // Engine `hit` answers its second solve from the memo; engine `reselect`
  // asks for a k above the memo and runs Select. Both solves fetch the
  // same selector entry and evaluation arena, so the cache state matches.
  SolveRequest request = Request("easyim", 20);
  request.oracle = SpreadOracle::kSketch;
  request.num_sketches = 32;
  HolimEngine hit(graph_);
  HolimEngine reselect(graph_);
  ASSERT_TRUE(hit.Solve(request).ok());
  ASSERT_TRUE(reselect.Solve(request).ok());
  request.k = 5;
  auto answered = hit.Solve(request);
  request.k = 21;
  auto selected = reselect.Solve(request);
  ASSERT_TRUE(answered.ok() && selected.ok());
  EXPECT_TRUE(answered->warm_answer);
  EXPECT_FALSE(selected->warm_answer);
  const Workspace& a = hit.workspace();
  const Workspace& b = reselect.workspace();
  EXPECT_EQ(a.tick(), b.tick());
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses(), b.misses());
  EXPECT_EQ(a.evictions(), b.evictions());
  EXPECT_EQ(a.num_artifacts(), b.num_artifacts());
  const SketchKey sketch_key{.params_fp = FingerprintParams(params_),
                             .snapshots = 32,
                             .seed = 11};
  EXPECT_EQ(a.HeatOf(sketch_key), b.HeatOf(sketch_key));
  EXPECT_GT(a.HeatOf(sketch_key), 0.0);
}

TEST_F(PrefixMemoEngineTest, MemoIsChargedToItsSelectorAndDroppedWithIt) {
  // degreediscount retains no state of its own and the MC oracle caches
  // no arena, so the Workspace holds exactly the memo.
  HolimEngine engine(graph_);
  auto cold = engine.Solve(Request("degreediscount", 20));
  ASSERT_TRUE(cold.ok());
  PrefixMemo expected;
  SeedSelection selection;
  selection.seeds = cold->seeds;
  selection.seed_scores = cold->seed_scores;
  expected.Record(20, selection);
  EXPECT_GT(expected.Bytes(), 0u);
  EXPECT_EQ(cold->workspace_bytes, expected.Bytes());
  auto hit = engine.Solve(Request("degreediscount", 7));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->warm_answer);
  EXPECT_EQ(hit->workspace_bytes, expected.Bytes());

  engine.workspace().Clear();
  EXPECT_EQ(engine.workspace().MemoryFootprintBytes(), 0u);
  auto after_clear = engine.Solve(Request("degreediscount", 7));
  ASSERT_TRUE(after_clear.ok());
  EXPECT_FALSE(after_clear->warm_selector);
  EXPECT_FALSE(after_clear->warm_answer);
  EXPECT_EQ(after_clear->seeds, hit->seeds);

  // A graph delta evicts every selector, and its memo with it.
  ASSERT_TRUE(engine.Solve(Request("degreediscount", 20)).ok());
  GraphDelta delta;
  delta.Upsert(0, 199, 0.5);
  auto report = engine.ApplyDelta(delta, params_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->effective);
  SolveRequest moved = Request("degreediscount", 7);
  moved.params = &report->params;
  auto after_delta = engine.Solve(moved);
  ASSERT_TRUE(after_delta.ok());
  EXPECT_FALSE(after_delta->warm_selector);
  EXPECT_FALSE(after_delta->warm_answer);
}

TEST_F(PrefixMemoEngineTest, BoundedAndBudgetedSolvesSkipTheMemo) {
  HolimEngine engine(graph_);
  ASSERT_TRUE(engine.Solve(Request("celf", 20)).ok());
  auto cold_five = HolimEngine(graph_).Solve(Request("celf", 5));
  ASSERT_TRUE(cold_five.ok());

  // A work budget that never runs out still makes the solve bounded: it
  // reuses the warm selector but selects, and answers tier=full.
  SolveRequest bounded = Request("celf", 5);
  bounded.work_budget = uint64_t{1} << 40;
  auto answered = engine.Solve(bounded);
  ASSERT_TRUE(answered.ok());
  EXPECT_TRUE(answered->warm_selector);
  EXPECT_FALSE(answered->warm_answer);
  EXPECT_EQ(answered->tier, ResultTier::kFull);
  EXPECT_EQ(answered->seeds, cold_five->seeds);

  SolveRequest budgeted = Request("celf", 5);
  budgeted.query = QueryKind::kBudgeted;
  budgeted.budget = 5.0;
  auto first = engine.Solve(budgeted);
  auto again = engine.Solve(budgeted);
  ASSERT_TRUE(first.ok() && again.ok());
  EXPECT_FALSE(first->warm_answer);
  EXPECT_FALSE(again->warm_answer);
  EXPECT_EQ(again->seeds, first->seeds);
}

}  // namespace
}  // namespace holim
