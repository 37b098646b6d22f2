// HolimEngine / Workspace / registry tests.
//
// The load-bearing contract: for EVERY registered algorithm, an engine
// solve is bitwise-identical (seeds, per-round scores, stats) to the
// direct selector call its factory performs, and a warm-Workspace
// re-solve is bitwise-identical to a cold solve — at 1 worker thread and
// at 8. Artifact reuse must be invisible except in time and memory.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateBarabasiAlbert(200, 2, 5).ValueOrDie();
    params_ = MakeUniformIc(graph_, 0.1);
    opinions_ = MakeRandomOpinions(graph_,
                                   OpinionDistribution::kStandardNormal, 42);
  }

  /// The base request every parity case starts from: small enough that
  /// the full registry x {1,8} threads sweep stays fast, and with the
  /// heavyweights' knobs turned down.
  SolveRequest BaseRequest(const std::string& algorithm,
                           uint32_t threads) const {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = 3;
    request.params = &params_;
    request.l = 2;
    request.epsilon = 0.3;
    request.max_theta = 20000;
    request.mc = 20;
    request.seed = 11;
    request.threads = threads;
    return request;
  }

  Graph graph_;
  InfluenceParams params_;
  OpinionParams opinions_;
};

TEST_F(EngineTest, RegistryHasEveryAlgorithmAndResolvesAliases) {
  const AlgorithmRegistry& registry = HolimEngine::Registry();
  const char* expected[] = {
      "asim",       "celf",     "celf++",         "degree",
      "degreediscount", "easyim", "greedy",       "imm",
      "imrank",     "irie",     "osim",           "pagerank",
      "path-union", "random",   "simpath",        "singlediscount",
      "static-greedy", "tim+"};
  auto listed = registry.List();
  ASSERT_EQ(listed.size(), sizeof(expected) / sizeof(expected[0]));
  for (std::size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(listed[i]->name, expected[i]) << "registry order/content";
    EXPECT_TRUE(listed[i]->factory != nullptr);
  }
  // Aliases resolve to their canonical entry.
  EXPECT_EQ(registry.Find("tim"), registry.Find("tim+"));
  EXPECT_EQ(registry.Find("celfpp"), registry.Find("celf++"));
  EXPECT_EQ(registry.Find("staticgreedy"), registry.Find("static-greedy"));
  EXPECT_EQ(registry.Find("pathunion"), registry.Find("path-union"));
  EXPECT_EQ(registry.Find("no-such-algo"), nullptr);
}

// Engine solve == direct factory call, warm == cold, and 1-thread ==
// 8-thread, for every registered algorithm.
TEST_F(EngineTest, SolveMatchesDirectCallColdWarmAndAcrossThreads) {
  std::map<std::string, std::vector<NodeId>> seeds_by_threads[2];
  const uint32_t thread_counts[] = {0, 8};
  for (int t = 0; t < 2; ++t) {
    const uint32_t threads = thread_counts[t];
    ThreadPool direct_pool(threads == 0 ? 1 : threads);
    for (const AlgorithmInfo* info : HolimEngine::Registry().List()) {
      SCOPED_TRACE(info->name + " threads=" + std::to_string(threads));
      SolveRequest request = BaseRequest(info->name, threads);
      if (info->needs_opinions) request.opinions = &opinions_;

      // Direct: exactly what the factory builds, selected without any
      // engine or workspace in the loop.
      Workspace scratch_workspace;
      SolveContext ctx{graph_, request, scratch_workspace,
                       threads == 0 ? nullptr : &direct_pool};
      auto built = info->factory(ctx);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      auto direct = (*built)->Select(request.k);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();

      HolimEngine engine(graph_);
      auto cold = engine.Solve(request);
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      auto warm = engine.Solve(request);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();

      EXPECT_EQ(cold->seeds, direct->seeds);
      EXPECT_EQ(cold->seed_scores, direct->seed_scores);
      EXPECT_EQ(cold->algorithm, (*built)->name());
      // The engine sorts stats by name once per solve (the Stat() binary-
      // search contract); the direct side is raw selector order.
      SolveResult direct_stats;
      direct_stats.stats = (*built)->LastRunStats();
      direct_stats.SortStats();
      EXPECT_EQ(cold->stats, direct_stats.stats);

      EXPECT_FALSE(cold->warm_selector);
      EXPECT_TRUE(warm->warm_selector);
      EXPECT_EQ(warm->seeds, cold->seeds);
      EXPECT_EQ(warm->seed_scores, cold->seed_scores);
      EXPECT_EQ(warm->spread, cold->spread);
      EXPECT_EQ(warm->stats, cold->stats);

      seeds_by_threads[t][info->name] = cold->seeds;
    }
  }
  // Every parallel path is bitwise thread-count-invariant.
  EXPECT_EQ(seeds_by_threads[0], seeds_by_threads[1]);
}

TEST_F(EngineTest, SketchOracleSolvesAreWarmAfterFirstAndShared) {
  HolimEngine engine(graph_);
  SolveRequest celf = BaseRequest("celf++", 0);
  celf.oracle = SpreadOracle::kSketch;
  celf.num_sketches = 30;

  auto cold = engine.Solve(celf);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->warm_sketch);
  EXPECT_GT(cold->sketch_arena_bytes, 0u);

  // Same worlds (same params/R/seed key) serve a different algorithm.
  SolveRequest greedy = BaseRequest("greedy", 0);
  greedy.oracle = SpreadOracle::kSketch;
  greedy.num_sketches = 30;
  auto warm = engine.Solve(greedy);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm_sketch);
  EXPECT_EQ(warm->sketch_arena_bytes, cold->sketch_arena_bytes);
  // 2 selectors + 1 shared sketch arena.
  EXPECT_EQ(engine.workspace().num_artifacts(), 3u);

  // Warm re-solve of the first request is bitwise identical.
  auto resolve = engine.Solve(celf);
  ASSERT_TRUE(resolve.ok()) << resolve.status().ToString();
  EXPECT_TRUE(resolve->warm_selector);
  EXPECT_TRUE(resolve->warm_sketch);
  EXPECT_EQ(resolve->seeds, cold->seeds);
  EXPECT_EQ(resolve->spread, cold->spread);

  // On the frozen worlds CELF++ == CELF == eager greedy; the sketch parity
  // of interest here is engine-level: greedy and celf++ share one arena
  // and still pick their own (deterministic) seeds.
  EXPECT_EQ(warm->seeds, cold->seeds);
}

TEST_F(EngineTest, ClearedWorkspaceReproducesColdResultsExactly) {
  HolimEngine engine(graph_);
  SolveRequest request = BaseRequest("easyim", 0);
  auto first = engine.Solve(request);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(engine.workspace().num_artifacts(), 0u);
  EXPECT_GT(engine.workspace().MemoryFootprintBytes(), 0u);

  engine.workspace().Clear();
  EXPECT_EQ(engine.workspace().num_artifacts(), 0u);
  EXPECT_EQ(engine.workspace().MemoryFootprintBytes(), 0u);

  auto again = engine.Solve(request);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->warm_selector);
  EXPECT_EQ(again->seeds, first->seeds);
  EXPECT_EQ(again->spread, first->spread);
}

TEST_F(EngineTest, LruEvictionKeepsWorkspaceUnderBudget) {
  EngineOptions options;
  options.max_cache_bytes = 1;  // force eviction down to a single artifact
  HolimEngine engine(graph_, options);

  SolveRequest l2 = BaseRequest("easyim", 0);
  SolveRequest l3 = BaseRequest("easyim", 0);
  l3.l = 3;
  ASSERT_TRUE(engine.Solve(l2).ok());
  ASSERT_TRUE(engine.Solve(l3).ok());
  // Both scorers have positive footprints; the budget admits only the
  // most recent.
  EXPECT_EQ(engine.workspace().num_artifacts(), 1u);
  EXPECT_GT(engine.workspace().evictions(), 0u);

  // The evicted request rebuilds cold and still matches itself.
  auto rebuilt = engine.Solve(l2);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt->warm_selector);
}

TEST_F(EngineTest, KSweepReusesOneSelectorArtifact) {
  HolimEngine engine(graph_);
  SolveRequest request = BaseRequest("easyim", 0);
  std::vector<NodeId> prev;
  for (uint32_t k = 1; k <= 4; ++k) {
    request.k = k;
    auto result = engine.Solve(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->warm_selector, k > 1) << "k=" << k;
    // ScoreGREEDY prefixes are stable across k (same scorer, same greedy
    // path), which doubles as a reuse-doesn't-leak-state check.
    ASSERT_GE(result->seeds.size(), prev.size());
    for (std::size_t i = 0; i < prev.size(); ++i) {
      EXPECT_EQ(result->seeds[i], prev[i]);
    }
    prev = result->seeds;
  }
  EXPECT_EQ(engine.workspace().num_artifacts(), 1u);
}

TEST_F(EngineTest, InvalidRequestsFailWithInvalidArgument) {
  HolimEngine engine(graph_);
  SolveRequest unknown = BaseRequest("definitely-not-an-algo", 0);
  auto r1 = engine.Solve(unknown);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  // The error names the registry so the caller can self-serve.
  EXPECT_NE(r1.status().message().find("easyim"), std::string::npos);

  SolveRequest osim = BaseRequest("osim", 0);  // no opinions
  auto r2 = engine.Solve(osim);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  SolveRequest zero_k = BaseRequest("degree", 0);
  zero_k.k = 0;
  EXPECT_FALSE(engine.Solve(zero_k).ok());

  SolveRequest no_params = BaseRequest("degree", 0);
  no_params.params = nullptr;
  EXPECT_FALSE(engine.Solve(no_params).ok());

  // Sketch oracle + opinion objective is rejected (greedy/celf only
  // support the plain spread objective on frozen worlds).
  SolveRequest sketch_opinion = BaseRequest("greedy", 0);
  sketch_opinion.opinions = &opinions_;
  sketch_opinion.oracle = SpreadOracle::kSketch;
  EXPECT_FALSE(engine.Solve(sketch_opinion).ok());
}

// A sketch request whose snapshot count resolves to zero (num_sketches
// unset and mc == 0) is a typed error for every query kind — never an
// abort inside the oracle build — and leaves the engine usable.
TEST_F(EngineTest, ZeroSketchSnapshotsFailWithInvalidArgument) {
  HolimEngine engine(graph_);
  SolveRequest topk = BaseRequest("celf", 0);
  topk.oracle = SpreadOracle::kSketch;
  topk.mc = 0;
  SolveRequest evaluate = topk;
  evaluate.query = QueryKind::kEvaluate;
  evaluate.given_seeds = {0, 1};
  for (const SolveRequest& request : {topk, evaluate}) {
    auto result = engine.Solve(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.workspace().num_artifacts(), 0u);

  SolveRequest explicit_count = topk;
  explicit_count.num_sketches = 16;  // mc == 0 is fine once R is given
  EXPECT_TRUE(engine.Solve(explicit_count).ok());
}

TEST_F(EngineTest, ParamsFingerprintInvalidatesExactly) {
  HolimEngine engine(graph_);
  SolveRequest request = BaseRequest("degree", 0);
  ASSERT_TRUE(engine.Solve(request).ok());

  // Same content, different object: still a cache hit (content-keyed).
  InfluenceParams same = MakeUniformIc(graph_, 0.1);
  request.params = &same;
  auto hit = engine.Solve(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->warm_selector);

  // One bit of parameter change misses.
  InfluenceParams different = MakeUniformIc(graph_, 0.1000001);
  request.params = &different;
  auto miss = engine.Solve(request);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->warm_selector);

  // Scalar knobs are keyed bit-exactly too: values that agree to 6
  // decimals (std::to_string's precision) must still be distinct keys.
  request.params = &params_;
  request.epsilon = 0.1234567;
  auto eps_a = engine.Solve(request);
  ASSERT_TRUE(eps_a.ok());
  request.epsilon = 0.1234572;
  auto eps_b = engine.Solve(request);
  ASSERT_TRUE(eps_b.ok());
  EXPECT_FALSE(eps_b->warm_selector);
}

}  // namespace
}  // namespace holim
