// HolimEngine / Workspace / registry tests.
//
// The load-bearing contract: for EVERY registered algorithm, an engine
// solve is bitwise-identical (seeds, per-round scores, stats) to the
// direct selector call its factory performs, and a warm-Workspace
// re-solve is bitwise-identical to a cold solve — at 1 worker thread and
// at 8. Artifact reuse must be invisible except in time and memory.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
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

// Engine solve == direct factory call, warm == cold (a memo answer on the
// answer fields, a re-Select on stats too), and 1-thread == 8-thread, for
// every registered algorithm.
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
      SolveContext ctx{
          graph_, request, scratch_workspace,
          threads == 0 ? nullptr : &direct_pool,
          HolimEngine::SketchKeyFor(request, FingerprintParams(params_))};
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

      // A repeat answers the same bits. Prefix-nested algorithms answer
      // it from the selector's prefix memo, which runs nothing, so their
      // stats are empty; the rest select again and repeat their stats.
      EXPECT_FALSE(cold->warm_selector);
      EXPECT_FALSE(cold->warm_answer);
      EXPECT_TRUE(warm->warm_selector);
      EXPECT_EQ(warm->warm_answer, info->prefix_nested);
      EXPECT_EQ(warm->seeds, cold->seeds);
      EXPECT_EQ(warm->seed_scores, cold->seed_scores);
      EXPECT_EQ(std::bit_cast<uint64_t>(warm->spread),
                std::bit_cast<uint64_t>(cold->spread));
      EXPECT_EQ(warm->algorithm, cold->algorithm);
      EXPECT_EQ(warm->tier, cold->tier);
      if (info->prefix_nested) {
        EXPECT_TRUE(warm->stats.empty());
        EXPECT_EQ(warm->select_seconds, 0.0);
      } else {
        EXPECT_EQ(warm->stats, cold->stats);
      }

      // The re-select path: the warm selector asked for a k above its
      // memo runs Select and matches a cold engine, stats included.
      SolveRequest larger = request;
      larger.k = request.k + 1;
      auto reselect = engine.Solve(larger);
      ASSERT_TRUE(reselect.ok()) << reselect.status().ToString();
      HolimEngine fresh(graph_);
      auto cold_larger = fresh.Solve(larger);
      ASSERT_TRUE(cold_larger.ok()) << cold_larger.status().ToString();
      EXPECT_TRUE(reselect->warm_selector);
      EXPECT_FALSE(reselect->warm_answer);
      EXPECT_EQ(reselect->seeds, cold_larger->seeds);
      EXPECT_EQ(reselect->seed_scores, cold_larger->seed_scores);
      EXPECT_EQ(std::bit_cast<uint64_t>(reselect->spread),
                std::bit_cast<uint64_t>(cold_larger->spread));
      EXPECT_EQ(reselect->stats, cold_larger->stats);

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

// StaticGreedy is plain CELF on the shared sketch arena: its
// R = num_snapshots worlds at the request seed are the ones celf reads
// under oracle=sketch with num_sketches = R, so that solve is a warm arena
// hit with the same seeds and scores. A different request seed draws
// different worlds.
TEST_F(EngineTest, StaticGreedyIsCelfOnTheSharedSketchArena) {
  HolimEngine engine(graph_);
  SolveRequest static_greedy = BaseRequest("static-greedy", 0);
  static_greedy.num_snapshots = 100;
  auto sg = engine.Solve(static_greedy);
  ASSERT_TRUE(sg.ok()) << sg.status().ToString();

  SolveRequest celf = BaseRequest("celf", 0);
  celf.oracle = SpreadOracle::kSketch;
  celf.num_sketches = 100;
  auto warm = engine.Solve(celf);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->warm_sketch);
  EXPECT_FALSE(warm->warm_selector);
  EXPECT_EQ(warm->seeds, sg->seeds);
  EXPECT_EQ(warm->seed_scores, sg->seed_scores);
  // 2 selectors + 1 shared sketch arena.
  EXPECT_EQ(engine.workspace().num_artifacts(), 3u);

  SolveRequest reseeded = static_greedy;
  reseeded.seed = static_greedy.seed + 1;
  auto other = engine.Solve(reseeded);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE(other->warm_selector);
  EXPECT_NE(other->seed_scores, sg->seed_scores);
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

  // A sweep needs at least one level: l == 0 is a typed error for the
  // three score-sweep algorithms, never the kernel's CHECK.
  for (const char* sweep : {"easyim", "osim", "asim"}) {
    SolveRequest zero_l = BaseRequest(sweep, 0);
    zero_l.opinions = &opinions_;
    zero_l.l = 0;
    auto r = engine.Solve(zero_l);
    ASSERT_FALSE(r.ok()) << sweep;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sweep;
  }

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

  // A supplied fingerprint (SolveRequest::params_fingerprint) and a hashed
  // one key the same artifacts, in either order: the selector under both
  // oracles, and the arena under the sketch oracle.
  const uint64_t fp = FingerprintParams(params_);
  for (const SpreadOracle oracle :
       {SpreadOracle::kMonteCarlo, SpreadOracle::kSketch}) {
    for (const bool supplied_first : {false, true}) {
      SCOPED_TRACE(std::string(oracle == SpreadOracle::kSketch ? "sketch"
                                                               : "mc") +
                   (supplied_first ? " supplied first" : " hashed first"));
      HolimEngine interchange(graph_);
      SolveRequest plain = BaseRequest("easyim", 0);
      plain.oracle = oracle;
      SolveRequest supplied = plain;
      supplied.params_fingerprint = fp;
      auto first = interchange.Solve(supplied_first ? supplied : plain);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      auto second = interchange.Solve(supplied_first ? plain : supplied);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      EXPECT_FALSE(first->warm_selector);
      EXPECT_TRUE(second->warm_selector);
      EXPECT_EQ(second->warm_sketch, oracle == SpreadOracle::kSketch);
      EXPECT_EQ(second->seeds, first->seeds);
      EXPECT_EQ(second->seed_scores, first->seed_scores);
      EXPECT_EQ(std::bit_cast<uint64_t>(second->spread),
                std::bit_cast<uint64_t>(first->spread));
      if (oracle != SpreadOracle::kSketch) continue;

      // The evaluate path takes the supplied fingerprint too: it finds
      // the arena the two solves above shared, and (trusted, as below)
      // finds it even for other params that carry this fingerprint.
      SolveRequest evaluate = supplied;
      evaluate.query = QueryKind::kEvaluate;
      evaluate.given_seeds = first->seeds;
      for (const InfluenceParams* params : {&params_, &different}) {
        evaluate.params = params;
        auto scored = interchange.Solve(evaluate);
        ASSERT_TRUE(scored.ok()) << scored.status().ToString();
        EXPECT_TRUE(scored->warm_sketch);
        EXPECT_EQ(std::bit_cast<uint64_t>(scored->spread),
                  std::bit_cast<uint64_t>(first->spread));
      }
    }
  }

  // A supplied fingerprint is trusted, never rehashed: params that no
  // solve has seen reuse params_'s selector under params_'s fingerprint.
  // Hence only an owner of params that nothing can edit may set the field.
  const InfluenceParams unseen = MakeUniformIc(graph_, 0.2);
  request = BaseRequest("degree", 0);
  request.params = &unseen;
  request.params_fingerprint = fp;
  auto trusted = engine.Solve(request);
  ASSERT_TRUE(trusted.ok());
  EXPECT_TRUE(trusted->warm_selector);
}

TEST_F(EngineTest, ParamsFingerprintSeesEveryBit) {
  const InfluenceParams& base = params_;
  const uint64_t base_fp = FingerprintParams(base);
  const std::size_t m = base.probability.size();
  ASSERT_GT(m, 2u);
  const auto flipped = [&base](std::initializer_list<std::size_t> entries,
                               uint64_t bit) {
    InfluenceParams out = base;
    for (const std::size_t e : entries) {
      out.probability[e] = std::bit_cast<double>(
          std::bit_cast<uint64_t>(out.probability[e]) ^ bit);
    }
    return FingerprintParams(out);
  };
  // Every single-bit flip of the first, a middle and the last entry.
  for (const std::size_t e : {std::size_t{0}, m / 2, m - 1}) {
    for (int bit = 0; bit < 64; ++bit) {
      EXPECT_NE(flipped({e}, uint64_t{1} << bit), base_fp)
          << "entry " << e << " bit " << bit;
    }
  }
  // Sign bits of two entries: a plain xor-then-multiply step keeps each
  // flip in bit 63, where the second cancels the first.
  const uint64_t sign = uint64_t{1} << 63;
  EXPECT_NE(flipped({0, 1}, sign), base_fp);
  EXPECT_NE(flipped({0, m / 2}, sign), base_fp);
  EXPECT_NE(flipped({1, m - 1}, sign), base_fp);

  // The model kind alone moves the fingerprint.
  InfluenceParams relabeled = base;
  relabeled.model = DiffusionModel::kWeightedCascade;
  ASSERT_NE(relabeled.model, base.model);
  EXPECT_NE(FingerprintParams(relabeled), base_fp);
}

TEST(FingerprintTest, NodeListsFoldTheirLength) {
  // A trailing node 0 adds only zero bytes; the folded length tells the
  // lists apart. Odd lengths end in a zero-padded partial word.
  EXPECT_NE(FingerprintNodes({1, 2}), FingerprintNodes({1, 2, 0}));
  EXPECT_NE(FingerprintNodes({7}), FingerprintNodes({7, 0}));
  EXPECT_NE(FingerprintNodes({1, 2, 3}), FingerprintNodes({1, 2, 3, 0}));
  EXPECT_NE(FingerprintNodes({1, 2, 3}), FingerprintNodes({1, 2, 4}));
  EXPECT_NE(FingerprintNodes({}), FingerprintNodes({0}));
  EXPECT_NE(FingerprintNodes({1, 2}), FingerprintNodes({2, 1}));
  EXPECT_EQ(FingerprintNodes({1, 2, 3}), FingerprintNodes({1, 2, 3}));
  // Equal bytes split differently between the two opinion vectors.
  OpinionParams a{{0.5, 0.25}, {0.75}};
  OpinionParams b{{0.5}, {0.25, 0.75}};
  EXPECT_NE(FingerprintOpinions(a), FingerprintOpinions(b));
}

}  // namespace
}  // namespace holim
