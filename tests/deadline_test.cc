// Deadline / cancellation / degradation contract tests.
//
// The load-bearing contract: degradation under a *work budget* is
// deterministic. For every algorithm and every budget B, the degraded
// solve's seeds are bitwise equal to the first rounds_completed seeds of
// the untimed run (greedy rounds are prefix-valid), for MC- and
// sketch-backed selectors; when no round completed, the engine falls to
// the DegreeDiscountIC heuristic tier instead of failing.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "engine/holim_engine.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "sketch_reference.h"
#include "util/deadline.h"

namespace holim {
namespace {

/// Clock that advances a fixed step on every read: wall-clock expiry then
/// lands after a deterministic number of clock polls (serial solves only).
class SteppingClock : public Clock {
 public:
  explicit SteppingClock(int64_t step_nanos) : step_(step_nanos) {}
  int64_t NowNanos() const override {
    return now_.fetch_add(step_, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<int64_t> now_{0};
  int64_t step_;
};

class DeadlineSolveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateBarabasiAlbert(200, 2, 5).ValueOrDie();
    params_ = MakeUniformIc(graph_, 0.1);
    lt_params_ = MakeLinearThreshold(graph_);
  }

  SolveRequest BaseRequest(const std::string& algorithm) const {
    SolveRequest request;
    request.algorithm = algorithm;
    request.k = 4;
    request.params = &params_;
    request.l = 2;
    request.epsilon = 0.3;
    request.max_theta = 20000;
    request.mc = 20;
    request.seed = 11;
    return request;
  }

  void ExpectValidSeeds(const std::vector<NodeId>& seeds) {
    std::set<NodeId> unique(seeds.begin(), seeds.end());
    EXPECT_EQ(unique.size(), seeds.size()) << "duplicate seeds";
    for (const NodeId s : seeds) EXPECT_LT(s, graph_.num_nodes());
  }

  Graph graph_;
  InfluenceParams params_;
  InfluenceParams lt_params_;
};

// The pinned determinism contract: per algorithm, per evaluator, for every
// work budget up to completion, the degraded result is either the exact
// seed prefix of the untimed run or the heuristic tier — never anything
// else — and re-running the same budget reproduces it bitwise. The first
// budget that completes is pinned too, so moving a checkpoint cannot
// silently shift where a solve starts to degrade. The hill climbers
// (greedy, the LazyGreedy users, EaSyIM, ASIM) spend one tick before their
// first round and one per later round, so k = 4 completes at 5; the
// sketch cases add the arena build's ticks (one per 4 worlds and lane
// group). static-greedy builds its R = num_snapshots = 100 worlds in two
// lane groups of 64 and 36 lanes: 16 + 9 ticks before its 5.
TEST_F(DeadlineSolveTest, WorkBudgetDegradesToExactPrefixPerAlgorithm) {
  struct Case {
    const char* algorithm;
    SpreadOracle oracle;
    uint64_t first_complete_budget;
    bool lt = false;  // LT weights instead of uniform IC
  };
  const Case cases[] = {
      {"greedy", SpreadOracle::kMonteCarlo, 5},
      {"celf", SpreadOracle::kMonteCarlo, 5},
      {"greedy", SpreadOracle::kSketch, 13},
      {"celf", SpreadOracle::kSketch, 13},
      {"celf++", SpreadOracle::kSketch, 13},
      {"easyim", SpreadOracle::kMonteCarlo, 5},
      {"asim", SpreadOracle::kMonteCarlo, 5},
      {"static-greedy", SpreadOracle::kMonteCarlo, 30},
      {"tim+", SpreadOracle::kMonteCarlo, 101},
      {"imm", SpreadOracle::kMonteCarlo, 50},
      {"simpath", SpreadOracle::kMonteCarlo, 5, /*lt=*/true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.algorithm) +
                 (c.oracle == SpreadOracle::kSketch ? " sketch" : " mc"));
    SolveRequest untimed = BaseRequest(c.algorithm);
    untimed.oracle = c.oracle;
    untimed.num_sketches = 32;
    if (c.lt) untimed.params = &lt_params_;

    HolimEngine reference(graph_);
    auto full = reference.Solve(untimed);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_FALSE(full->degraded);
    ASSERT_EQ(full->tier, ResultTier::kFull);
    if (c.oracle == SpreadOracle::kSketch) {
      // The untimed answer every degraded prefix is held to is itself the
      // one worlds rebuilt from the streams give.
      EXPECT_EQ(full->spread,
                sketch_reference::Reference(graph_, *untimed.params,
                                            untimed.seed, 32)
                    .Estimate(full->seeds));
    }

    bool saw_prefix = false, saw_heuristic = false, completed = false;
    for (uint64_t budget = 1; budget <= 400 && !completed; ++budget) {
      SolveRequest bounded = untimed;
      bounded.work_budget = budget;
      HolimEngine engine(graph_);
      auto result = engine.Solve(bounded);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (!result->degraded) {
        // Budget outlived the solve: the result must be the untimed one.
        EXPECT_EQ(result->tier, ResultTier::kFull);
        EXPECT_EQ(result->seeds, full->seeds);
        EXPECT_EQ(result->seed_scores, full->seed_scores);
        EXPECT_EQ(budget, c.first_complete_budget);
        completed = true;
        continue;
      }
      EXPECT_FALSE(result->degradation_reason.empty());
      if (result->tier == ResultTier::kHeuristic) {
        saw_heuristic = true;
        EXPECT_EQ(result->rounds_completed, 0u);
        EXPECT_FALSE(result->seeds.empty());
        ExpectValidSeeds(result->seeds);
      } else {
        ASSERT_EQ(result->tier, ResultTier::kPrefix);
        saw_prefix = true;
        ASSERT_EQ(result->rounds_completed, result->seeds.size());
        ASSERT_LE(result->seeds.size(), full->seeds.size());
        const std::vector<NodeId> expected(
            full->seeds.begin(),
            full->seeds.begin() + result->seeds.size());
        EXPECT_EQ(result->seeds, expected)
            << "degraded seeds are not the untimed prefix at budget "
            << budget;
      }
      // Bitwise reproducibility: same budget on a fresh engine, same bits.
      HolimEngine replay(graph_);
      auto again = replay.Solve(bounded);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->seeds, result->seeds);
      EXPECT_EQ(again->seed_scores, result->seed_scores);
      EXPECT_EQ(again->tier, result->tier);
      EXPECT_EQ(again->rounds_completed, result->rounds_completed);
      EXPECT_EQ(again->degradation_reason, result->degradation_reason);
    }
    EXPECT_TRUE(completed)
        << c.algorithm << ": no budget up to 400 let the solve finish";
    // Every algorithm must traverse at least one degraded tier on the way
    // up (a case that never degrades is not exercising the ladder).
    EXPECT_TRUE(saw_prefix || saw_heuristic) << c.algorithm;
  }
}

TEST_F(DeadlineSolveTest, ZeroDeadlineRequestIsByteIdenticalToDefault) {
  // deadline_ms = 0 / work_budget = 0 / no token must not perturb results
  // (the request carries no deadline at all).
  SolveRequest plain = BaseRequest("celf");
  plain.oracle = SpreadOracle::kSketch;
  plain.num_sketches = 32;
  SolveRequest zeroed = plain;
  zeroed.deadline_ms = 0.0;
  zeroed.work_budget = 0;
  zeroed.cancel_token = nullptr;
  zeroed.on_deadline = OnDeadline::kDegrade;
  HolimEngine a(graph_), b(graph_);
  auto ra = a.Solve(plain);
  auto rb = b.Solve(zeroed);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->seeds, rb->seeds);
  EXPECT_EQ(ra->seed_scores, rb->seed_scores);
  EXPECT_EQ(ra->spread, rb->spread);
  EXPECT_FALSE(rb->degraded);
}

TEST_F(DeadlineSolveTest, OnDeadlineFailReturnsTypedStatus) {
  SolveRequest request = BaseRequest("greedy");
  request.work_budget = 1;
  request.on_deadline = OnDeadline::kFail;
  HolimEngine engine(graph_);
  auto result = engine.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The engine stays usable: a clean solve afterwards matches a fresh
  // engine's bitwise.
  SolveRequest clean = BaseRequest("greedy");
  auto after = engine.Solve(clean);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  HolimEngine fresh(graph_);
  auto expected = fresh.Solve(clean);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after->seeds, expected->seeds);
  EXPECT_EQ(after->seed_scores, expected->seed_scores);
}

TEST_F(DeadlineSolveTest, PreCancelledTokenDegradesWithCancelledReason) {
  CancelToken token;
  token.Cancel();
  SolveRequest request = BaseRequest("greedy");
  request.cancel_token = &token;
  HolimEngine engine(graph_);
  auto result = engine.Solve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->tier, ResultTier::kHeuristic);
  EXPECT_NE(result->degradation_reason.find("Cancelled"), std::string::npos)
      << result->degradation_reason;
  ExpectValidSeeds(result->seeds);

  request.on_deadline = OnDeadline::kFail;
  auto failed = engine.Solve(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);
}

TEST_F(DeadlineSolveTest, WallClockDeadlineDegradesToValidPrefix) {
  SolveRequest untimed = BaseRequest("greedy");
  HolimEngine reference(graph_);
  auto full = reference.Solve(untimed);
  ASSERT_TRUE(full.ok());

  // 1 ms per clock read against a 5 ms deadline: expiry lands after a
  // handful of checkpoints, wherever they fall — the contract is only
  // that the answer is a valid tier, not which one.
  SteppingClock clock(1'000'000);
  SolveRequest bounded = untimed;
  bounded.deadline_ms = 5.0;
  bounded.clock = &clock;
  HolimEngine engine(graph_);
  auto result = engine.Solve(bounded);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->degraded);
  if (result->tier == ResultTier::kPrefix) {
    ASSERT_LE(result->seeds.size(), full->seeds.size());
    const std::vector<NodeId> expected(
        full->seeds.begin(), full->seeds.begin() + result->seeds.size());
    EXPECT_EQ(result->seeds, expected);
  } else {
    EXPECT_EQ(result->tier, ResultTier::kHeuristic);
    EXPECT_FALSE(result->seeds.empty());
  }
  ExpectValidSeeds(result->seeds);
}

TEST_F(DeadlineSolveTest, InvalidDeadlineMsRejected) {
  SolveRequest request = BaseRequest("greedy");
  request.deadline_ms = -1.0;
  HolimEngine engine(graph_);
  EXPECT_EQ(engine.Solve(request).status().code(),
            StatusCode::kInvalidArgument);
  request.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.Solve(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DeadlineSolveTest, DegradedSolveDoesNotPoisonWarmCache) {
  // A degraded run against a warm cached selector must retire the
  // artifact: the next clean solve matches a fresh engine's bitwise.
  SolveRequest request = BaseRequest("celf");
  request.oracle = SpreadOracle::kSketch;
  request.num_sketches = 32;
  HolimEngine engine(graph_);
  auto cold = engine.Solve(request);
  ASSERT_TRUE(cold.ok());

  SolveRequest bounded = request;
  bounded.work_budget = 40;  // enough to pass artifact build, die mid-select
  auto degraded = engine.Solve(bounded);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  auto warm = engine.Solve(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->seeds, cold->seeds);
  EXPECT_EQ(warm->seed_scores, cold->seed_scores);
  EXPECT_EQ(warm->spread, cold->spread);
  EXPECT_FALSE(warm->degraded);
}

TEST_F(DeadlineSolveTest, HardByteBudgetReturnsResourceExhausted) {
  EngineOptions options;
  options.max_cache_bytes = 1024;  // far below any sketch arena
  options.hard_cache_budget = true;
  HolimEngine engine(graph_, options);
  SolveRequest request = BaseRequest("celf");
  request.oracle = SpreadOracle::kSketch;
  request.num_sketches = 64;
  auto result = engine.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // The engine survives: an artifact-light solve still succeeds.
  SolveRequest light = BaseRequest("degreediscount");
  auto ok = engine.Solve(light);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->seeds.empty());
}

// The given-seed kinds fetch the same arena through the same getter, so
// the hard budget refuses them with the same typed error instead of
// aborting the process.
TEST_F(DeadlineSolveTest, HardByteBudgetRefusesEvaluateAndExplain) {
  EngineOptions options;
  options.max_cache_bytes = 1024;  // far below any sketch arena
  options.hard_cache_budget = true;
  HolimEngine engine(graph_, options);
  for (const QueryKind kind : {QueryKind::kEvaluate, QueryKind::kExplain}) {
    SCOPED_TRACE(QueryKindName(kind));
    SolveRequest request = BaseRequest("celf");
    request.oracle = SpreadOracle::kSketch;
    request.num_sketches = 64;
    request.query = kind;
    request.given_seeds = {0, 1, 2};
    auto result = engine.Solve(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  SolveRequest light = BaseRequest("degreediscount");
  auto ok = engine.Solve(light);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->seeds.empty());
}

}  // namespace
}  // namespace holim
