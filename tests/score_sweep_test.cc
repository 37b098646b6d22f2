// Coverage for the shared score-sweep kernel (algo/score_sweep.h) under its
// three policies (EaSyIM, OSIM, ASIM): bitwise thread-count determinism of
// the parallel sweeps, exact equivalence of the dirty-frontier incremental
// rescore against the full-recompute oracle, and the lazy O(l n) memory
// contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "algo/asim.h"
#include "algo/easyim.h"
#include "algo/osim.h"
#include "algo/score_greedy.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/thread_pool.h"

namespace holim {
namespace {

EpochSet MakeExcluded(NodeId n, const std::vector<NodeId>& members) {
  EpochSet excluded(n);
  excluded.Reset(n);
  for (NodeId u : members) excluded.Insert(u);
  return excluded;
}

TEST(ParallelForBlocksTest, FixedPartitionIndependentOfThreadCount) {
  // The block boundaries must depend only on block_size, never the pool.
  for (std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(5);
    std::atomic<std::size_t> covered{0};
    pool.ParallelForBlocks(10, 3, [&](std::size_t lo, std::size_t hi) {
      ranges[lo / 3] = {lo, hi};
      covered += hi - lo;
    });
    EXPECT_EQ(covered.load(), 10u);
    EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 3}));
    EXPECT_EQ(ranges[1], (std::pair<std::size_t, std::size_t>{3, 6}));
    EXPECT_EQ(ranges[2], (std::pair<std::size_t, std::size_t>{6, 9}));
    EXPECT_EQ(ranges[3], (std::pair<std::size_t, std::size_t>{9, 10}));
  }
}

// A scorer's sharded sweep at 1, 2 and 8 threads must equal its serial
// sweep bit for bit. `make` builds a fresh scorer per thread count.
template <typename MakeScorer>
void CheckDeterministicAcrossThreadCounts(const Graph& g,
                                          const EpochSet& excluded,
                                          const MakeScorer& make) {
  std::vector<double> reference;
  make().AssignScores(excluded, &reference);
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto scorer = make();
    std::vector<double> scores;
    scorer.AssignScores(excluded, &scores, &pool);
    ASSERT_EQ(scores.size(), reference.size());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(scores[u], reference[u]) << "node " << u << " threads "
                                         << threads;
    }
  }
}

TEST(ScoreSweepTest, EasyImBitwiseDeterministicAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(3000, 4, 21).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  EpochSet excluded = MakeExcluded(g.num_nodes(), {7, 42, 1000});
  CheckDeterministicAcrossThreadCounts(
      g, excluded, [&] { return EasyImScorer(g, params, 4); });
}

TEST(ScoreSweepTest, OsimBitwiseDeterministicAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(3000, 4, 22).ValueOrDie();
  auto influence = MakeUniformIc(g, 0.1);
  auto opinions = MakeRandomOpinions(g, OpinionDistribution::kStandardNormal, 9);
  EpochSet excluded = MakeExcluded(g.num_nodes(), {0, 99, 2500});
  CheckDeterministicAcrossThreadCounts(
      g, excluded, [&] { return OsimScorer(g, influence, opinions, 4); });
}

TEST(ScoreSweepTest, AsimBitwiseDeterministicAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(3000, 4, 21).ValueOrDie();
  EpochSet excluded = MakeExcluded(g.num_nodes(), {7, 42, 1000});
  AsimOptions options;
  options.l = 4;
  CheckDeterministicAcrossThreadCounts(
      g, excluded, [&] { return AsimScorer(g, options); });
}

// Grows an exclusion set node by node; after every step the incremental
// rescore must match a from-scratch full recompute bit for bit.
template <typename Scorer>
void CheckIncrementalMatchesFull(const Graph& g, Scorer& incremental,
                                 Scorer& oracle,
                                 const std::vector<NodeId>& picks,
                                 ThreadPool* pool) {
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> inc_scores, full_scores;
  incremental.AssignScoresIncremental(excluded, nullptr, &inc_scores, pool);
  oracle.AssignScores(excluded, &full_scores);
  ASSERT_EQ(inc_scores, full_scores) << "initial full build diverged";
  std::vector<NodeId> newly;
  for (NodeId pick : picks) {
    newly = {pick};
    excluded.Insert(pick);
    incremental.AssignScoresIncremental(excluded, &newly, &inc_scores, pool);
    oracle.AssignScores(excluded, &full_scores);
    ASSERT_EQ(inc_scores.size(), full_scores.size());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(inc_scores[u], full_scores[u])
          << "node " << u << " after excluding " << pick;
    }
  }
}

TEST(ScoreSweepTest, EasyImIncrementalMatchesFullRecomputeIcAndWc) {
  Graph g = GenerateBarabasiAlbert(1200, 4, 23).ValueOrDie();
  const std::vector<NodeId> picks = {0, 1, 5, 17, 100, 600, 1199};
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    {
      auto params = MakeUniformIc(g, 0.1);
      EasyImScorer inc(g, params, 3), oracle(g, params, 3);
      CheckIncrementalMatchesFull(g, inc, oracle, picks, &pool);
    }
    {
      auto params = MakeWeightedCascade(g);
      EasyImScorer inc(g, params, 3), oracle(g, params, 3);
      CheckIncrementalMatchesFull(g, inc, oracle, picks, &pool);
    }
  }
}

TEST(ScoreSweepTest, OsimIncrementalMatchesFullRecomputeOi) {
  Graph g = GenerateBarabasiAlbert(1200, 4, 24).ValueOrDie();
  auto influence = MakeUniformIc(g, 0.1);
  auto opinions = MakeRandomOpinions(g, OpinionDistribution::kUniform, 31);
  const std::vector<NodeId> picks = {3, 8, 44, 250, 900};
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    OsimScorer inc(g, influence, opinions, 3),
        oracle(g, influence, opinions, 3);
    CheckIncrementalMatchesFull(g, inc, oracle, picks, &pool);
  }
}

TEST(ScoreSweepTest, AsimIncrementalMatchesFullRecompute) {
  const Graph ba = GenerateBarabasiAlbert(1200, 4, 23).ValueOrDie();
  const Graph er = GenerateErdosRenyi(1200, 4.0, 23).ValueOrDie();
  const std::vector<NodeId> picks = {0, 1, 5, 17, 100, 600, 1199};
  ThreadPool pool(4);
  for (const Graph* g : {&ba, &er}) {
    for (double damping : {0.1, 0.5}) {
      AsimOptions options;
      options.damping = damping;
      AsimScorer inc(*g, options), oracle(*g, options);
      CheckIncrementalMatchesFull(*g, inc, oracle, picks, &pool);
    }
  }
}

TEST(ScoreSweepTest, IncrementalBatchExclusionsMatchFull) {
  // Multi-node deltas (what MC-majority activation produces) in one step.
  Graph g = GenerateBarabasiAlbert(800, 3, 25).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  EasyImScorer inc(g, params, 3), oracle(g, params, 3);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> inc_scores, full_scores;
  inc.AssignScoresIncremental(excluded, nullptr, &inc_scores, nullptr);
  const std::vector<std::vector<NodeId>> batches = {
      {2, 3, 4, 5}, {100, 101, 102, 400, 401}, {700}};
  for (const auto& batch : batches) {
    for (NodeId u : batch) excluded.Insert(u);
    inc.AssignScoresIncremental(excluded, &batch, &inc_scores, nullptr);
    oracle.AssignScores(excluded, &full_scores);
    ASSERT_EQ(inc_scores, full_scores);
  }
}

// Full k-seed greedy runs: the incremental path must reproduce the oracle
// path's seed set, scores, and order exactly.
template <typename MakeSelector>
void CheckGreedyEquivalence(const MakeSelector& make, uint32_t k) {
  ScoreGreedyOptions full_options;
  full_options.incremental_rescore = false;
  ScoreGreedyOptions inc_options;
  inc_options.incremental_rescore = true;
  auto full = make(full_options)->Select(k);
  auto inc = make(inc_options)->Select(k);
  ASSERT_TRUE(full.ok() && inc.ok());
  EXPECT_EQ(full->seeds, inc->seeds);
  ASSERT_EQ(full->seed_scores.size(), inc->seed_scores.size());
  for (std::size_t i = 0; i < full->seed_scores.size(); ++i) {
    EXPECT_EQ(full->seed_scores[i], inc->seed_scores[i]) << "round " << i;
  }
}

TEST(ScoreSweepTest, EasyImGreedyRunEquivalentIc) {
  Graph g = GenerateBarabasiAlbert(500, 3, 26).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  CheckGreedyEquivalence(
      [&](const ScoreGreedyOptions& options) {
        return std::make_unique<EasyImSelector>(g, params, 3, options);
      },
      15);
}

TEST(ScoreSweepTest, EasyImGreedyRunEquivalentWc) {
  Graph g = GenerateBarabasiAlbert(500, 3, 27).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  CheckGreedyEquivalence(
      [&](const ScoreGreedyOptions& options) {
        return std::make_unique<EasyImSelector>(g, params, 3, options);
      },
      15);
}

TEST(ScoreSweepTest, OsimGreedyRunEquivalentOi) {
  Graph g = GenerateBarabasiAlbert(500, 3, 28).ValueOrDie();
  auto influence = MakeUniformIc(g, 0.1);
  auto opinions = MakeRandomOpinions(g, OpinionDistribution::kStandardNormal, 5);
  CheckGreedyEquivalence(
      [&](const ScoreGreedyOptions& options) {
        return std::make_unique<OsimSelector>(
            g, influence, opinions, OiBase::kIndependentCascade, 3, options);
      },
      12);
}

TEST(ScoreSweepTest, AsimGreedyRunEquivalent) {
  Graph g = GenerateBarabasiAlbert(500, 3, 26).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  CheckGreedyEquivalence(
      [&](const ScoreGreedyOptions& options) {
        return std::make_unique<AsimSelector>(g, params, AsimOptions{},
                                              options);
      },
      15);
}

TEST(ScoreSweepTest, GreedyEquivalentThroughSaturationFallback) {
  // p = 1 chain: the first pick saturates V(a), forcing the driver through
  // the seed_set fallback, which breaks the delta sequence — the
  // incremental assigner must full-rebuild and still match.
  Graph g = GeneratePath(10).ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  CheckGreedyEquivalence(
      [&](const ScoreGreedyOptions& options) {
        ScoreGreedyOptions o = options;
        o.activation = ActivationStrategy::kMonteCarloMajority;
        o.mc_rounds = 4;
        return std::make_unique<EasyImSelector>(g, params, 9, o);
      },
      4);
}

TEST(ScoreSweepTest, IncrementalDoesLessNodeWorkThanFull) {
  Graph g = GenerateBarabasiAlbert(20000, 4, 29).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  EasyImScorer scorer(g, params, 3);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> scores;
  scorer.AssignScoresIncremental(excluded, nullptr, &scores, nullptr);
  const uint64_t full_pass_nodes = scorer.stats().nodes_full;
  std::vector<NodeId> newly = {12345};
  excluded.Insert(12345);
  scorer.AssignScoresIncremental(excluded, &newly, &scores, nullptr);
  EXPECT_EQ(scorer.stats().incremental_sweeps, 1u);
  EXPECT_LT(scorer.stats().nodes_incremental, full_pass_nodes / 2)
      << "dirty-frontier rescore touched most of the graph";
}

TEST(ScoreSweepTest, HubFallbackRebuildsExactlyAndStateStaysConsistent) {
  // Excluding the biggest hub of a scale-free graph dirties a frontier that
  // blows past an aggressive fallback fraction: the rescore must abandon
  // frontier bookkeeping (fallback_sweeps counts it, and it books a full
  // sweep instead of an incremental one) while staying bitwise identical to
  // the full-recompute oracle. The rebuild must also leave the level table
  // consistent: a later exclusion with the fallback disabled has to take
  // the genuine incremental path and still match the oracle exactly.
  Graph g = GenerateBarabasiAlbert(4000, 4, 33).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  NodeId hub = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.InNeighbors(u).size() > g.InNeighbors(hub).size()) hub = u;
  }
  ASSERT_GT(g.InNeighbors(hub).size(), 40u) << "graph grew no hub";

  EasyImScorer falling(g, params, 3), inc_only(g, params, 3),
      oracle(g, params, 3);
  falling.set_incremental_fallback_fraction(0.01);
  inc_only.set_incremental_fallback_fraction(2.0);  // disabled

  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> fall_scores, inc_scores, full_scores;
  falling.AssignScoresIncremental(excluded, nullptr, &fall_scores, nullptr);
  inc_only.AssignScoresIncremental(excluded, nullptr, &inc_scores, nullptr);

  std::vector<NodeId> newly = {hub};
  excluded.Insert(hub);
  falling.AssignScoresIncremental(excluded, &newly, &fall_scores, nullptr);
  inc_only.AssignScoresIncremental(excluded, &newly, &inc_scores, nullptr);
  oracle.AssignScores(excluded, &full_scores);
  EXPECT_EQ(fall_scores, full_scores);
  EXPECT_EQ(inc_scores, full_scores);
  EXPECT_EQ(falling.stats().fallback_sweeps, 1u);
  EXPECT_EQ(falling.stats().incremental_sweeps, 0u);
  EXPECT_EQ(falling.stats().full_sweeps, 2u);  // initial build + fallback
  EXPECT_EQ(inc_only.stats().fallback_sweeps, 0u);
  EXPECT_EQ(inc_only.stats().incremental_sweeps, 1u);

  // Disable the fallback and keep excluding: the pass after a fallback
  // rebuild must run incrementally off the rebuilt levels, bit for bit.
  falling.set_incremental_fallback_fraction(2.0);
  newly = {hub == 0 ? NodeId{1} : NodeId{0}};
  excluded.Insert(newly[0]);
  falling.AssignScoresIncremental(excluded, &newly, &fall_scores, nullptr);
  oracle.AssignScores(excluded, &full_scores);
  EXPECT_EQ(fall_scores, full_scores);
  EXPECT_EQ(falling.stats().fallback_sweeps, 1u);
  EXPECT_EQ(falling.stats().incremental_sweeps, 1u);
}

TEST(ScoreSweepTest, GreedyEquivalentAcrossFallbackFractions) {
  // End-to-end BA-graph regression for the hub-aware fallback: a greedy run
  // that falls back (aggressive fraction), one that never can (>= 1), and
  // the full-recompute oracle must all pick identical seeds and scores.
  Graph g = GenerateBarabasiAlbert(500, 3, 34).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  auto run = [&](bool incremental, double fraction, uint64_t* fallbacks) {
    ScoreGreedyOptions options;
    options.incremental_rescore = incremental;
    options.rescore_fallback_fraction = fraction;
    EasyImSelector selector(g, params, 3, options);
    auto selection = selector.Select(12).ValueOrDie();
    if (fallbacks != nullptr) {
      *fallbacks = selector.scorer().stats().fallback_sweeps;
    }
    return selection;
  };
  uint64_t aggressive_fallbacks = 0, disabled_fallbacks = 0;
  auto full = run(false, 0.25, nullptr);
  auto falling = run(true, 0.01, &aggressive_fallbacks);
  auto inc_only = run(true, 2.0, &disabled_fallbacks);
  EXPECT_EQ(full.seeds, falling.seeds);
  EXPECT_EQ(full.seeds, inc_only.seeds);
  EXPECT_EQ(full.seed_scores, falling.seed_scores);
  EXPECT_EQ(full.seed_scores, inc_only.seed_scores);
  EXPECT_GE(aggressive_fallbacks, 1u)
      << "hub exclusions never tripped the aggressive fallback";
  EXPECT_EQ(disabled_fallbacks, 0u);
}

NodeId BiggestHub(const Graph& g) {
  NodeId hub = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.InNeighbors(u).size() > g.InNeighbors(hub).size()) hub = u;
  }
  return hub;
}

// Excludes `hub` after the initial leveled build with the fallback set to
// `fraction`, which must trip at `fallback_level`; then excludes one more
// node with the fallback disabled.
template <typename Scorer>
void CheckLevelGranularFallback(const Graph& g, NodeId hub, Scorer& scorer,
                                Scorer& oracle, double fraction,
                                uint32_t fallback_level) {
  const uint64_t n = g.num_nodes();
  const uint32_t l = scorer.path_length();
  EpochSet excluded = MakeExcluded(g.num_nodes(), {});
  std::vector<double> scores, full_scores;
  scorer.set_incremental_fallback_fraction(fraction);
  scorer.AssignScoresIncremental(excluded, nullptr, &scores, nullptr);
  const ScoreSweepStats before = scorer.stats();

  std::vector<NodeId> newly = {hub};
  excluded.Insert(hub);
  scorer.AssignScoresIncremental(excluded, &newly, &scores, nullptr);
  oracle.AssignScores(excluded, &full_scores);
  EXPECT_EQ(scores, full_scores);
  const ScoreSweepStats fallen = scorer.stats();
  EXPECT_EQ(fallen.fallback_sweeps, before.fallback_sweeps + 1);
  EXPECT_EQ(fallen.full_sweeps, before.full_sweeps + 1);
  EXPECT_EQ(fallen.incremental_sweeps, before.incremental_sweeps);
  // Levels 1..fallback_level-1 were already exact: only the rest are
  // recomputed, a whole pass of n nodes each.
  EXPECT_EQ(fallen.nodes_full - before.nodes_full,
            (l - fallback_level + 1) * n);

  // The rebuilt table must carry a genuine incremental pass, bit for bit.
  scorer.set_incremental_fallback_fraction(2.0);
  newly = {hub == 0 ? NodeId{1} : NodeId{0}};
  excluded.Insert(newly[0]);
  scorer.AssignScoresIncremental(excluded, &newly, &scores, nullptr);
  oracle.AssignScores(excluded, &full_scores);
  EXPECT_EQ(scores, full_scores);
  EXPECT_EQ(scorer.stats().incremental_sweeps, fallen.incremental_sweeps + 1);
  EXPECT_EQ(scorer.stats().fallback_sweeps, fallen.fallback_sweeps);
  EXPECT_EQ(scorer.stats().nodes_full, fallen.nodes_full);
}

TEST(ScoreSweepTest, HubFallbackRecomputesOnlyTheLevelsItCouldNotCover) {
  // Excluding the hub of this graph (in-degree 222) dirties 223 of its
  // 4000 nodes at level 1, up to 2350 (its 2-hop reverse neighbourhood) at
  // level 2 and up to 3997 at level 3. So a fallback fraction of 0.3
  // trips at level 2, and one of 0.8 at level 3.
  Graph g = GenerateBarabasiAlbert(4000, 4, 33).ValueOrDie();
  const NodeId hub = BiggestHub(g);
  ASSERT_EQ(g.InNeighbors(hub).size(), 222u) << "BA generator changed";
  auto wc = MakeWeightedCascade(g);
  auto lt = MakeLinearThreshold(g);
  auto opinions =
      MakeRandomOpinions(g, OpinionDistribution::kStandardNormal, 35);
  for (const auto& [fraction, level] :
       {std::pair{0.3, 2u}, std::pair{0.8, 3u}}) {
    SCOPED_TRACE("fraction " + std::to_string(fraction));
    EasyImScorer easyim(g, wc, 3), easyim_oracle(g, wc, 3);
    CheckLevelGranularFallback(g, hub, easyim, easyim_oracle, fraction,
                               level);
    OsimScorer osim(g, lt, opinions, 3), osim_oracle(g, lt, opinions, 3);
    CheckLevelGranularFallback(g, hub, osim, osim_oracle, fraction, level);
  }
}

TEST(ScoreSweepTest, OsimLtGreedyEquivalentAcrossFallbackFractions) {
  // OSIM under LT at k = 25, where MC-majority activation dirties most of
  // the graph and most rounds fall back past level 1: the full-recompute
  // oracle and every fallback fraction must pick identical seeds and
  // scores.
  Graph g = GenerateBarabasiAlbert(500, 3, 36).ValueOrDie();
  auto lt = MakeLinearThreshold(g);
  auto opinions =
      MakeRandomOpinions(g, OpinionDistribution::kStandardNormal, 37);
  auto run = [&](bool incremental, double fraction) {
    ScoreGreedyOptions options;
    options.incremental_rescore = incremental;
    options.rescore_fallback_fraction = fraction;
    OsimSelector selector(g, lt, opinions, OiBase::kLinearThreshold, 3,
                          options);
    auto selection = selector.Select(25).ValueOrDie();
    return std::pair{selection, selector.scorer().stats()};
  };
  const auto [full, full_stats] = run(false, 0.25);
  for (double fraction : {0.01, 0.25, 2.0}) {
    SCOPED_TRACE("fraction " + std::to_string(fraction));
    const auto [inc, stats] = run(true, fraction);
    EXPECT_EQ(full.seeds, inc.seeds);
    EXPECT_EQ(full.seed_scores, inc.seed_scores);
    if (fraction == 0.25) {
      EXPECT_GT(stats.fallback_sweeps, 12u) << "most rounds should fall back";
      // At least one fallback kept some exact levels.
      EXPECT_LT(stats.nodes_full, 3u * g.num_nodes() * stats.full_sweeps);
    }
    if (fraction == 2.0) {
      EXPECT_EQ(stats.fallback_sweeps, 0u);
    }
  }
}

TEST(ScoreSweepTest, LevelStateAllocatedLazily) {
  Graph g = GenerateBarabasiAlbert(5000, 3, 30).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  EasyImScorer scorer(g, params, 3);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> scores;
  scorer.AssignScores(excluded, &scores);
  // Oracle path keeps the paper's O(n) contract: two rolling buffers only.
  EXPECT_LE(scorer.ScratchBytes(),
            2u * sizeof(double) * (g.num_nodes() + 16));
  EXPECT_EQ(scorer.stats().level_bytes, 0u);
  // First incremental use allocates the (l+1)-level table.
  scorer.AssignScoresIncremental(excluded, nullptr, &scores, nullptr);
  EXPECT_GE(scorer.stats().level_bytes,
            4u * sizeof(double) * g.num_nodes());
}

}  // namespace
}  // namespace holim
