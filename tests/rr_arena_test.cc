// Tests for the flat-arena RR engine: equivalence with a legacy
// nested-vector reference sampler, bitwise thread-count independence,
// CELF-vs-eager-greedy agreement, and the O(1) edge-source index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/imm.h"
#include "algo/rr_sets.h"
#include "algo/tim_plus.h"
#include "coverage_reference.h"
#include "diffusion/spread_estimator.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "util/thread_pool.h"

namespace holim {
namespace {

using coverage_reference::SelectMaxCoverageRebuild;

// Independent reference implementation of the legacy nested-vector sampler,
// following the RNG-sharding contract documented in rr_sets.h: block b is
// sampled sequentially with Rng(SplitMix64(seed + salt * (b + 1))). It
// pins arena layout, block seeding, widths and the draw order of both
// row samplers.
std::vector<std::vector<NodeId>> ReferenceSample(const Graph& g,
                                                 const InfluenceParams& params,
                                                 std::size_t count,
                                                 uint64_t seed) {
  std::vector<std::vector<NodeId>> sets;
  const bool lt = params.model == DiffusionModel::kLinearThreshold;
  const std::size_t num_blocks =
      (count + RrCollection::kGenerateBlockSize - 1) /
      RrCollection::kGenerateBlockSize;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    uint64_t state = seed + RrCollection::kGenerateSeedSalt * (b + 1);
    Rng rng(Rng::SplitMix64(state));
    const std::size_t lo = b * RrCollection::kGenerateBlockSize;
    const std::size_t n =
        std::min(RrCollection::kGenerateBlockSize, count - lo);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId root = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      std::vector<char> visited(g.num_nodes(), 0);
      std::vector<NodeId> stack{root};
      std::vector<NodeId> rr{root};
      visited[root] = 1;
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        auto in_neighbors = g.InNeighbors(v);
        auto in_edges = g.InEdgeIds(v);
        if (lt) {
          double r = rng.NextDouble();
          for (std::size_t j = 0; j < in_neighbors.size(); ++j) {
            const double w = params.p(in_edges[j]);
            if (r < w) {
              const NodeId u = in_neighbors[j];
              if (!visited[u]) {
                visited[u] = 1;
                stack.push_back(u);
                rr.push_back(u);
              }
              break;
            }
            r -= w;
          }
        } else {
          // Skip-and-thin, in the draw order rr_sets.h documents: the row's
          // max probability q spaces candidates by geometric gaps, and a
          // candidate e survives w.p. p(e)/q.
          double q = 0.0;
          for (const EdgeId e : in_edges) q = std::max(q, params.p(e));
          q = std::min(q, 1.0);
          auto thin = [&](std::size_t j) {
            const NodeId u = in_neighbors[j];
            if (visited[u]) return;
            const double p = params.p(in_edges[j]);
            if (p != q && rng.NextDouble() * q >= p) return;
            visited[u] = 1;
            stack.push_back(u);
            rr.push_back(u);
          };
          const double d = static_cast<double>(in_neighbors.size());
          if (q >= 1.0) {
            for (std::size_t j = 0; j < in_neighbors.size(); ++j) thin(j);
          } else if (q > 0.0) {
            const double log_miss = std::log1p(-q);
            const double inv_log_miss = 1.0 / log_miss;
            const double first = rng.NextDouble();
            if (first > std::exp(log_miss * d)) {
              double pos = std::floor(std::log(first) * inv_log_miss);
              while (pos < d) {
                thin(static_cast<std::size_t>(pos));
                pos += 1.0 +
                       std::floor(std::log(rng.NextDouble()) * inv_log_miss);
              }
            }
          }
        }
      }
      sets.push_back(std::move(rr));
    }
  }
  return sets;
}

void ExpectArenaMatchesReference(const Graph& g, const InfluenceParams& params,
                                 std::size_t count, uint64_t seed) {
  ThreadPool pool(4);
  RrCollection rr(g, params, /*track_widths=*/true);
  rr.GenerateParallel(count, seed, &pool);
  const auto reference = ReferenceSample(g, params, count, seed);
  ASSERT_EQ(rr.num_sets(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto span = rr.set(i);
    ASSERT_EQ(span.size(), reference[i].size()) << "set " << i;
    for (std::size_t j = 0; j < span.size(); ++j) {
      EXPECT_EQ(span[j], reference[i][j]) << "set " << i << " entry " << j;
    }
    uint64_t width = 0;
    for (NodeId u : reference[i]) width += g.InDegree(u);
    EXPECT_EQ(rr.set_width(i), width) << "set " << i;
  }
}

TEST(RrArenaTest, MatchesLegacyNestedVectorSamplerIc) {
  Graph g = GenerateErdosRenyi(150, 5.0, 21).ValueOrDie();
  auto params = MakeUniformIc(g, 0.15);
  ExpectArenaMatchesReference(g, params, 700, 77);
}

TEST(RrArenaTest, MatchesLegacyNestedVectorSamplerWc) {
  Graph g = GenerateBarabasiAlbert(200, 3, 22).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  ExpectArenaMatchesReference(g, params, 600, 78);
}

// Distinct probabilities within a row: candidates below the row's max
// draw a thinning uniform.
TEST(RrArenaTest, MatchesLegacyNestedVectorSamplerTrivalency) {
  Graph g = GenerateBarabasiAlbert(200, 4, 30).ValueOrDie();
  auto params = MakeTrivalency(g, 31, {0.4, 0.1, 0.02});
  ExpectArenaMatchesReference(g, params, 600, 80);
}

TEST(RrArenaTest, MatchesLegacyNestedVectorSamplerLt) {
  Graph g = GenerateBarabasiAlbert(120, 2, 23).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  ExpectArenaMatchesReference(g, params, 600, 79);
}

TEST(RrArenaTest, ParallelOutputIndependentOfThreadCount) {
  Graph g = GenerateErdosRenyi(300, 4.0, 24).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  RrCollection base(g, params);
  {
    ThreadPool one(1);
    base.GenerateParallel(1000, 5, &one);
  }
  for (std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    RrCollection rr(g, params);
    rr.GenerateParallel(1000, 5, &pool);
    ASSERT_EQ(rr.num_sets(), base.num_sets());
    ASSERT_EQ(rr.total_entries(), base.total_entries());
    EXPECT_EQ(rr.total_width(), base.total_width());
    for (std::size_t i = 0; i < rr.num_sets(); ++i) {
      auto a = rr.set(i);
      auto b = base.set(i);
      ASSERT_EQ(a.size(), b.size()) << "set " << i;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "set " << i;
    }
  }
}

TEST(RrArenaTest, IncrementalGenerateParallelAppends) {
  // IMM grows the collection in stages; appended sets must follow the
  // already-stored ones without disturbing them.
  Graph g = GenerateBarabasiAlbert(100, 3, 25).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  ThreadPool pool(3);
  RrCollection rr(g, params);
  rr.GenerateParallel(300, 11, &pool);
  const std::size_t first = rr.num_sets();
  std::vector<std::vector<NodeId>> snapshot;
  for (std::size_t i = 0; i < first; ++i) {
    snapshot.emplace_back(rr.set(i).begin(), rr.set(i).end());
  }
  rr.GenerateParallel(300, 12, &pool);
  EXPECT_EQ(rr.num_sets(), first + 300);
  for (std::size_t i = 0; i < first; ++i) {
    auto span = rr.set(i);
    ASSERT_EQ(span.size(), snapshot[i].size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), snapshot[i].begin()));
  }
}

// Eager reference greedy (the legacy SelectMaxCoverage algorithm): full
// argmax scan per pick with explicit gain decrements.
std::pair<std::vector<NodeId>, double> EagerGreedy(const Graph& g,
                                                   const RrCollection& rr,
                                                   uint32_t k) {
  std::vector<uint32_t> gain(g.num_nodes(), 0);
  for (std::size_t s = 0; s < rr.num_sets(); ++s) {
    for (NodeId u : rr.set(s)) ++gain[u];
  }
  std::vector<char> covered(rr.num_sets(), 0);
  std::vector<NodeId> seeds;
  std::size_t covered_count = 0;
  while (seeds.size() < k) {
    NodeId best = kInvalidNode;
    uint32_t best_gain = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (gain[u] > best_gain) {
        best_gain = gain[u];
        best = u;
      }
    }
    if (best == kInvalidNode) break;
    seeds.push_back(best);
    for (std::size_t s = 0; s < rr.num_sets(); ++s) {
      if (covered[s]) continue;
      bool member = false;
      for (NodeId u : rr.set(s)) {
        if (u == best) {
          member = true;
          break;
        }
      }
      if (!member) continue;
      covered[s] = 1;
      ++covered_count;
      for (NodeId u : rr.set(s)) {
        if (gain[u] > 0) --gain[u];
      }
    }
    gain[best] = 0;
  }
  return {seeds, static_cast<double>(covered_count) / rr.num_sets()};
}

TEST(RrArenaTest, CelfMatchesEagerGreedy) {
  for (uint64_t graph_seed : {31u, 32u, 33u}) {
    Graph g = GenerateBarabasiAlbert(150, 3, graph_seed).ValueOrDie();
    auto params = MakeUniformIc(g, 0.1);
    RrCollection rr(g, params);
    rr.GenerateParallel(2000, graph_seed * 7, nullptr);
    auto coverage = rr.SelectMaxCoverage(8);
    auto [eager_seeds, eager_fraction] = EagerGreedy(g, rr, 8);
    ASSERT_EQ(coverage.seeds.size(), 8u);
    // Lazy and eager greedy agree whenever argmax ties break identically
    // (both prefer the smaller node id); compare the full pick sequence.
    EXPECT_EQ(coverage.seeds, eager_seeds);
    EXPECT_DOUBLE_EQ(coverage.covered_fraction, eager_fraction);
  }
}

TEST(RrArenaTest, IncrementalSelectMatchesFromScratchRebuild) {
  // IMM's usage pattern: append, select, append, select. The incremental
  // index must yield seed sets and covered fractions identical to a
  // from-scratch rebuild, at 1 and 8 threads.
  Graph g = GenerateBarabasiAlbert(300, 3, 26).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  for (std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    RrCollection rr(g, params);
    rr.GenerateParallel(800, 91, &pool);
    auto incremental1 = rr.SelectMaxCoverage(6);
    auto rebuild1 = SelectMaxCoverageRebuild(rr, g.num_nodes(), 6);
    EXPECT_EQ(incremental1.seeds, rebuild1.seeds) << threads << " threads";
    EXPECT_DOUBLE_EQ(incremental1.covered_fraction,
                     rebuild1.covered_fraction);

    rr.GenerateParallel(700, 92, &pool);
    auto incremental2 = rr.SelectMaxCoverage(6);
    auto rebuild2 = SelectMaxCoverageRebuild(rr, g.num_nodes(), 6);
    EXPECT_EQ(incremental2.seeds, rebuild2.seeds) << threads << " threads";
    EXPECT_DOUBLE_EQ(incremental2.covered_fraction,
                     rebuild2.covered_fraction);

    // Paranoia: a collection built from scratch with the same two append
    // calls (identical arena by the RNG-sharding contract) must agree too.
    RrCollection scratch(g, params);
    scratch.GenerateParallel(800, 91, &pool);
    scratch.GenerateParallel(700, 92, &pool);
    auto from_scratch = SelectMaxCoverageRebuild(scratch, g.num_nodes(), 6);
    EXPECT_EQ(incremental2.seeds, from_scratch.seeds);
    EXPECT_DOUBLE_EQ(incremental2.covered_fraction,
                     from_scratch.covered_fraction);
  }
}

TEST(RrArenaTest, ManyTinyAppendsCompactSegmentsAndStayCorrect) {
  // Appends in dribbles push the segment list past kMaxIndexSegments,
  // forcing compaction merges; selection must keep matching the
  // from-scratch rebuild throughout.
  Graph g = GenerateBarabasiAlbert(150, 2, 28).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  RrCollection rr(g, params);
  for (int round = 0; round < 3 * static_cast<int>(
                                  RrCollection::kMaxIndexSegments);
       ++round) {
    rr.GenerateParallel(7, 95 + round);
    if (round % 10 == 9) {
      auto incremental = rr.SelectMaxCoverage(4);
      auto rebuild = SelectMaxCoverageRebuild(rr, g.num_nodes(), 4);
      EXPECT_EQ(incremental.seeds, rebuild.seeds) << "round " << round;
      EXPECT_DOUBLE_EQ(incremental.covered_fraction,
                       rebuild.covered_fraction);
    }
  }
}

TEST(RrArenaTest, ArenaMemoryBelowNestedVectorBaseline) {
  Graph g = GenerateErdosRenyi(400, 5.0, 41).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  RrCollection rr(g, params);
  rr.GenerateParallel(5000, 6, nullptr);
  // Nested-vector floor: one std::vector header per set plus tightly-fitted
  // payload (real allocations were at least this big).
  const std::size_t nested_floor =
      rr.num_sets() * sizeof(std::vector<NodeId>) +
      rr.total_entries() * sizeof(NodeId);
  EXPECT_LT(rr.MemoryBytes(), nested_floor);
}

template <typename Selector, typename Options>
std::vector<NodeId> SelectWithThreads(const Graph& g,
                                      const InfluenceParams& params,
                                      Options options, std::size_t threads,
                                      uint32_t k) {
  ThreadPool pool(threads);
  options.pool = &pool;
  Selector selector(g, params, options);
  return selector.Select(k).ValueOrDie().seeds;
}

TEST(RrArenaTest, TimPlusSeedsIdenticalAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(250, 3, 51).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  TimPlusOptions options;
  options.epsilon = 0.3;
  options.max_theta = 50000;
  const auto one =
      SelectWithThreads<TimPlusSelector>(g, params, options, 1, 5);
  const auto two =
      SelectWithThreads<TimPlusSelector>(g, params, options, 2, 5);
  const auto eight =
      SelectWithThreads<TimPlusSelector>(g, params, options, 8, 5);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(RrArenaTest, ImmSeedsIdenticalAcrossThreadCounts) {
  Graph g = GenerateBarabasiAlbert(250, 3, 52).ValueOrDie();
  auto params = MakeWeightedCascade(g);
  ImmOptions options;
  options.epsilon = 0.3;
  options.max_theta = 50000;
  const auto one = SelectWithThreads<ImmSelector>(g, params, options, 1, 5);
  const auto two = SelectWithThreads<ImmSelector>(g, params, options, 2, 5);
  const auto eight =
      SelectWithThreads<ImmSelector>(g, params, options, 8, 5);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(EdgeSourceIndexTest, MatchesBinarySearchAndCountsMemory) {
  Graph g = GenerateErdosRenyi(200, 6.0, 61).ValueOrDie();
  const std::size_t before = g.MemoryFootprintBytes();
  std::vector<NodeId> expected(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) expected[e] = g.EdgeSource(e);
  ASSERT_FALSE(g.has_edge_source_index());
  g.BuildEdgeSourceIndex();
  ASSERT_TRUE(g.has_edge_source_index());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.EdgeSource(e), expected[e]) << "edge " << e;
  }
  EXPECT_GE(g.MemoryFootprintBytes(),
            before + g.num_edges() * sizeof(NodeId));
  g.BuildEdgeSourceIndex();  // idempotent
  EXPECT_TRUE(g.has_edge_source_index());
}

TEST(SpreadEstimatorShardTest, TinySimulationCountsDoNotFault) {
  // Regression guard for the shard-count clamp in RunSharded: shard count
  // must stay >= 1 even when num_simulations is smaller than the pool.
  Graph g = GenerateErdosRenyi(50, 3.0, 71).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  ThreadPool pool(8);
  McOptions options;
  options.pool = &pool;
  for (uint32_t sims : {0u, 1u, 2u, 7u}) {
    options.num_simulations = sims;
    const double spread = EstimateSpread(g, params, {0}, options);
    EXPECT_GE(spread, 0.0);
  }
}

}  // namespace
}  // namespace holim
