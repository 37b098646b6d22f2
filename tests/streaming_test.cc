#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "engine/holim_engine.h"
#include "engine/workspace.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "sketch_reference.h"
#include "util/rng.h"

namespace holim {
namespace {

SketchOptions Opts(uint32_t snapshots, uint64_t seed = 7,
                   bool record_edge_offsets = false) {
  SketchOptions options;
  options.num_snapshots = snapshots;
  options.seed = seed;
  options.record_edge_offsets = record_edge_offsets;
  return options;
}

Graph TestGraph(NodeId n = 200, uint64_t seed = 3) {
  return GenerateErdosRenyi(n, 6.0, seed).ValueOrDie();
}

// Naive reference semantics of a delta: replay ops in order (last wins)
// over an explicit (src, dst) -> p edge map.
std::map<std::pair<NodeId, NodeId>, double> EdgeMap(
    const Graph& graph, const InfluenceParams& params) {
  std::map<std::pair<NodeId, NodeId>, double> edges;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto row = graph.OutNeighbors(u);
    const EdgeId base = graph.OutEdgeBegin(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      edges[{u, row[i]}] = params.p(base + i);
    }
  }
  return edges;
}

void ReplayNaive(std::map<std::pair<NodeId, NodeId>, double>& edges,
                 const GraphDelta& delta) {
  for (const GraphDeltaOp& op : delta.ops) {
    if (op.kind == GraphDeltaOp::Kind::kUpsert) {
      edges[{op.src, op.dst}] = op.probability;
    } else {
      edges.erase({op.src, op.dst});
    }
  }
}

void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.OutEdgeBegin(u), b.OutEdgeBegin(u)) << "node " << u;
    const auto ra = a.OutNeighbors(u);
    const auto rb = b.OutNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(ra.begin(), ra.end()),
              std::vector<NodeId>(rb.begin(), rb.end()))
        << "node " << u;
    const auto ia = a.InNeighbors(u);
    const auto ib = b.InNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(ia.begin(), ia.end()),
              std::vector<NodeId>(ib.begin(), ib.end()))
        << "node " << u;
    const auto ea = a.InEdgeIds(u);
    const auto eb = b.InEdgeIds(u);
    ASSERT_EQ(std::vector<EdgeId>(ea.begin(), ea.end()),
              std::vector<EdgeId>(eb.begin(), eb.end()))
        << "node " << u;
  }
}

// ---------------------------------------------------------------------------
// GraphDelta materialization
// ---------------------------------------------------------------------------

TEST(GraphDeltaTest, MaterializationMatchesGraphBuilderRebuild) {
  const Graph base = TestGraph();
  auto params = MakeUniformIc(base, 0.1);
  Rng rng(11);
  std::map<std::pair<NodeId, NodeId>, double> edges = EdgeMap(base, params);

  const GraphDelta delta = MakeRandomDelta(base, 80, rng);
  auto resolved = ResolveDelta(base, delta);
  ASSERT_TRUE(resolved.ok()) << resolved.status().message();
  auto next = ApplyDeltaToGraph(base, *resolved);
  ASSERT_TRUE(next.ok()) << next.status().message();
  auto next_params = ApplyDeltaToParams(base, params, *next, *resolved);
  ASSERT_TRUE(next_params.ok()) << next_params.status().message();

  // Reference: naive op replay into an edge map, rebuilt via GraphBuilder.
  ReplayNaive(edges, delta);
  NodeId n = base.num_nodes();
  for (const auto& [edge, p] : edges) {
    n = std::max(n, std::max(edge.first, edge.second) + 1);
  }
  GraphBuilder builder(n);
  for (const auto& [edge, p] : edges) {
    builder.AddEdge(edge.first, edge.second);
  }
  Graph expected = std::move(builder).Build().ValueOrDie();
  ExpectGraphsEqual(*next, expected);

  // Params remap: edge (u, v) keeps / takes exactly the map's probability.
  ASSERT_EQ(next_params->probability.size(), next->num_edges());
  for (NodeId u = 0; u < next->num_nodes(); ++u) {
    const auto row = next->OutNeighbors(u);
    const EdgeId base_id = next->OutEdgeBegin(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(next_params->p(base_id + i), edges.at({u, row[i]}))
          << "edge " << u << "->" << row[i];
    }
  }
}

TEST(GraphDeltaTest, ResolveClassifiesAndNormalizes) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = std::move(b).Build().ValueOrDie();

  GraphDelta delta;
  delta.Upsert(0, 1, 0.5);   // reweight
  delta.Upsert(2, 3, 0.2);   // insert
  delta.Remove(1, 2);        // remove existing
  delta.Remove(3, 0);        // remove absent -> dropped
  delta.Upsert(2, 3, 0.3);   // last-wins over the earlier upsert
  auto resolved = ResolveDelta(g, delta);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->num_inserted, 1u);
  EXPECT_EQ(resolved->num_reweighted, 1u);
  ASSERT_EQ(resolved->removes.size(), 1u);
  EXPECT_EQ(resolved->removes[0].src, 1u);
  ASSERT_EQ(resolved->upserts.size(), 2u);
  EXPECT_EQ(resolved->upserts[1].probability, 0.3);
  EXPECT_EQ(resolved->new_num_nodes, 4u);
}

TEST(GraphDeltaTest, RejectsSelfLoopsAndBadProbabilities) {
  const Graph g = TestGraph(10);
  {
    GraphDelta delta;
    delta.Upsert(3, 3, 0.1);
    EXPECT_FALSE(ResolveDelta(g, delta).ok());
  }
  {
    GraphDelta delta;
    delta.Upsert(0, 1, 1.5);
    EXPECT_FALSE(ResolveDelta(g, delta).ok());
  }
  {
    GraphDelta delta;
    delta.Upsert(0, 1, std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(ResolveDelta(g, delta).ok());
  }
}

TEST(GraphDeltaTest, StreamingGraphEpochChain) {
  const Graph base = TestGraph(50, 9);
  StreamingGraph streaming(base);
  EXPECT_EQ(streaming.epoch(), 0u);
  EXPECT_EQ(&streaming.graph(), &base);

  GraphDelta empty;
  ASSERT_TRUE(streaming.Apply(empty).ok());
  EXPECT_EQ(streaming.epoch(), 0u);  // no-op deltas do not bump the epoch

  GraphDelta delta;
  delta.Upsert(0, 49, 0.15);
  auto resolved = streaming.Apply(delta);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(streaming.epoch(), 1u);
  EXPECT_EQ(&streaming.previous(), &base);
  EXPECT_EQ(streaming.graph().num_edges(), base.num_edges() + 1);
  const auto row = streaming.graph().OutNeighbors(0);
  EXPECT_NE(std::find(row.begin(), row.end(), 49), row.end());
}

// ---------------------------------------------------------------------------
// SketchOracle::ApplyDelta — incremental == cold rebuild, bitwise
// ---------------------------------------------------------------------------

enum class BatchShape { kInsertOnly, kDeleteOnly, kMixed };

GraphDelta MakeShapedDelta(const Graph& graph, BatchShape shape, Rng& rng) {
  if (shape == BatchShape::kMixed) return MakeRandomDelta(graph, 40, rng);
  GraphDelta delta;
  const NodeId n = graph.num_nodes();
  for (int i = 0; i < 30; ++i) {
    if (shape == BatchShape::kInsertOnly) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) v = (v + 1) % n;
      delta.Upsert(u, v, rng.Uniform(0.05, 0.2));
    } else {
      const EdgeId e = rng.NextBounded(graph.num_edges());
      delta.Remove(graph.EdgeSource(e), graph.EdgeTarget(e));
    }
  }
  return delta;
}

// Patched == cold lane row for lane row (ArenaBytes included), and both
// match the worlds rebuilt from the mutated graph's streams — every call
// site samples with Opts' default seed 7.
void ExpectOraclesBitwiseEqual(const SketchOracle& patched,
                               const SketchOracle& cold, NodeId n) {
  ASSERT_EQ(patched.num_snapshots(), cold.num_snapshots());
  EXPECT_TRUE(sketch_reference::SameLaneArena(patched, cold));
  const sketch_reference::Reference reference(cold.graph(), cold.params(),
                                              /*seed=*/7,
                                              cold.num_snapshots());
  const bool offsets = cold.LaneTargets(0, 0).edge_offsets != nullptr;
  EXPECT_TRUE(reference.MatchesLaneArena(patched, offsets));
  Rng seed_rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<NodeId> seeds;
    for (int i = 0; i < 5; ++i) {
      seeds.push_back(static_cast<NodeId>(seed_rng.NextBounded(n)));
    }
    EXPECT_EQ(patched.Estimate(seeds), cold.Estimate(seeds));
    EXPECT_EQ(patched.Estimate(seeds), reference.Estimate(seeds));
  }
}

class SketchDeltaTest
    : public ::testing::TestWithParam<std::tuple<int, BatchShape>> {};

TEST_P(SketchDeltaTest, IncrementalEqualsColdRebuild) {
  const auto [model_index, shape] = GetParam();
  const Graph base = TestGraph();
  InfluenceParams params;
  switch (model_index) {
    case 0: params = MakeUniformIc(base, 0.08); break;
    case 1: params = MakeWeightedCascade(base); break;
    default: params = MakeLinearThreshold(base); break;
  }

  StreamingGraph streaming(base);
  SketchOracle patched(streaming.graph(), params, Opts(96));
  Rng rng(123 + model_index);
  for (int step = 0; step < 3; ++step) {
    const GraphDelta delta = MakeShapedDelta(streaming.graph(), shape, rng);
    auto resolved = ResolveDelta(streaming.graph(), delta);
    ASSERT_TRUE(resolved.ok()) << resolved.status().message();
    ASSERT_TRUE(streaming.ApplyResolved(*resolved).ok());
    auto next_params = ApplyDeltaToParams(streaming.previous(), params,
                                          streaming.graph(), *resolved);
    ASSERT_TRUE(next_params.ok()) << next_params.status().message();
    params = std::move(*next_params);

    const Status patched_status = patched.ApplyDelta(streaming.graph(), params);
    ASSERT_TRUE(patched_status.ok()) << patched_status.message();
    const SketchOracle cold(streaming.graph(), params, Opts(96));
    ExpectOraclesBitwiseEqual(patched, cold, streaming.graph().num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllShapes, SketchDeltaTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(BatchShape::kInsertOnly,
                                         BatchShape::kDeleteOnly,
                                         BatchShape::kMixed)));

TEST(SketchDeltaTest, RecordedEdgeOffsetsSurvivePatch) {
  const Graph base = TestGraph(120, 5);
  InfluenceParams params = MakeUniformIc(base, 0.1);
  StreamingGraph streaming(base);
  SketchOracle patched(base, params, Opts(64, 7, /*record_edge_offsets=*/true));
  Rng rng(42);
  const GraphDelta delta = MakeRandomDelta(base, 50, rng);
  auto resolved = ResolveDelta(base, delta);
  ASSERT_TRUE(resolved.ok());
  ASSERT_TRUE(streaming.ApplyResolved(*resolved).ok());
  auto next_params = ApplyDeltaToParams(base, params, streaming.graph(),
                                        *resolved);
  ASSERT_TRUE(next_params.ok());
  ASSERT_TRUE(patched.ApplyDelta(streaming.graph(), *next_params).ok());
  const SketchOracle cold(streaming.graph(), *next_params,
                          Opts(64, 7, /*record_edge_offsets=*/true));
  ExpectOraclesBitwiseEqual(patched, cold, streaming.graph().num_nodes());
}

TEST(SketchDeltaTest, RejectsModelChangeAndSizeMismatch) {
  const Graph base = TestGraph(50, 2);
  const auto ic = MakeUniformIc(base, 0.1);
  SketchOracle oracle(base, ic, Opts(32));
  const auto lt = MakeLinearThreshold(base);
  EXPECT_FALSE(oracle.ApplyDelta(base, lt).ok());
  InfluenceParams short_params = ic;
  short_params.probability.pop_back();
  EXPECT_FALSE(oracle.ApplyDelta(base, short_params).ok());
  // The failed calls left the oracle untouched.
  const SketchOracle cold(base, ic, Opts(32));
  ExpectOraclesBitwiseEqual(oracle, cold, base.num_nodes());
}

// ---------------------------------------------------------------------------
// Workspace::ApplyGraphDelta: patch the matching arenas, evict the rest
// ---------------------------------------------------------------------------

TEST(WorkspaceDeltaTest, ApplyGraphDeltaPatchesMatchingSketchesOnly) {
  const Graph base = TestGraph(80, 6);
  const auto params = MakeUniformIc(base, 0.1);
  const auto other = MakeUniformIc(base, 0.2);
  const uint64_t fp = FingerprintParams(params);
  const SketchKey seed1{.params_fp = fp, .snapshots = 32, .seed = 1};
  const SketchKey seed2{.params_fp = fp, .snapshots = 32, .seed = 2};
  Workspace workspace;
  ASSERT_TRUE(workspace.GetSketchOracle(base, params, seed1).ok());
  // Second seed, then another fingerprint.
  ASSERT_TRUE(workspace.GetSketchOracle(base, params, seed2).ok());
  ASSERT_TRUE(workspace
                  .GetSketchOracle(base, other,
                                   {.params_fp = FingerprintParams(other),
                                    .snapshots = 32,
                                    .seed = 1})
                  .ok());
  ASSERT_EQ(workspace.num_artifacts(), 3u);

  // A no-op patch (same graph) re-filed under a new fingerprint.
  const uint64_t new_fp = fp + 1;
  const auto stats =
      workspace.ApplyGraphDelta(fp, new_fp, [&](SketchOracle& sketch) {
        return sketch.ApplyDelta(base, params);
      });
  EXPECT_EQ(stats.patched, 2u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(workspace.num_artifacts(), 2u);
  for (SketchKey key : {seed1, seed2}) {
    EXPECT_EQ(workspace.PeekSketchOracle(key), nullptr);
    key.params_fp = new_fp;
    EXPECT_NE(workspace.PeekSketchOracle(key), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Engine: warm solve after ApplyDelta == cold engine on the mutated graph
// ---------------------------------------------------------------------------

SolveRequest StreamRequest(const InfluenceParams& params,
                           const std::string& algorithm = "celf") {
  SolveRequest request;
  request.algorithm = algorithm;
  request.k = 8;
  request.params = &params;
  request.oracle = SpreadOracle::kSketch;
  request.mc = 64;
  request.seed = 11;
  request.evaluate_spread = true;
  return request;
}

void ExpectSolvesEqual(const SolveResult& warm, const SolveResult& cold) {
  EXPECT_EQ(warm.seeds, cold.seeds);
  EXPECT_EQ(warm.seed_scores, cold.seed_scores);
  EXPECT_EQ(warm.spread, cold.spread);
  EXPECT_EQ(warm.sketch_arena_bytes, cold.sketch_arena_bytes);
}

TEST(EngineDeltaTest, WarmSolveAfterDeltaEqualsColdEngine) {
  const Graph base = TestGraph();
  InfluenceParams params = MakeWeightedCascade(base);
  HolimEngine engine(base);
  EXPECT_EQ(engine.epoch(), 0u);
  auto first = engine.Solve(StreamRequest(params));
  ASSERT_TRUE(first.ok()) << first.status().message();

  Rng rng(31);
  InfluenceParams current = params;
  for (int step = 0; step < 3; ++step) {
    const GraphDelta delta = MakeRandomDelta(engine.graph(), 48, rng);
    auto report = engine.ApplyDelta(delta, current);
    ASSERT_TRUE(report.ok()) << report.status().message();
    ASSERT_TRUE(report->effective);
    EXPECT_EQ(report->epoch, static_cast<uint64_t>(step + 1));
    EXPECT_EQ(engine.epoch(), report->epoch);
    current = std::move(report->params);

    auto warm = engine.Solve(StreamRequest(current));
    ASSERT_TRUE(warm.ok()) << warm.status().message();
    HolimEngine cold_engine(engine.graph());
    auto cold = cold_engine.Solve(StreamRequest(current));
    ASSERT_TRUE(cold.ok()) << cold.status().message();
    ExpectSolvesEqual(*warm, *cold);
  }
}

TEST(EngineDeltaTest, SketchArtifactIsPatchedNotRebuilt) {
  const Graph base = TestGraph();
  InfluenceParams params = MakeUniformIc(base, 0.1);
  HolimEngine engine(base);
  auto first = engine.Solve(StreamRequest(params));
  ASSERT_TRUE(first.ok());

  GraphDelta delta;
  delta.Upsert(0, base.num_nodes() - 1, 0.15);
  auto report = engine.ApplyDelta(delta, params);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GE(report->patched_sketches, 1u);  // the celf objective's arena
  // The warm solve reuses the patched arena, re-filed under the new
  // params fingerprint.
  auto warm = engine.Solve(StreamRequest(report->params));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_sketch);
}

TEST(EngineDeltaTest, NoOpDeltaLeavesEngineUntouched) {
  const Graph base = TestGraph(60, 12);
  InfluenceParams params = MakeUniformIc(base, 0.1);
  HolimEngine engine(base);
  GraphDelta noop;
  noop.Remove(0, 59);  // absent edge
  auto report = engine.ApplyDelta(noop, params);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->effective);
  EXPECT_EQ(report->epoch, 0u);
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(&engine.graph(), &base);
  EXPECT_EQ(report->params.probability, params.probability);
}

// A delta that moves an edge under uniform IC keeps the params fingerprint
// identical (same m, same probabilities), so the post-delta solve derives
// the very key the pre-delta arena was cached under. That is safe because
// ApplyDelta patched the arena to the new graph and re-filed it: the solve
// hits the patched arena, whose bits are the cold rebuild's.
TEST(EngineDeltaTest, FingerprintCollidingDeltaDoesNotReuseStaleArtifacts) {
  const Graph base = TestGraph();
  InfluenceParams params = MakeUniformIc(base, 0.1);
  HolimEngine engine(base);
  auto first = engine.Solve(StreamRequest(params));
  ASSERT_TRUE(first.ok());

  // Remove one existing edge, insert one absent edge at the same p.
  const EdgeId e = 0;
  const NodeId src = base.EdgeSource(e);
  const NodeId dst = base.EdgeTarget(e);
  NodeId new_dst = (dst + 1) % base.num_nodes();
  const auto row = base.OutNeighbors(src);
  while (new_dst == src ||
         std::find(row.begin(), row.end(), new_dst) != row.end()) {
    new_dst = (new_dst + 1) % base.num_nodes();
  }
  GraphDelta delta;
  delta.Remove(src, dst);
  delta.Upsert(src, new_dst, 0.1);
  auto report = engine.ApplyDelta(delta, params);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_TRUE(report->effective);
  ASSERT_EQ(FingerprintParams(report->params), FingerprintParams(params));

  auto warm = engine.Solve(StreamRequest(report->params));
  ASSERT_TRUE(warm.ok());
  HolimEngine cold_engine(engine.graph());
  auto cold = cold_engine.Solve(StreamRequest(report->params));
  ASSERT_TRUE(cold.ok());
  ExpectSolvesEqual(*warm, *cold);
}

// Removes `graph`'s edge 0 and inserts an absent edge from the same source
// at probability `p`: under uniform IC at that p, the params fingerprint
// does not move.
GraphDelta MoveFirstEdge(const Graph& graph, double p) {
  const NodeId src = graph.EdgeSource(0);
  const auto row = graph.OutNeighbors(src);
  NodeId dst = (graph.EdgeTarget(0) + 1) % graph.num_nodes();
  while (dst == src || std::find(row.begin(), row.end(), dst) != row.end()) {
    dst = (dst + 1) % graph.num_nodes();
  }
  GraphDelta delta;
  delta.Remove(src, graph.EdgeTarget(0));
  delta.Upsert(src, dst, p);
  return delta;
}

// The invariant that lets no cache key name the graph epoch: with an
// unlimited budget, every effective ApplyDelta leaves only patched sketch
// arenas in the workspace (no selector survives it), and the next solve
// reads its arena warm.
TEST(EngineDeltaTest, EveryEffectiveDeltaLeavesOnlyPatchedArenas) {
  const Graph base = TestGraph();
  const InfluenceParams models[] = {MakeUniformIc(base, 0.1),
                                    MakeWeightedCascade(base),
                                    MakeLinearThreshold(base)};
  for (const InfluenceParams& params : models) {
    SCOPED_TRACE(DiffusionModelName(params.model));
    HolimEngine engine(base);
    InfluenceParams current = params;
    Rng rng(43);
    for (int step = 0; step < 4; ++step) {
      // Two arenas (celf's R = 64, degreediscount's R = 32 evaluation)
      // and two selectors.
      SolveRequest degree = StreamRequest(current, "degreediscount");
      degree.num_sketches = 32;
      ASSERT_TRUE(engine.Solve(StreamRequest(current)).ok());
      ASSERT_TRUE(engine.Solve(degree).ok());
      ASSERT_EQ(engine.workspace().num_artifacts(), 4u);

      // Three random batches, then the fingerprint-colliding edge move.
      const bool move = step == 3;
      const GraphDelta delta = move ? MoveFirstEdge(engine.graph(), 0.1)
                                    : MakeRandomDelta(engine.graph(), 48, rng);
      auto report = engine.ApplyDelta(delta, current);
      ASSERT_TRUE(report.ok()) << report.status().message();
      ASSERT_TRUE(report->effective);
      if (move && params.model == DiffusionModel::kIndependentCascade) {
        ASSERT_EQ(FingerprintParams(report->params),
                  FingerprintParams(current));
      }
      EXPECT_EQ(report->patched_sketches, 2u);
      EXPECT_EQ(report->evicted_artifacts, 2u);
      EXPECT_EQ(engine.workspace().num_artifacts(), report->patched_sketches);
      current = std::move(report->params);

      auto warm = engine.Solve(StreamRequest(current));
      ASSERT_TRUE(warm.ok()) << warm.status().message();
      EXPECT_TRUE(warm->warm_sketch);
      EXPECT_FALSE(warm->warm_selector);
    }
  }
}

// Latent-assumption audit: selectors that snapshot graph-shaped state at
// construction (StaticGreedy's sample, EaSyIM's sweep tables) must not
// serve a post-delta solve. ApplyDelta evicts them; a warm solve must
// equal a cold engine bitwise.
TEST(EngineDeltaTest, StatefulSelectorsDoNotLeakAcrossEpochs) {
  const Graph base = TestGraph();
  InfluenceParams params = MakeUniformIc(base, 0.1);
  for (const char* algorithm : {"staticgreedy", "easyim", "degreediscount"}) {
    HolimEngine engine(base);
    SolveRequest request = StreamRequest(params, algorithm);
    request.oracle = SpreadOracle::kMonteCarlo;
    request.mc = 32;
    auto first = engine.Solve(request);
    ASSERT_TRUE(first.ok()) << algorithm << ": " << first.status().message();

    Rng rng(71);
    const GraphDelta delta = MakeRandomDelta(base, 48, rng);
    auto report = engine.ApplyDelta(delta, params);
    ASSERT_TRUE(report.ok()) << report.status().message();
    ASSERT_TRUE(report->effective);

    SolveRequest warm_request = StreamRequest(report->params, algorithm);
    warm_request.oracle = SpreadOracle::kMonteCarlo;
    warm_request.mc = 32;
    auto warm = engine.Solve(warm_request);
    ASSERT_TRUE(warm.ok()) << algorithm << ": " << warm.status().message();
    HolimEngine cold_engine(engine.graph());
    auto cold = cold_engine.Solve(warm_request);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(warm->seeds, cold->seeds) << algorithm;
    EXPECT_EQ(warm->spread, cold->spread) << algorithm;
  }
}

}  // namespace
}  // namespace holim
