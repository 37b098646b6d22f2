#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "algo/asim.h"
#include "algo/celf.h"
#include "algo/easyim.h"
#include "algo/greedy.h"
#include "algo/icn_objective.h"
#include "algo/osim.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "engine/holim_engine.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

// ---------------------------------------------------------------- ASIM --

TEST(AsimTest, MatchesEasyImWhenProbabilitiesEqualDamping) {
  // ASIM with damping d == EaSyIM under uniform IC probability d: the
  // same sweep kernel folding the same products, so bit for bit.
  Graph g = GenerateBarabasiAlbert(300, 3, 1).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  AsimOptions options;
  options.l = 3;
  options.damping = 0.1;
  AsimSelector asim(g, params, options);
  EasyImScorer easy(g, params, 3);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> asim_scores, easy_scores;
  asim.scorer().AssignScores(excluded, &asim_scores);
  easy.AssignScores(excluded, &easy_scores);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(asim_scores[u], easy_scores[u]) << "node " << u;
  }
}

TEST(AsimTest, ProbabilityBlindUnlikeEasyIm) {
  // Under WC, ASIM ignores the per-edge weights while EaSyIM uses them:
  // on a graph where one node has high-degree *low-weight* edges the two
  // must disagree on scores.
  GraphBuilder b(6);
  // Node 0 -> {1,2,3}: targets with in-degree 3 each (low WC weight).
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(4, 1);
  b.AddEdge(4, 2);
  b.AddEdge(4, 3);
  b.AddEdge(5, 1);
  b.AddEdge(5, 2);
  b.AddEdge(5, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  auto wc = MakeWeightedCascade(g);
  AsimOptions options;
  options.l = 1;
  options.damping = 0.5;
  AsimSelector asim(g, wc, options);
  EasyImScorer easy(g, wc, 1);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  std::vector<double> asim_scores, easy_scores;
  asim.scorer().AssignScores(excluded, &asim_scores);
  easy.AssignScores(excluded, &easy_scores);
  // ASIM: 3 * 0.5 = 1.5; EaSyIM: 3 * (1/3) = 1.0.
  EXPECT_NEAR(asim_scores[0], 1.5, 1e-12);
  EXPECT_NEAR(easy_scores[0], 1.0, 1e-12);
}

TEST(AsimTest, SelectsValidSeeds) {
  Graph g = GenerateBarabasiAlbert(200, 3, 2).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  AsimSelector asim(g, params);
  auto selection = asim.Select(10).ValueOrDie();
  EXPECT_EQ(selection.seeds.size(), 10u);
  EXPECT_EQ(asim.name(), "ASIM(l=3)");
}

TEST(AsimTest, CachedSelectorChargesItsSweepScratch) {
  // The Workspace charges a cached selector its MemoryFootprintBytes() plus
  // its prefix memo; for ASIM the former is the sweep scorer's scratch
  // (two n-double rolling buffers on the full-rescore path).
  Graph g = GenerateBarabasiAlbert(200, 3, 2).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  AsimSelector asim(g, params);
  auto selection = asim.Select(5);
  ASSERT_TRUE(selection.ok());
  EXPECT_GT(asim.MemoryFootprintBytes(), 0u);
  EXPECT_EQ(asim.MemoryFootprintBytes(), asim.scorer().ScratchBytes());

  SolveRequest request;
  request.algorithm = "asim";
  request.k = 5;
  request.params = &params;
  HolimEngine engine(g);
  auto result = engine.Solve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  PrefixMemo memo;
  memo.Record(5, *selection);
  EXPECT_GT(memo.Bytes(), 0u);
  EXPECT_EQ(result->workspace_bytes,
            asim.MemoryFootprintBytes() + memo.Bytes());
}

// -------------------------------------------------------- StaticGreedy --
// StaticGreedy is plain CELF on the sketch arena of R = num_snapshots
// worlds, so it is reached through the engine registry. Its scores are
// sigma(S) - |S|, like every other estimator's.

SolveRequest StaticGreedyRequest(const InfluenceParams& params, uint32_t k,
                                 uint32_t snapshots = 100) {
  SolveRequest request;
  request.algorithm = "static-greedy";
  request.k = k;
  request.params = &params;
  request.num_snapshots = snapshots;
  return request;
}

TEST(StaticGreedyTest, HubWinsOnStar) {
  GraphBuilder b(10);
  for (NodeId leaf = 1; leaf < 10; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.5);
  HolimEngine engine(g);
  auto result = engine.Solve(StaticGreedyRequest(params, 1)).ValueOrDie();
  EXPECT_EQ(result.seeds[0], 0u);
  // Gain of the hub ~ 9 * 0.5.
  EXPECT_NEAR(result.seed_scores[0], 4.5, 1.0);
}

TEST(StaticGreedyTest, MatchesCelfSeedsOnSmallGraph) {
  Graph g = GenerateBarabasiAlbert(60, 2, 3).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  HolimEngine engine(g);
  auto sg_sel =
      engine.Solve(StaticGreedyRequest(params, 3, /*snapshots=*/400))
          .ValueOrDie();
  McOptions mc;
  mc.num_simulations = 3000;
  mc.seed = 4;
  auto objective = std::make_shared<SpreadObjective>(g, params, mc);
  CelfSelector celf(g, objective, false, "CELF");
  auto celf_sel = celf.Select(3).ValueOrDie();
  // Both optimize the same submodular objective; allow spread-equivalent
  // differences by comparing achieved spread rather than identity.
  const double sg_spread = EstimateSpread(g, params, sg_sel.seeds, mc);
  const double celf_spread = EstimateSpread(g, params, celf_sel.seeds, mc);
  EXPECT_NEAR(sg_spread, celf_spread, 0.1 * std::max(1.0, celf_spread));
}

TEST(StaticGreedyTest, LtSnapshotsRespectSingleLiveInEdge) {
  Graph g = GeneratePath(5).ValueOrDie();
  auto params = MakeLinearThreshold(g);
  HolimEngine engine(g);
  auto result =
      engine.Solve(StaticGreedyRequest(params, 1, /*snapshots=*/50))
          .ValueOrDie();
  // Full-weight chain: node 0 reaches the other four in every snapshot.
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_NEAR(result.seed_scores[0], 4.0, 1e-9);
}

TEST(StaticGreedyTest, SnapshotMemoryAccounted) {
  Graph g = GenerateBarabasiAlbert(100, 3, 5).ValueOrDie();
  auto params = MakeUniformIc(g, 0.3);
  // The Workspace charges the worlds as a sketch arena, and the cached
  // hill-climber its session scratch (lane and pending words, undo log)
  // plus its prefix memo. A twin selector on the same worlds retains the
  // same bytes. Sketch GREEDY takes the same charge through its own
  // selector class.
  for (const bool eager : {false, true}) {
    SCOPED_TRACE(eager ? "greedy" : "static-greedy");
    SolveRequest request = StaticGreedyRequest(params, 2);
    if (eager) {
      request.algorithm = "greedy";
      request.oracle = SpreadOracle::kSketch;
      request.num_sketches = request.num_snapshots;
    }
    HolimEngine engine(g);
    auto result = engine.Solve(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    SketchOptions options;
    options.num_snapshots = request.num_snapshots;
    options.seed = request.seed;
    auto oracle = std::make_shared<const SketchOracle>(g, params, options);
    auto objective = std::make_shared<SketchSpreadObjective>(oracle);
    std::unique_ptr<SeedSelector> twin;
    if (eager) {
      twin = std::make_unique<GreedySelector>(g, objective);
    } else {
      twin = std::make_unique<CelfSelector>(g, objective,
                                            /*plus_plus=*/false, "twin");
    }
    auto selection = twin->Select(2);
    ASSERT_TRUE(selection.ok());
    EXPECT_EQ(selection->seeds, result->seeds);
    EXPECT_GT(twin->MemoryFootprintBytes(), 0u);
    EXPECT_EQ(twin->MemoryFootprintBytes(), objective->ScratchBytes());
    PrefixMemo memo;
    memo.Record(2, *selection);
    EXPECT_EQ(result->workspace_bytes, oracle->ArenaBytes() +
                                           twin->MemoryFootprintBytes() +
                                           memo.Bytes());
  }
}

TEST(SketchCelfTest, CachedSelectorIsChargedItsLaneWords) {
  // After Select a cached sketch CELF retains its session's activated and
  // pending lane words, (ceil(R / 64) + 1) n words, plus a targeted
  // objective's weight copy: the probe undo log and worklist die with the
  // run. The Workspace adds the arena and the top-k prefix memo.
  const Graph g = GenerateBarabasiAlbert(300, 3, 5).ValueOrDie();
  const auto params = MakeWeightedCascade(g);
  const uint32_t snapshots = 100;
  const std::size_t n = g.num_nodes();
  const std::size_t lane_bytes =
      ((snapshots + 63) / 64 + 1) * n * sizeof(uint64_t);
  for (const uint32_t k : {1u, 5u, 20u}) {
    for (const bool targeted : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   (targeted ? " targeted" : " top-k"));
      SolveRequest request;
      request.algorithm = "celf";
      request.k = k;
      request.params = &params;
      request.oracle = SpreadOracle::kSketch;
      request.num_sketches = snapshots;
      if (targeted) {
        request.query = QueryKind::kTargeted;
        request.target_weights.assign(n, 1.0);
      }
      HolimEngine engine(g);
      auto result = engine.Solve(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->seeds.size(), k);
      PrefixMemo memo;
      if (!targeted) {
        SeedSelection selection;
        selection.seeds = result->seeds;
        selection.seed_scores = result->seed_scores;
        memo.Record(k, selection);
      }
      EXPECT_EQ(result->workspace_bytes,
                result->sketch_arena_bytes + lane_bytes +
                    (targeted ? n * sizeof(double) : 0) + memo.Bytes());
    }
  }
}

TEST(StaticGreedyTest, RejectsBadK) {
  Graph g = GeneratePath(4).ValueOrDie();
  auto params = MakeUniformIc(g, 0.1);
  HolimEngine engine(g);
  EXPECT_FALSE(engine.Solve(StaticGreedyRequest(params, 0)).ok());
  EXPECT_FALSE(engine.Solve(StaticGreedyRequest(params, 5)).ok());
}

// ----------------------------------------------------- IC-N objective --

TEST(IcnObjectiveTest, QualityOneEqualsPlainSpread) {
  Graph g = GenerateBarabasiAlbert(150, 2, 6).ValueOrDie();
  auto params = MakeUniformIc(g, 0.2);
  McOptions mc;
  mc.num_simulations = 4000;
  mc.seed = 7;
  const double icn = EstimateIcnPositiveSpread(g, params, 1.0, {0, 3}, mc);
  const double plain = EstimateSpread(g, params, {0, 3}, mc);
  EXPECT_NEAR(icn, plain, 0.05 * std::max(1.0, plain));
}

TEST(IcnObjectiveTest, QualityZeroGivesZero) {
  Graph g = GeneratePath(5).ValueOrDie();
  auto params = MakeUniformIc(g, 1.0);
  McOptions mc;
  mc.num_simulations = 100;
  EXPECT_DOUBLE_EQ(EstimateIcnPositiveSpread(g, params, 0.0, {0}, mc), 0.0);
}

TEST(IcnObjectiveTest, MonotoneInQuality) {
  Graph g = GenerateBarabasiAlbert(100, 2, 8).ValueOrDie();
  auto params = MakeUniformIc(g, 0.3);
  McOptions mc;
  mc.num_simulations = 4000;
  mc.seed = 9;
  double prev = -1.0;
  for (double q : {0.2, 0.5, 0.8, 1.0}) {
    const double value = EstimateIcnPositiveSpread(g, params, q, {0}, mc);
    EXPECT_GE(value, prev - 0.05);
    prev = value;
  }
}

TEST(IcnObjectiveTest, DrivesGreedySelection) {
  GraphBuilder b(8);
  for (NodeId leaf = 1; leaf < 8; ++leaf) b.AddEdge(0, leaf);
  Graph g = std::move(b).Build().ValueOrDie();
  auto params = MakeUniformIc(g, 0.6);
  McOptions mc;
  mc.num_simulations = 1000;
  mc.seed = 10;
  auto objective =
      std::make_shared<IcnPositiveSpreadObjective>(g, params, 0.9, mc);
  GreedySelector greedy(g, objective, "IC-N GREEDY");
  auto selection = greedy.Select(1).ValueOrDie();
  EXPECT_EQ(selection.seeds[0], 0u);
}

// ----------------------------------------------- Weighted edge-list IO --

TEST(WeightedEdgeListTest, ReadsProbabilities) {
  const std::string path = "/tmp/holim_weighted_io.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "# comment\n10 20 0.25\n20 30 0.75\n");
    fclose(f);
  }
  auto loaded = ReadWeightedEdgeList(path).ValueOrDie();
  EXPECT_EQ(loaded.graph.num_nodes(), 3u);
  ASSERT_EQ(loaded.probability.size(), 2u);
  // Edge ids are (src,dst)-sorted after renumbering 10->0, 20->1, 30->2.
  EXPECT_DOUBLE_EQ(loaded.probability[0], 0.25);
  EXPECT_DOUBLE_EQ(loaded.probability[1], 0.75);
  std::remove(path.c_str());
}

TEST(WeightedEdgeListTest, UndirectedDuplicatesProbability) {
  const std::string path = "/tmp/holim_weighted_io2.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "0 1 0.4\n");
    fclose(f);
  }
  EdgeListOptions options;
  options.undirected = true;
  auto loaded = ReadWeightedEdgeList(path, options).ValueOrDie();
  EXPECT_EQ(loaded.graph.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(loaded.probability[0], 0.4);
  EXPECT_DOUBLE_EQ(loaded.probability[1], 0.4);
  std::remove(path.c_str());
}

TEST(WeightedEdgeListTest, DuplicateArcsKeepMaxProbability) {
  const std::string path = "/tmp/holim_weighted_io3.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "0 1 0.2\n0 1 0.6\n");
    fclose(f);
  }
  auto loaded = ReadWeightedEdgeList(path).ValueOrDie();
  EXPECT_EQ(loaded.graph.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(loaded.probability[0], 0.6);
  std::remove(path.c_str());
}

TEST(WeightedEdgeListTest, RejectsBadRows) {
  const std::string path = "/tmp/holim_weighted_io4.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "0 1\n");
    fclose(f);
  }
  EXPECT_FALSE(ReadWeightedEdgeList(path).ok());
  {
    FILE* f = fopen(path.c_str(), "w");
    fprintf(f, "0 1 1.7\n");
    fclose(f);
  }
  EXPECT_FALSE(ReadWeightedEdgeList(path).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------- Parallel scoring --

TEST(OsimParallelTest, BitwiseIdenticalToSerial) {
  Graph g = GenerateBarabasiAlbert(1500, 3, 12).ValueOrDie();
  auto influence = MakeUniformIc(g, 0.1);
  auto opinions = MakeRandomOpinions(g, OpinionDistribution::kUniform, 13);
  OsimScorer serial(g, influence, opinions, 4);
  OsimScorer parallel(g, influence, opinions, 4);
  EpochSet excluded(g.num_nodes());
  excluded.Reset(g.num_nodes());
  excluded.Insert(7);
  std::vector<double> serial_scores, parallel_scores;
  serial.AssignScores(excluded, &serial_scores);
  ThreadPool pool(4);
  parallel.AssignScores(excluded, &parallel_scores, &pool);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(serial_scores[u], parallel_scores[u]) << "node " << u;
  }
}

}  // namespace
}  // namespace holim
