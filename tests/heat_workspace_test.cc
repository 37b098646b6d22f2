// Heat-aware Workspace tests: the exact decay arithmetic, the
// benefit-per-byte victim ordering (and how it diverges from LRU), the
// working-set pin in EnforceBudget — and the regression test that
// ApplyGraphDelta re-keying re-enforces the byte budget (patched arenas
// grow; a churn epoch must not overshoot until the next solve).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "engine/holim_engine.h"
#include "engine/workspace.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"

namespace holim {
namespace {

/// Minimal cached artifact with a fixed footprint: selector entries use
/// MemoryFootprintBytes as both the byte charge and the rebuild-cost
/// proxy, so their benefit-per-byte is exactly their decayed heat —
/// which makes eviction order a pure function of the heat bookkeeping
/// under test.
class FakeSelector : public SeedSelector {
 public:
  explicit FakeSelector(std::size_t bytes) : bytes_(bytes) {}
  std::string name() const override { return "fake"; }
  Result<SeedSelection> Select(uint32_t k) override {
    SeedSelection selection;
    for (NodeId i = 0; i < k; ++i) selection.seeds.push_back(i);
    return selection;
  }
  std::size_t MemoryFootprintBytes() const override { return bytes_; }

 private:
  std::size_t bytes_;
};

/// Adds (or touches) a fake selector of `bytes` under `key`.
SeedSelector* Add(Workspace& ws, const std::string& key,
                  std::size_t bytes = 1000) {
  return ws
      .GetSelector(key,
                   [bytes]() {
                     return Result<std::unique_ptr<SeedSelector>>(
                         std::make_unique<FakeSelector>(bytes));
                   })
      .ValueOrDie();
}

TEST(HeatDecayTest, IntegerHalvingIsExact) {
  Workspace ws;
  ws.set_eviction_policy(Workspace::EvictionPolicy::kHeatBenefit);
  ws.set_heat_half_life(2);

  Add(ws, "a");                   // tick 1: heat 1.0 at heat_tick 1
  EXPECT_EQ(ws.HeatOf("a"), 1.0);  // 0 elapsed ticks
  Add(ws, "b");                   // tick 2: (2-1)/2 = 0 halvings
  EXPECT_EQ(ws.HeatOf("a"), 1.0);
  Add(ws, "c");                   // tick 3: (3-1)/2 = 1 halving
  EXPECT_EQ(ws.HeatOf("a"), 0.5);
  Add(ws, "d");                   // tick 4: (4-1)/2 = 1 halving (integer!)
  EXPECT_EQ(ws.HeatOf("a"), 0.5);
  Add(ws, "e");                   // tick 5: (5-1)/2 = 2 halvings
  EXPECT_EQ(ws.HeatOf("a"), 0.25);
}

TEST(HeatDecayTest, TouchAddsOneAfterDecay) {
  Workspace ws;
  ws.set_eviction_policy(Workspace::EvictionPolicy::kHeatBenefit);
  ws.set_heat_half_life(2);

  Add(ws, "a");  // tick 1, heat 1.0
  Add(ws, "b");  // tick 2
  Add(ws, "c");  // tick 3
  Add(ws, "d");  // tick 4
  Add(ws, "e");  // tick 5: HeatOf("a") = 0.25
  Add(ws, "a");  // touch at tick 6: (6-1)/2 = 2 halvings, then +1
  EXPECT_EQ(ws.HeatOf("a"), std::ldexp(1.0, -2) + 1.0);  // 1.25, bit-exact
}

TEST(HeatDecayTest, HeatOfAbsentKeyIsZero) {
  Workspace ws;
  EXPECT_EQ(ws.HeatOf("missing"), 0.0);
  EXPECT_EQ(ws.BenefitPerByte("missing"), 0.0);
}

TEST(HeatEvictionTest, EqualBenefitTieBreaksTowardSmallestKey) {
  Workspace ws;
  ws.set_eviction_policy(Workspace::EvictionPolicy::kHeatBenefit);
  ws.set_heat_half_life(1u << 20);  // effectively no decay

  // Same bytes, same heat (inserted once each, never touched) — every
  // benefit-per-byte is identical, so the victim must be the
  // lexicographically smallest key.
  Add(ws, "b");
  Add(ws, "a");
  Add(ws, "c");
  ws.set_max_bytes(2500);  // fits two of the three 1000-byte entries
  EXPECT_EQ(ws.EnforceBudget(), 1u);
  EXPECT_EQ(ws.PeekSelector("a"), nullptr);
  EXPECT_NE(ws.PeekSelector("b"), nullptr);
  EXPECT_NE(ws.PeekSelector("c"), nullptr);
}

TEST(HeatEvictionTest, EqualBenefitArenasTieBreakBySketchKeyFieldOrder) {
  // Two arenas on an edgeless graph that differ only in seed have equal
  // bytes, rebuild cost and heat, so equal benefit. The victim is the
  // smaller SketchKey, seed 9: neither recency (seed 10 is older) nor the
  // keys' decimal rendering ("seed=10" < "seed=9") would pick it.
  const Graph graph = GraphBuilder(50).Build().ValueOrDie();
  const InfluenceParams params = MakeUniformIc(graph, 0.1);
  const SketchKey seed9{
      .params_fp = FingerprintParams(params), .snapshots = 64, .seed = 9};
  SketchKey seed10 = seed9;
  seed10.seed = 10;
  Workspace ws;
  ws.set_eviction_policy(Workspace::EvictionPolicy::kHeatBenefit);
  ws.set_heat_half_life(1u << 20);  // effectively no decay
  ASSERT_TRUE(ws.GetSketchOracle(graph, params, seed10).ok());
  ASSERT_TRUE(ws.GetSketchOracle(graph, params, seed9).ok());
  ASSERT_EQ(ws.BenefitPerByte(seed9), ws.BenefitPerByte(seed10));
  ws.set_max_bytes(ws.MemoryFootprintBytes() - 1);  // fits one arena
  EXPECT_EQ(ws.EnforceBudget(), 1u);
  EXPECT_EQ(ws.PeekSketchOracle(seed9), nullptr);
  EXPECT_NE(ws.PeekSketchOracle(seed10), nullptr);
}

TEST(HeatEvictionTest, HeatOutranksRecencyWhereLruWould) {
  // "a" is hot but stale; "b" is cold but most recent. LRU evicts "a";
  // the heat policy evicts "b". Both policies over the same history.
  const auto run = [](Workspace::EvictionPolicy policy) {
    Workspace ws;
    ws.set_eviction_policy(policy);
    ws.set_heat_half_life(1u << 20);
    Add(ws, "a");
    Add(ws, "a");
    Add(ws, "a");  // heat 3.0
    Add(ws, "b");  // heat 1.0, newest
    ws.set_max_bytes(1500);  // fits one entry
    ws.EnforceBudget();
    return ws.PeekSelector("a") != nullptr;  // did "a" survive?
  };
  EXPECT_FALSE(run(Workspace::EvictionPolicy::kLru));
  EXPECT_TRUE(run(Workspace::EvictionPolicy::kHeatBenefit));
}

TEST(HeatEvictionTest, PinProtectsTheInFlightWorkingSet) {
  Workspace ws;
  ws.set_eviction_policy(Workspace::EvictionPolicy::kHeatBenefit);
  ws.set_heat_half_life(1u << 20);

  for (int i = 0; i < 5; ++i) Add(ws, "hot");  // heat 5.0
  const uint64_t pre_solve = ws.tick();
  Add(ws, "fresh");  // the artifact the in-flight solve just built
  ws.set_max_bytes(1500);

  // A pinned pass must not evict "fresh" even though its benefit is far
  // below "hot"'s — the stale-hot entry goes instead.
  EXPECT_EQ(ws.EnforceBudget(pre_solve), 1u);
  EXPECT_EQ(ws.PeekSelector("hot"), nullptr);
  EXPECT_NE(ws.PeekSelector("fresh"), nullptr);
}

TEST(HeatEvictionTest, PinStopsOverBudgetWhenOnlyPinnedRemain) {
  Workspace ws;
  ws.set_eviction_policy(Workspace::EvictionPolicy::kHeatBenefit);
  Add(ws, "x");
  Add(ws, "y");
  ws.set_max_bytes(100);  // nothing fits
  // Everything is newer than pin 0: the pass must stop without evicting
  // rather than thrash the working set.
  EXPECT_EQ(ws.EnforceBudget(0), 0u);
  EXPECT_EQ(ws.num_artifacts(), 2u);
}

// ---------------------------------------------------------------------------
// Regression: ApplyGraphDelta re-keying must re-enforce max_cache_bytes.
// ---------------------------------------------------------------------------

TEST(DeltaBudgetTest, ApplyDeltaReEnforcesTheByteBudget) {
  const Graph base = GenerateBarabasiAlbert(120, 2, 7).ValueOrDie();
  const InfluenceParams params = MakeUniformIc(base, 0.1);

  SolveRequest request;
  request.algorithm = "degreediscount";
  request.k = 4;
  request.params = &params;
  request.oracle = SpreadOracle::kSketch;
  request.evaluate_spread = true;
  request.seed = 11;

  // Two sketch arenas under one params fingerprint (different R), so the
  // delta patches BOTH and the grown pair can overshoot the budget.
  HolimEngine sizing(base);
  request.num_sketches = 32;
  ASSERT_TRUE(sizing.Solve(request).ok());
  request.num_sketches = 64;
  auto sized = sizing.Solve(request);
  ASSERT_TRUE(sized.ok());
  const std::size_t both = sizing.workspace().MemoryFootprintBytes();

  // Budget: fits both arenas as built, with almost no headroom. A delta
  // that only INSERTS edges grows every patched splice table.
  EngineOptions options;
  options.max_cache_bytes = both + 256;
  HolimEngine engine(base, options);
  request.num_sketches = 32;
  ASSERT_TRUE(engine.Solve(request).ok());
  request.num_sketches = 64;
  ASSERT_TRUE(engine.Solve(request).ok());
  ASSERT_LE(engine.workspace().MemoryFootprintBytes(),
            engine.workspace().max_bytes());

  GraphDelta delta;
  for (NodeId u = 0; u < 40; ++u) {
    delta.Upsert(u, (u + 57) % base.num_nodes(), 0.2);
  }
  auto report = engine.ApplyDelta(delta, params);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_TRUE(report->effective);

  // The post-delta footprint must respect the budget immediately (not
  // only after the next solve), unless eviction is already down to the
  // keep-one floor.
  EXPECT_TRUE(engine.workspace().MemoryFootprintBytes() <=
                  engine.workspace().max_bytes() ||
              engine.workspace().num_artifacts() <= 1)
      << "footprint " << engine.workspace().MemoryFootprintBytes()
      << " exceeds budget " << engine.workspace().max_bytes() << " with "
      << engine.workspace().num_artifacts() << " artifacts";
  EXPECT_GE(report->evicted_artifacts, 1u);
}

}  // namespace
}  // namespace holim
