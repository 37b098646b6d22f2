#include <gtest/gtest.h>

#include <cmath>

#include "diffusion/oi_model.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph_builder.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

/// The 4-node network of the paper's Figure 1 / Examples 1-2:
/// edges B->A (p=.1, phi=.7), B->C (p=.1, phi=.8), A->D (p=.8, phi=.9),
/// C->D (p=.9, phi=.1); opinions A=.8, B=0, C=.6, D=-.3.
struct Figure1Network {
  Graph graph;
  InfluenceParams influence;
  OpinionParams opinions;
  NodeId A = 0, B = 1, C = 2, D = 3;
};

Figure1Network MakeFigure1() {
  Figure1Network net;
  GraphBuilder b(4);
  b.AddEdge(1, 0);  // B->A
  b.AddEdge(1, 2);  // B->C
  b.AddEdge(0, 3);  // A->D
  b.AddEdge(2, 3);  // C->D
  net.graph = std::move(b).Build().ValueOrDie();
  net.influence.model = DiffusionModel::kIndependentCascade;
  net.influence.probability.resize(4);
  net.opinions.opinion = {0.8, 0.0, 0.6, -0.3};
  net.opinions.interaction.resize(4);
  // EdgeIds are (src,dst)-sorted: (0,3)=0, (1,0)=1, (1,2)=2, (2,3)=3.
  net.influence.probability[0] = 0.8;  // A->D
  net.influence.probability[1] = 0.1;  // B->A
  net.influence.probability[2] = 0.1;  // B->C
  net.influence.probability[3] = 0.9;  // C->D
  net.opinions.interaction[0] = 0.9;
  net.opinions.interaction[1] = 0.7;
  net.opinions.interaction[2] = 0.8;
  net.opinions.interaction[3] = 0.1;
  return net;
}

McOptions TightMc(uint32_t sims = 400000) {
  McOptions mc;
  mc.num_simulations = sims;
  mc.seed = 4242;
  return mc;
}

TEST(Figure1Test, PlainSpreadMatchesExample2) {
  auto net = MakeFigure1();
  // sigma(A)=0.8, sigma(B)=0.3628, sigma(C)=0.9, sigma(D)=0 (Example 2).
  McOptions mc = TightMc(200000);
  EXPECT_NEAR(EstimateSpread(net.graph, net.influence, {net.A}, mc), 0.8, 0.01);
  EXPECT_NEAR(EstimateSpread(net.graph, net.influence, {net.B}, mc), 0.3628,
              0.01);
  EXPECT_NEAR(EstimateSpread(net.graph, net.influence, {net.C}, mc), 0.9, 0.01);
  EXPECT_NEAR(EstimateSpread(net.graph, net.influence, {net.D}, mc), 0.0, 1e-12);
}

TEST(Figure1Test, OpinionSpreadMatchesExample2) {
  auto net = MakeFigure1();
  // sigma_o(A)=0.136, sigma_o(B)=-0.022564, sigma_o(C)=-0.351, sigma_o(D)=0.
  McOptions mc = TightMc();
  auto eA = EstimateOpinionSpread(net.graph, net.influence, net.opinions,
                                  OiBase::kIndependentCascade, {net.A}, 1.0, mc);
  EXPECT_NEAR(eA.opinion_spread, 0.136, 0.005);
  // For B the paper reports -0.022564, but that value is not derivable from
  // the stated OI dynamics: exact case analysis gives
  //   0.1*0.4 (A) + 0.1*0.3 (C) + D-terms ~= +0.0484.
  // A, C and D all match the paper exactly, so we assert the analytic value.
  auto eB = EstimateOpinionSpread(net.graph, net.influence, net.opinions,
                                  OiBase::kIndependentCascade, {net.B}, 1.0, mc);
  EXPECT_NEAR(eB.opinion_spread, 0.0484, 0.005);
  auto eC = EstimateOpinionSpread(net.graph, net.influence, net.opinions,
                                  OiBase::kIndependentCascade, {net.C}, 1.0, mc);
  EXPECT_NEAR(eC.opinion_spread, -0.351, 0.005);
  auto eD = EstimateOpinionSpread(net.graph, net.influence, net.opinions,
                                  OiBase::kIndependentCascade, {net.D}, 1.0, mc);
  EXPECT_NEAR(eD.opinion_spread, 0.0, 1e-12);
}

TEST(Figure1Test, IcPicksCButOiPicksA) {
  // The paper's headline example: IC would choose C (max sigma), the OI
  // model chooses A (max sigma_o).
  auto net = MakeFigure1();
  McOptions mc = TightMc(100000);
  double best_sigma = -1e9, best_sigma_o = -1e9;
  NodeId ic_pick = 99, oi_pick = 99;
  for (NodeId u = 0; u < 4; ++u) {
    const double s = EstimateSpread(net.graph, net.influence, {u}, mc);
    if (s > best_sigma) {
      best_sigma = s;
      ic_pick = u;
    }
    const double so =
        EstimateOpinionSpread(net.graph, net.influence, net.opinions,
                              OiBase::kIndependentCascade, {u}, 1.0, mc)
            .opinion_spread;
    if (so > best_sigma_o) {
      best_sigma_o = so;
      oi_pick = u;
    }
  }
  EXPECT_EQ(ic_pick, net.C);
  EXPECT_EQ(oi_pick, net.A);
}

TEST(OiSimulatorTest, SeedKeepsItsOpinion) {
  auto net = MakeFigure1();
  OiSimulator sim(net.graph, net.influence, net.opinions,
                  OiBase::kIndependentCascade);
  Rng rng(1);
  const NodeId seeds[] = {net.A};
  const OpinionCascade& oc = sim.Run(seeds, rng);
  EXPECT_DOUBLE_EQ(oc.final_opinion[0], 0.8);
}

TEST(OiSimulatorTest, PhiOneAveragesOpinions) {
  // Deterministic chain 0 -> 1 with p = 1, phi = 1:
  // o'_1 = (o_1 + o'_0) / 2 exactly, every run.
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  InfluenceParams influence = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {0.9, -0.5};
  opinions.interaction = {1.0};
  OiSimulator sim(g, influence, opinions, OiBase::kIndependentCascade);
  Rng rng(2);
  const NodeId seeds[] = {0};
  for (int i = 0; i < 20; ++i) {
    const OpinionCascade& oc = sim.Run(seeds, rng);
    ASSERT_EQ(oc.final_opinion.size(), 2u);
    EXPECT_DOUBLE_EQ(oc.final_opinion[1], (-0.5 + 0.9) / 2.0);
  }
}

TEST(OiSimulatorTest, PhiZeroAlwaysFlipsOrientation) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build().ValueOrDie();
  InfluenceParams influence = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {0.9, -0.5};
  opinions.interaction = {0.0};
  OiSimulator sim(g, influence, opinions, OiBase::kIndependentCascade);
  Rng rng(3);
  const NodeId seeds[] = {0};
  for (int i = 0; i < 20; ++i) {
    const OpinionCascade& oc = sim.Run(seeds, rng);
    EXPECT_DOUBLE_EQ(oc.final_opinion[1], (-0.5 - 0.9) / 2.0);
  }
}

TEST(OpinionCascadeTest, EffectiveSpreadPenalizesNegatives) {
  OpinionCascade oc;
  oc.num_seeds = 1;
  oc.final_opinion = {0.5, 0.4, -0.2};  // first entry is the seed
  EXPECT_DOUBLE_EQ(oc.OpinionSpread(), 0.2);
  EXPECT_DOUBLE_EQ(oc.EffectiveOpinionSpread(1.0), 0.2);
  EXPECT_DOUBLE_EQ(oc.EffectiveOpinionSpread(0.0), 0.4);
  EXPECT_DOUBLE_EQ(oc.EffectiveOpinionSpread(2.0), 0.0);
}

TEST(OiSimulatorTest, LtBaseRunsAndAverages) {
  // Chain with full LT weights: deterministic activation; each node has a
  // single active in-neighbor so the update matches the IC formula.
  Graph g;
  {
    GraphBuilder b(3);
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    g = std::move(b).Build().ValueOrDie();
  }
  InfluenceParams influence = MakeLinearThreshold(g);
  OpinionParams opinions;
  opinions.opinion = {1.0, 0.0, 0.0};
  opinions.interaction = {1.0, 1.0};
  OiSimulator sim(g, influence, opinions, OiBase::kLinearThreshold);
  Rng rng(4);
  const NodeId seeds[] = {0};
  const OpinionCascade& oc = sim.Run(seeds, rng);
  ASSERT_EQ(oc.final_opinion.size(), 3u);
  EXPECT_DOUBLE_EQ(oc.final_opinion[1], 0.5);   // (0 + 1)/2
  EXPECT_DOUBLE_EQ(oc.final_opinion[2], 0.25);  // (0 + 0.5)/2
}

TEST(OiSimulatorTest, DegenerateParamsReduceToPlainSpread) {
  // Lemma 1's reduction: o = 1, phi = 1 -> every activated node ends with
  // opinion in (0, 1] and opinion spread equals... (o_v + o'_u)/2 with all
  // initial opinions 1 gives o' = 1 for every node inductively.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  InfluenceParams influence = MakeUniformIc(g, 1.0);
  OpinionParams opinions = MakeDegenerateOpinions(g);
  OiSimulator sim(g, influence, opinions, OiBase::kIndependentCascade);
  Rng rng(5);
  const NodeId seeds[] = {0};
  const OpinionCascade& oc = sim.Run(seeds, rng);
  EXPECT_DOUBLE_EQ(oc.OpinionSpread(),
                   static_cast<double>(oc.cascade->SpreadCount(1)));
}

TEST(OiSimulatorTest, SignedNetworkVoterModelIsSpecialCase) {
  // Paper Sec. 5 (2): with phi in {0,1} ("friend"/"foe" edges) and strong
  // opinions o in {-1,+1}, OI reproduces signed-network semantics: a friend
  // edge transmits the activator's orientation, a foe edge flips it.
  // Chain: seed(+1) -friend-> v1 -foe-> v2 -foe-> v3, all p = 1.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  Graph g = std::move(b).Build().ValueOrDie();
  InfluenceParams influence = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion = {1.0, 1.0, 1.0, -1.0};
  opinions.interaction = {1.0, 0.0, 0.0};  // friend, foe, foe
  OiSimulator sim(g, influence, opinions, OiBase::kIndependentCascade);
  Rng rng(21);
  const NodeId seeds[] = {0};
  const OpinionCascade& oc = sim.Run(seeds, rng);
  ASSERT_EQ(oc.final_opinion.size(), 4u);
  // v1: friend of a +1 activator with own +1 -> stays positive (+1).
  EXPECT_GT(oc.final_opinion[1], 0.0);
  EXPECT_DOUBLE_EQ(oc.final_opinion[1], 1.0);
  // v2: foe edge flips the incoming +1 -> (1 - 1)/2 = 0 (neutralized).
  EXPECT_DOUBLE_EQ(oc.final_opinion[2], 0.0);
  // v3: foe edge flips incoming 0, own -1 -> (-1 - 0)/2 < 0.
  EXPECT_LT(oc.final_opinion[3], 0.0);
}

TEST(OiSimulatorTest, StrongOpinionsStayInRange) {
  // |o'| <= 1 is an invariant of the averaging update for any phi.
  Graph g;
  {
    GraphBuilder b(50);
    for (NodeId u = 0; u + 1 < 50; ++u) b.AddEdge(u, u + 1);
    g = std::move(b).Build().ValueOrDie();
  }
  InfluenceParams influence = MakeUniformIc(g, 1.0);
  OpinionParams opinions;
  opinions.opinion.assign(50, 0.0);
  for (NodeId u = 0; u < 50; ++u) opinions.opinion[u] = (u % 2) ? 1.0 : -1.0;
  opinions.interaction.assign(g.num_edges(), 0.0);
  OiSimulator sim(g, influence, opinions, OiBase::kIndependentCascade);
  Rng rng(22);
  const NodeId seeds[] = {0};
  const OpinionCascade& oc = sim.Run(seeds, rng);
  for (double o : oc.final_opinion) {
    EXPECT_GE(o, -1.0);
    EXPECT_LE(o, 1.0);
  }
}

TEST(SpreadEstimatorTest, EmptySeedsGiveZero) {
  auto net = MakeFigure1();
  McOptions mc;
  mc.num_simulations = 10;
  EXPECT_EQ(EstimateSpread(net.graph, net.influence, {}, mc), 0.0);
  auto e = EstimateOpinionSpread(net.graph, net.influence, net.opinions,
                                 OiBase::kIndependentCascade, {}, 1.0, mc);
  EXPECT_EQ(e.opinion_spread, 0.0);
}

TEST(SpreadEstimatorTest, ResultIndependentOfThreadCount) {
  auto net = MakeFigure1();
  ThreadPool pool1(1), pool4(4);
  McOptions mc1, mc4;
  mc1.num_simulations = mc4.num_simulations = 50000;
  mc1.seed = mc4.seed = 9;
  mc1.pool = &pool1;
  mc4.pool = &pool4;
  const double s1 = EstimateSpread(net.graph, net.influence, {net.B}, mc1);
  const double s4 = EstimateSpread(net.graph, net.influence, {net.B}, mc4);
  // Shard seeds depend only on shard index; shard count differs between
  // pools, so allow statistical (not bitwise) agreement.
  EXPECT_NEAR(s1, s4, 0.02);
}

}  // namespace
}  // namespace holim
