#ifndef HOLIM_ALGO_OSIM_H_
#define HOLIM_ALGO_OSIM_H_

#include <cstdint>

#include "algo/score_sweep.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {

/// OSIM's per-node recurrence (Algorithm 5 lines 5-11) bound to the shared
/// sweep kernel. Per node u and level i <= l it maintains:
///  - or_i(u):  weighted sum of *initial* opinions reachable via i-length
///              paths (no opinion-change effects),
///  - alpha_i(u): weighted interaction product Prod p * (2*phi - 1)/2 over
///              i-length paths,
///  - sc_i(u):  accumulated opinion-change contribution,
/// and folds Delta_i(u) = Delta_{i-1}(u)
///              + (or_i(u) + sc_i(u) + o_u * alpha_i(u)) / 2
/// into the final score.
class OsimSweepPolicy {
 public:
  struct Value {
    double or_acc, alpha_acc, sc_acc;
    bool operator==(const Value&) const = default;
  };

  OsimSweepPolicy(const Graph& graph, const InfluenceParams& influence,
                  const OpinionParams& opinions)
      : graph_(graph), influence_(influence), opinions_(opinions) {}

  Value Zero() const { return {0.0, 0.0, 0.0}; }
  // Algorithm 5 line 1 initialisation.
  Value Init(NodeId u) const { return {opinions_.o(u), 1.0, 0.0}; }

  Value Compute(NodeId u, const Value* prev, const EpochSet& excluded) const {
    double or_acc = 0.0, alpha_acc = 0.0, sc_acc = 0.0;
    const EdgeId base = graph_.OutEdgeBegin(u);
    auto neighbors = graph_.OutNeighbors(u);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const NodeId v = neighbors[j];
      if (excluded.Contains(v)) continue;
      const EdgeId e = base + j;
      const double p = influence_.p(e);
      or_acc += p * prev[v].or_acc;                                 // line 6
      alpha_acc += p * prev[v].alpha_acc *
                   (2.0 * opinions_.phi(e) - 1.0) / 2.0;            // line 7
      sc_acc += p * prev[v].sc_acc;                                 // line 8
    }
    sc_acc += opinions_.o(u) * alpha_acc;                           // line 10
    return {or_acc, alpha_acc, sc_acc};
  }

  void AccumulateScore(NodeId u, double* score, const Value& v,
                       uint32_t) const {
    // Algorithm 5 line 11: every level contributes to Delta.
    *score += (v.or_acc + v.sc_acc + opinions_.o(u) * v.alpha_acc) / 2.0;
  }

 private:
  const Graph& graph_;
  const InfluenceParams& influence_;
  const OpinionParams& opinions_;
};

/// \brief OSIM score assignment (paper Algorithm 5) — the opinion-aware
/// extension of EaSyIM, on the same shared sweep kernel (see
/// algo/score_sweep.h for the scorer API and the determinism contract).
/// Same O(l(m+n)) time / O(n) space contract as EaSyIM on the full-sweep
/// path (Sec. 3.2.2); the incremental path keeps O(l n) state.
class OsimScorer : public ScoreSweepEngine<OsimSweepPolicy> {
 public:
  OsimScorer(const Graph& graph, const InfluenceParams& influence,
             const OpinionParams& opinions, uint32_t l);
};

}  // namespace holim

#endif  // HOLIM_ALGO_OSIM_H_
