#ifndef HOLIM_ALGO_EASYIM_H_
#define HOLIM_ALGO_EASYIM_H_

#include <cstdint>

#include "algo/score_sweep.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// EaSyIM's per-node recurrence bound to the shared sweep kernel:
///   Delta_i(u) = sum_{v in Out(u)} p(u,v) * (1 + Delta_{i-1}(v)),
/// final score = Delta_l(u).
class EasyImSweepPolicy {
 public:
  using Value = double;

  EasyImSweepPolicy(const Graph& graph, const InfluenceParams& params,
                    uint32_t l)
      : graph_(graph), params_(params), l_(l) {}

  Value Zero() const { return 0.0; }
  Value Init(NodeId) const { return 0.0; }

  Value Compute(NodeId u, const Value* prev, const EpochSet& excluded) const {
    double acc = 0.0;
    const EdgeId base = graph_.OutEdgeBegin(u);
    auto neighbors = graph_.OutNeighbors(u);
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      const NodeId v = neighbors[j];
      if (excluded.Contains(v)) continue;
      acc += params_.p(base + j) * (1.0 + prev[v]);
    }
    return acc;
  }

  void AccumulateScore(NodeId, double* score, const Value& v,
                       uint32_t level) const {
    if (level == l_) *score = v;
  }

 private:
  const Graph& graph_;
  const InfluenceParams& params_;
  uint32_t l_;
};

/// \brief EaSyIM score assignment (paper Algorithm 4).
///
/// Assigns each node u the weighted count of walks of length <= l starting
/// at u, where a walk's weight is the product of its edge probabilities,
/// computed over G(V \ excluded, E). The full pass runs in O(l(m+n)) time
/// and O(n) extra space — the linear-space/time property that makes the
/// algorithm scalable (paper Sec. 3.2.1). The scorer API (AssignScores,
/// AssignScoresIncremental, ScratchBytes, stats) is the shared sweep
/// kernel's; see algo/score_sweep.h for its determinism contract.
class EasyImScorer : public ScoreSweepEngine<EasyImSweepPolicy> {
 public:
  EasyImScorer(const Graph& graph, const InfluenceParams& params, uint32_t l);
};

}  // namespace holim

#endif  // HOLIM_ALGO_EASYIM_H_
