#ifndef HOLIM_ALGO_ASIM_H_
#define HOLIM_ALGO_ASIM_H_

#include <cstdint>

#include "algo/score_greedy.h"
#include "algo/score_sweep.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// Tuning parameters of ASIM (Galhotra et al., WWW'15 companion) — the
/// authors' earlier path-count heuristic that EaSyIM refines (paper
/// Sec. 3.2: "similar to ASIM [26]").
struct AsimOptions {
  /// Path-length horizon (same role as EaSyIM's l).
  uint32_t l = 3;
  /// Per-hop damping applied to raw path counts. ASIM scores nodes by a
  /// weighted count of length-<=l paths with a geometric weight, rather
  /// than by the product of edge probabilities.
  double damping = 0.1;
};

/// ASIM's recurrence bound to the shared sweep kernel: EaSyIM's fold with
/// the per-hop damping in place of the edge probability p(u,v),
///   C_i(u) = sum_{v in Out(u)} damping * (1 + C_{i-1}(v)),
/// final score = C_l(u).
class AsimSweepPolicy {
 public:
  using Value = double;

  AsimSweepPolicy(const Graph& graph, double damping, uint32_t l)
      : graph_(graph), damping_(damping), l_(l) {}

  Value Zero() const { return 0.0; }
  Value Init(NodeId) const { return 0.0; }

  Value Compute(NodeId u, const Value* prev, const EpochSet& excluded) const {
    double acc = 0.0;
    for (NodeId v : graph_.OutNeighbors(u)) {
      if (excluded.Contains(v)) continue;
      acc += damping_ * (1.0 + prev[v]);
    }
    return acc;
  }

  void AccumulateScore(NodeId, double* score, const Value& v,
                       uint32_t level) const {
    if (level == l_) *score = v;
  }

 private:
  const Graph& graph_;
  double damping_;
  uint32_t l_;
};

/// \brief ASIM score assignment: damped counts of length-<=l walks,
/// score(u) = sum_i damping^i * (walks of length i from u). Equivalent to
/// EaSyIM when every edge probability equals `damping`; differs under
/// WC/LT weights, which is exactly the gap EaSyIM closes. Same scorer API
/// as EasyImScorer (see algo/score_sweep.h).
class AsimScorer : public ScoreSweepEngine<AsimSweepPolicy> {
 public:
  AsimScorer(const Graph& graph, const AsimOptions& options);
};

/// \brief ASIM bound to ScoreGREEDY, growing V(a) by expected reach (its
/// activation strategy, whatever `greedy` asks for). Included as the
/// lineage baseline for the ablation benches.
class AsimSelector : public ScoreSweepSelector<AsimScorer> {
 public:
  AsimSelector(const Graph& graph, const InfluenceParams& params,
               const AsimOptions& options = {},
               const ScoreGreedyOptions& greedy = {});
};

}  // namespace holim

#endif  // HOLIM_ALGO_ASIM_H_
