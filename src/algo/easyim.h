#ifndef HOLIM_ALGO_EASYIM_H_
#define HOLIM_ALGO_EASYIM_H_

#include <cstdint>
#include <vector>

#include "algo/score_sweep.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "util/thread_pool.h"

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
/// algorithm scalable (paper Sec. 3.2.1). All three entry points produce
/// bitwise-identical scores; they differ only in execution strategy (see
/// algo/score_sweep.h for the kernel's determinism contract).
class EasyImScorer {
 public:
  EasyImScorer(const Graph& graph, const InfluenceParams& params, uint32_t l);

  /// Computes Delta_l for every node into `scores` (resized to n).
  /// Nodes in `excluded` are removed from the graph for this computation
  /// (their score is set to -infinity so they are never re-picked).
  void AssignScores(const EpochSet& excluded, std::vector<double>* scores);

  /// Parallel score assignment: each of the l sweeps is a data-parallel
  /// pass in fixed node blocks (reads prev buffer, writes cur), so sharding
  /// is race-free and bitwise-identical to the serial pass for any thread
  /// count.
  void AssignScoresParallel(const EpochSet& excluded,
                            std::vector<double>* scores, ThreadPool& pool);

  /// Incremental score assignment across greedy rounds: `newly_excluded`
  /// must list exactly the nodes added to `excluded` since the previous
  /// call (nullptr forces a full rebuild of the per-level state). Only
  /// nodes within l reverse hops of the new exclusions are recomputed;
  /// output is bitwise identical to AssignScores. Trades the oracle path's
  /// O(n) space for O(l n) per-level state (allocated on first use).
  /// `pool == nullptr` runs serially (same convention as AssignScores, so
  /// incremental-vs-full timing comparisons are not confounded by
  /// threading); pass a pool explicitly to shard the recomputes.
  void AssignScoresIncremental(const EpochSet& excluded,
                               const std::vector<NodeId>* newly_excluded,
                               std::vector<double>* scores,
                               ThreadPool* pool = nullptr);

  uint32_t path_length() const { return engine_.path_length(); }

  /// Forwards to ScoreSweepEngine::set_incremental_fallback_fraction: the
  /// dirty-frontier fraction of n above which an incremental rescore falls
  /// back to whole-level passes for the levels its frontier could not
  /// cover (bitwise-identical scores).
  void set_incremental_fallback_fraction(double fraction) {
    engine_.set_incremental_fallback_fraction(fraction);
  }

  /// Extra working memory beyond the graph/params (capacity-based, see
  /// ScoreSweepStats): the two O(n) rolling buffers, plus the incremental
  /// level table once AssignScoresIncremental has been used.
  std::size_t ScratchBytes() const { return engine_.ScratchBytes(); }

  /// Work/memory counters of the underlying sweep kernel.
  const ScoreSweepStats& stats() const { return engine_.stats(); }

 private:
  ScoreSweepEngine<EasyImSweepPolicy> engine_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_EASYIM_H_
