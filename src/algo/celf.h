#ifndef HOLIM_ALGO_CELF_H_
#define HOLIM_ALGO_CELF_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/greedy.h"
#include "algo/seed_selector.h"
#include "graph/graph.h"

namespace holim {

/// \brief CELF / CELF++ (Goyal et al., WWW'11): lazy-forward greedy.
///
/// Exploits submodularity: a node's marginal gain can only shrink as the
/// seed set grows, so stale gains in a max-heap are upper bounds and most
/// re-evaluations are skipped. Both Select and SelectBudgeted are one
/// LazyGreedy call (algo/lazy_greedy.h) on the objective's
/// Gains(plus_plus): the driver owns the heap order (larger gain, then
/// smaller node id), the budget drop, the deadline checkpoints and the
/// evaluation count; the objective owns how a gain is scored.
///
/// A SketchSpreadObjective hands out session probes and commits: on the
/// frozen snapshot sample they are exactly submodular, so the seeds equal
/// eager greedy's. Unweighted, it also offers the oracle's singleton reach
/// bounds, so a candidate is first probed when its bound tops the heap.
/// Registered with plus_plus = false over the sketch arena of
/// R = num_snapshots worlds, this is StaticGreedy (Cheng et al.,
/// CIKM'13). Every other objective scores whole sets, and only those
/// answer the CELF++ look-ahead that `plus_plus` turns on (paper Appendix
/// C): a session probe already costs no more than the cache bookkeeping.
///
/// With a non-submodular objective (the MEO objective) the lazy bound is a
/// heuristic rather than exact — matching how the paper deploys greedy
/// baselines in the opinion-aware setting.
class CelfSelector : public SeedSelector {
 public:
  /// `plus_plus` asks for the CELF++ look-ahead (whole-set objectives
  /// only).
  CelfSelector(const Graph& graph, std::shared_ptr<McObjective> objective,
               bool plus_plus = true, std::string name = "CELF++");

  std::string name() const override { return name_; }
  Result<SeedSelection> Select(uint32_t k) override;

  /// Budgeted lazy greedy (QueryKind::kBudgeted): the same loop keyed on
  /// gain(u)/cost(u), dropping for good a popped candidate over the
  /// residual budget. With unit costs and budget == k the key IS the gain
  /// and the session-path selection is bitwise-identical to Select(k).
  /// Never CELF++.
  Result<SeedSelection> SelectBudgeted(uint32_t max_seeds,
                                       std::span<const double> costs,
                                       double budget) override;

  /// Number of objective evaluations performed by the last Select or
  /// SelectBudgeted call (exposed so tests can verify laziness actually
  /// skips work).
  uint64_t last_evaluation_count() const { return evaluations_; }
  /// {"evaluations": last_evaluation_count()}.
  std::vector<std::pair<std::string, double>> LastRunStats() const override {
    return {{"evaluations", static_cast<double>(evaluations_)}};
  }
  /// The objective's retained scratch (the sketch session's lane words).
  std::size_t MemoryFootprintBytes() const override {
    return objective_->ScratchBytes();
  }

 private:
  /// One LazyGreedy run; empty `costs` is top-k.
  SeedSelection Run(uint32_t max_seeds, std::span<const double> costs,
                    double budget);

  const Graph& graph_;
  std::shared_ptr<McObjective> objective_;
  bool plus_plus_;
  std::string name_;
  uint64_t evaluations_ = 0;
};

}  // namespace holim

#endif  // HOLIM_ALGO_CELF_H_
