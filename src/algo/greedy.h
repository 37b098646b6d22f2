#ifndef HOLIM_ALGO_GREEDY_H_
#define HOLIM_ALGO_GREEDY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/seed_selector.h"
#include "diffusion/oi_model.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {

/// \brief Set-function objective evaluated by Monte Carlo. Both greedy
/// variants and CELF/CELF++ hill-climb one of these.
class McObjective {
 public:
  virtual ~McObjective() = default;
  virtual std::string name() const = 0;
  /// Expected objective value of the seed set (sigma or sigma_o_lambda).
  virtual double Evaluate(const std::vector<NodeId>& seeds) = 0;

  /// Optional incremental marginal-gain session, implemented by
  /// snapshot-backed objectives (SketchSpreadObjective). StartSession()
  /// (re)opens a session with an empty committed seed set and returns true
  /// when supported; the greedy/CELF selectors then drive
  /// SessionMarginalGain/SessionCommit instead of whole-set Evaluate
  /// calls, which turns each marginal-gain query into a near-O(touched)
  /// incremental probe. Contract, on the objective's own (frozen)
  /// randomness:
  ///   SessionMarginalGain(u) == Evaluate(S + u) - Evaluate(S)
  /// for the committed set S; SessionCommit(u) adds u to S and returns the
  /// same gain. The default implementation reports no session support and
  /// the selectors fall back to the Monte-Carlo Evaluate path.
  virtual bool StartSession() { return false; }
  virtual double SessionMarginalGain(NodeId /*u*/) { return 0.0; }
  virtual double SessionCommit(NodeId /*u*/) { return 0.0; }
};

/// Opinion-oblivious expected spread sigma(S) (IM objective).
class SpreadObjective : public McObjective {
 public:
  SpreadObjective(const Graph& graph, const InfluenceParams& params,
                  const McOptions& options);
  std::string name() const override { return "sigma"; }
  double Evaluate(const std::vector<NodeId>& seeds) override;

 private:
  const Graph& graph_;
  const InfluenceParams& params_;
  McOptions options_;
};

/// Opinion-aware expected effective opinion spread sigma_o_lambda(S)
/// (MEO objective; Modified-GREEDY in the paper's Appendix A).
class EffectiveOpinionObjective : public McObjective {
 public:
  EffectiveOpinionObjective(const Graph& graph,
                            const InfluenceParams& influence,
                            const OpinionParams& opinions, OiBase base,
                            double lambda, const McOptions& options);
  std::string name() const override { return "sigma_o"; }
  double Evaluate(const std::vector<NodeId>& seeds) override;

 private:
  const Graph& graph_;
  const InfluenceParams& influence_;
  const OpinionParams& opinions_;
  OiBase base_;
  double lambda_;
  McOptions options_;
};

/// \brief sigma(S) on a frozen set of presampled live-edge snapshots (the
/// StaticGreedy/sketch estimator family) — the `--oracle=sketch` backend
/// for GreedySelector/CelfSelector and the spread benches.
///
/// Evaluate() is a one-shot batch reachability count over the oracle's
/// packed arena; the session API exposes the oracle's activate-once
/// incremental evaluator, so a full greedy run explores each (snapshot,
/// node) pair at most once. On the static sample marginal gains are
/// exactly submodular (integer newly-reachable counts), so CELF's lazy
/// bound never misranks and CELF picks the same seeds as eager greedy
/// over the same frozen snapshots.
class SketchSpreadObjective : public McObjective {
 public:
  /// `use_session = false` disables the incremental session (every call
  /// goes through one-shot Estimate) — the baseline the incremental path
  /// is benchmarked against. A non-empty `node_weights` (one finite
  /// weight >= 0 per node) switches the objective to the weighted spread
  /// sigma_w (targeted IM); the objective owns the copy, so the oracle
  /// session it opens never dangles into caller storage. All-ones weights
  /// are bitwise-identical to the unweighted objective (see
  /// SketchOracle::EstimateWeighted).
  explicit SketchSpreadObjective(std::shared_ptr<const SketchOracle> oracle,
                                 bool use_session = true,
                                 std::vector<double> node_weights = {});
  std::string name() const override {
    return weights_.empty() ? "sigma_sketch" : "sigma_sketch_w";
  }
  double Evaluate(const std::vector<NodeId>& seeds) override;
  bool StartSession() override;
  double SessionMarginalGain(NodeId u) override;
  double SessionCommit(NodeId u) override;

  const SketchOracle& oracle() const { return *oracle_; }

 private:
  std::shared_ptr<const SketchOracle> oracle_;
  // Declared before session_: the session holds a span into this vector.
  std::vector<double> weights_;
  SketchOracle::Session session_;
  bool use_session_;
};

/// \brief Kempe et al.'s GREEDY: k rounds, each evaluating the marginal gain
/// of every remaining node via Monte Carlo. O(k n r (m+n)) — the gold
/// standard for quality, intractable beyond small graphs (paper Sec. 5).
///
/// With an EffectiveOpinionObjective this is exactly the paper's
/// Modified-GREEDY (Appendix A, Algorithm 6).
class GreedySelector : public SeedSelector {
 public:
  GreedySelector(const Graph& graph, std::shared_ptr<McObjective> objective,
                 std::string name = "GREEDY");

  std::string name() const override { return name_; }
  Result<SeedSelection> Select(uint32_t k) override;
  /// Eager benefit-per-cost greedy: each round scans every affordable
  /// candidate's gain/cost ratio (ties toward the smaller node id, like
  /// Select) and commits the best. The evaluate-everything reference the
  /// lazy budgeted CELF is benchmarked against. With uniform unit costs
  /// and budget == k the selection is bitwise-identical to Select(k).
  Result<SeedSelection> SelectBudgeted(uint32_t max_seeds,
                                       std::span<const double> costs,
                                       double budget) override;

 private:
  const Graph& graph_;
  std::shared_ptr<McObjective> objective_;
  std::string name_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_GREEDY_H_
