#ifndef HOLIM_ALGO_GREEDY_H_
#define HOLIM_ALGO_GREEDY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/lazy_greedy.h"
#include "algo/seed_selector.h"
#include "diffusion/oi_model.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {

/// \brief Set-function objective a hill-climb maximizes. It hands out
/// the GainOracle its selector's driver runs on: GreedySelector feeds it
/// to EagerGreedy, CelfSelector to LazyGreedy (algo/lazy_greedy.h).
class McObjective {
 public:
  virtual ~McObjective() = default;
  virtual std::string name() const = 0;
  /// Expected objective value of the seed set (sigma or sigma_o_lambda).
  virtual double Evaluate(const std::vector<NodeId>& seeds) = 0;

  /// A gain oracle starting from the empty seed set. It borrows the
  /// objective, which must outlive it, and at most one may be in use at a
  /// time. The default scores whole sets: Gain(u) is Evaluate(S + u) minus
  /// the running sum of committed gains, and with `look_ahead` it answers
  /// CELF++'s GainWith at two evaluations each.
  virtual std::unique_ptr<GainOracle> Gains(bool look_ahead);

  /// Bytes the objective retains between runs (capacity-based): what a
  /// cached hill-climber charges the Workspace. 0 unless overridden.
  virtual std::size_t ScratchBytes() const { return 0; }
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

/// \brief sigma(S) on a frozen set of presampled live-edge snapshots: the
/// `--oracle=sketch` objective of greedy/CELF/CELF++, and StaticGreedy's
/// (Cheng et al., CIKM'13) whole objective.
///
/// Evaluate() is a one-shot batch reachability count over the oracle's
/// packed arena. Gains() hands out the oracle's activate-once incremental
/// session, so a full greedy run explores each (snapshot, node) pair at
/// most once. On the static sample marginal gains are exactly submodular
/// (integer newly-reachable counts), so CELF's lazy bound never misranks
/// and CELF picks the same seeds as eager greedy over the same worlds.
class SketchSpreadObjective : public McObjective {
 public:
  /// A non-empty `node_weights` (one finite weight >= 0 per node)
  /// switches the objective to the weighted spread sigma_w (targeted IM);
  /// the objective owns the copy, so the oracle session it opens never
  /// dangles into caller storage. All-ones weights are bitwise-identical
  /// to the unweighted objective (see SketchOracle::EstimateWeighted).
  explicit SketchSpreadObjective(std::shared_ptr<const SketchOracle> oracle,
                                 std::vector<double> node_weights = {});
  std::string name() const override {
    return weights_.empty() ? "sigma_sketch" : "sigma_sketch_w";
  }
  double Evaluate(const std::vector<NodeId>& seeds) override;
  /// Session gains on the objective's one Session, reset on every call
  /// (so a warm re-Select allocates no lane words); destroying the gains
  /// releases the session's probe scratch, so between runs the objective
  /// holds only its lane words and weights. Never answers look-aheads:
  /// a session probe costs no more than the CELF++ cache bookkeeping. An
  /// unweighted objective's gains offer the oracle's
  /// SingletonReachBounds as LazyGreedy's empty-set bounds when the
  /// worlds average at least 0.2 live out-edges per node
  /// (MeanLiveOutDegree); sparser worlds make every probe cheaper than
  /// the bound pass.
  std::unique_ptr<GainOracle> Gains(bool look_ahead) override;
  /// The session's scratch plus the owned weight copy.
  std::size_t ScratchBytes() const override;

  const SketchOracle& oracle() const { return *oracle_; }

 private:
  std::shared_ptr<const SketchOracle> oracle_;
  // Declared before session_: the session holds a span into this vector.
  std::vector<double> weights_;
  SketchOracle::Session session_;
};

/// \brief Kempe et al.'s GREEDY: k rounds, each scoring the marginal gain
/// of every remaining node. O(k n r (m+n)) under Monte Carlo, the gold
/// standard for quality, intractable beyond small graphs (paper Sec. 5).
///
/// Select and SelectBudgeted are each one EagerGreedy call
/// (algo/lazy_greedy.h) on the objective's Gains(): the driver owns the
/// scan order (ties to the smaller node id), the budget skip and the
/// deadline checkpoints. With an EffectiveOpinionObjective this is
/// exactly the paper's Modified-GREEDY (Appendix A, Algorithm 6).
class GreedySelector : public SeedSelector {
 public:
  GreedySelector(const Graph& graph, std::shared_ptr<McObjective> objective,
                 std::string name = "GREEDY");

  std::string name() const override { return name_; }
  Result<SeedSelection> Select(uint32_t k) override;
  /// Eager benefit-per-cost greedy: each round scans every affordable
  /// candidate's gain/cost ratio and commits the best. The
  /// evaluate-everything reference the lazy budgeted CELF is benchmarked
  /// against. With uniform unit costs and budget == k the selection is
  /// bitwise-identical to Select(k).
  Result<SeedSelection> SelectBudgeted(uint32_t max_seeds,
                                       std::span<const double> costs,
                                       double budget) override;

  /// {"evaluations": oracle evaluations of the last run}.
  std::vector<std::pair<std::string, double>> LastRunStats() const override {
    return {{"evaluations", static_cast<double>(evaluations_)}};
  }
  /// The objective's retained scratch (the sketch session's lane words).
  std::size_t MemoryFootprintBytes() const override {
    return objective_->ScratchBytes();
  }

 private:
  /// One EagerGreedy run; empty `costs` is top-k.
  SeedSelection Run(uint32_t max_seeds, std::span<const double> costs,
                    double budget);

  const Graph& graph_;
  std::shared_ptr<McObjective> objective_;
  std::string name_;
  uint64_t evaluations_ = 0;
};

}  // namespace holim

#endif  // HOLIM_ALGO_GREEDY_H_
