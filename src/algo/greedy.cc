#include "algo/greedy.h"

#include "util/memory.h"
#include "util/timer.h"

namespace holim {

namespace {

// Whole-set gains: Evaluate(S + u) minus the running sum of committed
// gains. The one oracle that can score u against S + x, so the one that
// answers CELF++ look-aheads (when enabled).
class WholeSetGains : public GainOracle {
 public:
  WholeSetGains(McObjective& objective, bool look_ahead)
      : objective_(objective), look_ahead_(look_ahead) {}
  double Gain(NodeId u) override {
    trial_ = seeds_;
    trial_.push_back(u);
    return objective_.Evaluate(trial_) - value_;
  }
  void Commit(NodeId u, double gain) override {
    seeds_.push_back(u);
    value_ += gain;
  }
  bool GainWith(NodeId x, NodeId u, double* gain) override {
    if (!look_ahead_) return false;
    trial_ = seeds_;
    trial_.push_back(x);
    const double base = objective_.Evaluate(trial_);
    trial_.push_back(u);
    *gain = objective_.Evaluate(trial_) - base;
    return true;
  }

 private:
  McObjective& objective_;
  bool look_ahead_;
  std::vector<NodeId> seeds_;
  std::vector<NodeId> trial_;
  double value_ = 0.0;
};

// Incremental-session gains (sketch objectives): each probe is a
// near-O(touched) session query and a commit explores the seed's frontier
// once.
class SessionGains : public GainOracle {
 public:
  explicit SessionGains(SketchOracle::Session& session) : session_(session) {}
  double Gain(NodeId u) override { return session_.MarginalGain(u); }
  void Commit(NodeId u, double /*gain*/) override { session_.Commit(u); }

 private:
  SketchOracle::Session& session_;
};

}  // namespace

std::unique_ptr<GainOracle> McObjective::Gains(bool look_ahead) {
  return std::make_unique<WholeSetGains>(*this, look_ahead);
}

SpreadObjective::SpreadObjective(const Graph& graph,
                                 const InfluenceParams& params,
                                 const McOptions& options)
    : graph_(graph), params_(params), options_(options) {}

double SpreadObjective::Evaluate(const std::vector<NodeId>& seeds) {
  return EstimateSpread(graph_, params_, seeds, options_);
}

EffectiveOpinionObjective::EffectiveOpinionObjective(
    const Graph& graph, const InfluenceParams& influence,
    const OpinionParams& opinions, OiBase base, double lambda,
    const McOptions& options)
    : graph_(graph),
      influence_(influence),
      opinions_(opinions),
      base_(base),
      lambda_(lambda),
      options_(options) {}

double EffectiveOpinionObjective::Evaluate(const std::vector<NodeId>& seeds) {
  return EstimateOpinionSpread(graph_, influence_, opinions_, base_, seeds,
                               lambda_, options_)
      .effective_opinion_spread;
}

SketchSpreadObjective::SketchSpreadObjective(
    std::shared_ptr<const SketchOracle> oracle,
    std::vector<double> node_weights)
    : oracle_(std::move(oracle)),
      weights_(std::move(node_weights)),
      session_(*oracle_, weights_) {}

double SketchSpreadObjective::Evaluate(const std::vector<NodeId>& seeds) {
  if (!weights_.empty()) {
    return oracle_->EstimateWeighted(seeds, weights_);
  }
  return oracle_->Estimate(seeds);
}

std::unique_ptr<GainOracle> SketchSpreadObjective::Gains(
    bool /*look_ahead*/) {
  session_.Reset();
  return std::make_unique<SessionGains>(session_);
}

GreedySelector::GreedySelector(const Graph& graph,
                               std::shared_ptr<McObjective> objective,
                               std::string name)
    : graph_(graph), objective_(std::move(objective)), name_(std::move(name)) {}

Result<SeedSelection> GreedySelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  return Run(k, {}, 0.0);
}

Result<SeedSelection> GreedySelector::SelectBudgeted(
    uint32_t max_seeds, std::span<const double> costs, double budget) {
  if (max_seeds == 0) return Status::InvalidArgument("max_seeds must be positive");
  if (costs.size() != graph_.num_nodes()) {
    return Status::InvalidArgument("cost/node count mismatch");
  }
  if (!(budget > 0.0)) {
    return Status::InvalidArgument("budget must be positive");
  }
  return Run(max_seeds, costs, budget);
}

SeedSelection GreedySelector::Run(uint32_t max_seeds,
                                  std::span<const double> costs,
                                  double budget) {
  MemoryMeter meter;
  Timer timer;
  const std::unique_ptr<GainOracle> gains =
      objective_->Gains(/*look_ahead=*/false);
  SeedSelection selection =
      EagerGreedy(*gains, AllNodes(graph_.num_nodes()), max_seeds, costs,
                  budget, deadline_)
          .selection;
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
