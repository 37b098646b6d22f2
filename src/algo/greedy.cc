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

// Below this many live out-edges per node and world (MeanLiveOutDegree),
// probing every node costs less than the bound pass: the pass walks each
// of the R worlds on its own, while one probe covers a lane group's 64
// worlds at once and in a sparse world stops near its start. Timed on IC
// CELF++ solves of the NetHEPT stand-in (R = 200, k = 50) and a perfbench
// churn graph (R = 64, k = 5), the bounds lost at 0.12-0.18 and won from
// 0.15 (churn) and 0.21 (NetHEPT) up. WC and LT worlds sit near 1.
constexpr double kMinLiveOutDegreeForBounds = 0.2;

// Incremental-session gains (sketch objectives): each probe is a
// near-O(touched) session query and a commit explores the seed's frontier
// once.
class SessionGains : public GainOracle {
 public:
  // A non-null `bounds_from` (the session's oracle) offers its singleton
  // reach bounds when its worlds are dense enough to pay for them; only
  // an unweighted session's gains are reach counts.
  SessionGains(SketchOracle::Session& session,
               const SketchOracle* bounds_from)
      : session_(session), bounds_from_(bounds_from) {}
  // The run is over: a cached selector keeps its committed lanes, not the
  // scratch of its largest probe.
  ~SessionGains() override { session_.ReleaseProbeScratch(); }
  double Gain(NodeId u) override { return session_.MarginalGain(u); }
  void Commit(NodeId u, double /*gain*/) override { session_.Commit(u); }
  bool EmptySetGainBounds(std::span<const NodeId> candidates,
                          std::vector<double>* bounds) override {
    if (bounds_from_ == nullptr ||
        bounds_from_->MeanLiveOutDegree() < kMinLiveOutDegreeForBounds) {
      return false;
    }
    const std::vector<int64_t> reach = bounds_from_->SingletonReachBounds();
    const int64_t snapshots = bounds_from_->num_snapshots();
    bounds->clear();
    bounds->reserve(candidates.size());
    for (const NodeId u : candidates) {
      // MarginalGain's arithmetic on a fresh session, so an exact bound
      // is the gain bit for bit and a loose one stays above it.
      bounds->push_back(static_cast<double>(reach[u] - snapshots) /
                        snapshots);
    }
    return true;
  }

 private:
  SketchOracle::Session& session_;
  const SketchOracle* bounds_from_;
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
  return std::make_unique<SessionGains>(
      session_, weights_.empty() ? oracle_.get() : nullptr);
}

std::size_t SketchSpreadObjective::ScratchBytes() const {
  return session_.ScratchBytes() + weights_.capacity() * sizeof(double);
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
  LazyGreedyRun run = EagerGreedy(*gains, AllNodes(graph_.num_nodes()),
                                  max_seeds, costs, budget, deadline_);
  evaluations_ = run.evaluations;
  SeedSelection selection = std::move(run.selection);
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
