#include "algo/celf.h"

#include <vector>

#include "algo/lazy_greedy.h"
#include "util/memory.h"
#include "util/timer.h"

namespace holim {

namespace {

// Incremental-session gains (sketch-backed objectives): each probe is a
// near-O(touched) session query and a commit explores the seed's frontier
// once.
class SessionGains : public GainOracle {
 public:
  explicit SessionGains(McObjective& objective) : objective_(objective) {}
  double Gain(NodeId u) override {
    return objective_.SessionMarginalGain(u);
  }
  void Commit(NodeId u, double /*gain*/) override {
    objective_.SessionCommit(u);
  }

 private:
  McObjective& objective_;
};

// Whole-set Monte-Carlo gains: Evaluate(S + u) minus the running sum of
// committed gains. The one oracle that can score u against S + x, so the
// one that answers CELF++ look-aheads (when enabled).
class WholeSetGains : public GainOracle {
 public:
  WholeSetGains(McObjective& objective, bool plus_plus)
      : objective_(objective), plus_plus_(plus_plus) {}
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
    if (!plus_plus_) return false;
    trial_ = seeds_;
    trial_.push_back(x);
    const double base = objective_.Evaluate(trial_);
    trial_.push_back(u);
    *gain = objective_.Evaluate(trial_) - base;
    return true;
  }

 private:
  McObjective& objective_;
  bool plus_plus_;
  std::vector<NodeId> seeds_;
  std::vector<NodeId> trial_;
  double value_ = 0.0;
};

}  // namespace

CelfSelector::CelfSelector(const Graph& graph,
                           std::shared_ptr<McObjective> objective,
                           bool plus_plus, std::string name)
    : graph_(graph),
      objective_(std::move(objective)),
      plus_plus_(plus_plus),
      name_(std::move(name)) {}

Result<SeedSelection> CelfSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  return Run(k, {}, 0.0);
}

Result<SeedSelection> CelfSelector::SelectBudgeted(
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

SeedSelection CelfSelector::Run(uint32_t max_seeds,
                                std::span<const double> costs,
                                double budget) {
  MemoryMeter meter;
  Timer timer;
  const std::vector<NodeId> nodes = AllNodes(graph_.num_nodes());
  LazyGreedyRun run;
  if (objective_->StartSession()) {
    SessionGains gains(*objective_);
    run = LazyGreedy(gains, nodes, max_seeds, costs, budget, deadline_);
  } else {
    WholeSetGains gains(*objective_, plus_plus_);
    run = LazyGreedy(gains, nodes, max_seeds, costs, budget, deadline_);
  }
  evaluations_ = run.evaluations;
  SeedSelection selection = std::move(run.selection);
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
