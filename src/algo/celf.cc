#include "algo/celf.h"

#include "algo/lazy_greedy.h"
#include "util/memory.h"
#include "util/timer.h"

namespace holim {

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
  const std::unique_ptr<GainOracle> gains = objective_->Gains(plus_plus_);
  LazyGreedyRun run = LazyGreedy(*gains, AllNodes(graph_.num_nodes()),
                                 max_seeds, costs, budget, deadline_);
  evaluations_ = run.evaluations;
  SeedSelection selection = std::move(run.selection);
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
