#include "algo/greedy.h"

#include <limits>

#include "util/memory.h"
#include "util/timer.h"

namespace holim {

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

bool SketchSpreadObjective::StartSession() {
  session_.Reset();
  return true;
}

double SketchSpreadObjective::SessionMarginalGain(NodeId u) {
  return session_.MarginalGain(u);
}

double SketchSpreadObjective::SessionCommit(NodeId u) {
  return session_.Commit(u);
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
  SeedSelection selection;
  MemoryMeter meter;
  Timer timer;
  std::vector<char> chosen(graph_.num_nodes(), 0);
  if (objective_->StartSession()) {
    // Incremental path (sketch-backed objectives): identical hill-climb —
    // scan candidates in ascending id, strict improvement — but each
    // marginal gain is an incremental session probe instead of a whole-set
    // re-evaluation, and the winner's frontier is committed once.
    for (uint32_t i = 0; i < k; ++i) {
      if (deadline_ && !deadline_->Check().ok()) {
        selection.degraded = true;
        selection.stop_status = deadline_->status();
        break;
      }
      NodeId best = kInvalidNode;
      double best_gain = -std::numeric_limits<double>::infinity();
      for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
        if (chosen[u]) continue;
        const double gain = objective_->SessionMarginalGain(u);
        if (gain > best_gain) {
          best_gain = gain;
          best = u;
        }
      }
      if (best == kInvalidNode) break;
      objective_->SessionCommit(best);
      chosen[best] = 1;
      selection.seeds.push_back(best);
      selection.seed_scores.push_back(best_gain);
    }
    selection.elapsed_seconds = timer.ElapsedSeconds();
    selection.overhead_bytes = meter.OverheadBytes();
    return selection;
  }
  double current_value = 0.0;
  std::vector<NodeId> trial;
  for (uint32_t i = 0; i < k; ++i) {
    if (deadline_ && !deadline_->Check().ok()) {
      selection.degraded = true;
      selection.stop_status = deadline_->status();
      break;
    }
    NodeId best = kInvalidNode;
    double best_value = -std::numeric_limits<double>::infinity();
    trial = selection.seeds;
    trial.push_back(0);  // placeholder slot for the candidate
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      if (chosen[u]) continue;
      trial.back() = u;
      const double value = objective_->Evaluate(trial);
      if (value > best_value) {
        best_value = value;
        best = u;
      }
    }
    if (deadline_ && deadline_->StopRequested()) {
      // Expiry mid-round (wall clock or cancellation) leaves partial MC
      // estimates behind this round's scores; discard the round instead of
      // committing a seed scored on them. Never reached in work-budget
      // mode, where expiry only lands at the round-top Check.
      selection.degraded = true;
      selection.stop_status = deadline_->Check();
      break;
    }
    if (best == kInvalidNode) break;
    chosen[best] = 1;
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_value - current_value);
    current_value = best_value;
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
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
  SeedSelection selection;
  MemoryMeter meter;
  Timer timer;
  std::vector<char> chosen(graph_.num_nodes(), 0);
  double remaining = budget;
  if (objective_->StartSession()) {
    // Eager benefit-per-cost rounds: every affordable candidate is probed
    // each round — the evaluate-everything reference for the lazy CELF
    // path. With unit costs and budget == k each round degenerates to
    // Select's hill-climb (gain / 1.0 == gain, same ascending-id strict->
    // scan), which is the uniform-cost parity contract.
    while (selection.seeds.size() < max_seeds) {
      if (deadline_ && !deadline_->Check().ok()) {
        selection.degraded = true;
        selection.stop_status = deadline_->status();
        break;
      }
      NodeId best = kInvalidNode;
      double best_ratio = -std::numeric_limits<double>::infinity();
      double best_gain = 0.0;
      for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
        if (chosen[u] || costs[u] > remaining) continue;
        const double gain = objective_->SessionMarginalGain(u);
        const double ratio = gain / costs[u];
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_gain = gain;
          best = u;
        }
      }
      if (best == kInvalidNode) break;  // nothing fits the residual budget
      objective_->SessionCommit(best);
      chosen[best] = 1;
      remaining -= costs[best];
      selection.seeds.push_back(best);
      selection.seed_scores.push_back(best_gain);
    }
    selection.elapsed_seconds = timer.ElapsedSeconds();
    selection.overhead_bytes = meter.OverheadBytes();
    return selection;
  }
  double current_value = 0.0;
  std::vector<NodeId> trial;
  while (selection.seeds.size() < max_seeds) {
    if (deadline_ && !deadline_->Check().ok()) {
      selection.degraded = true;
      selection.stop_status = deadline_->status();
      break;
    }
    NodeId best = kInvalidNode;
    double best_ratio = -std::numeric_limits<double>::infinity();
    double best_value = 0.0;
    trial = selection.seeds;
    trial.push_back(0);  // placeholder slot for the candidate
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      if (chosen[u] || costs[u] > remaining) continue;
      trial.back() = u;
      const double value = objective_->Evaluate(trial);
      const double ratio = (value - current_value) / costs[u];
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_value = value;
        best = u;
      }
    }
    if (deadline_ && deadline_->StopRequested()) {
      // Same mid-round discard as Select's MC path (see above).
      selection.degraded = true;
      selection.stop_status = deadline_->Check();
      break;
    }
    if (best == kInvalidNode) break;
    chosen[best] = 1;
    remaining -= costs[best];
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_value - current_value);
    current_value = best_value;
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
