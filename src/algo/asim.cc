#include "algo/asim.h"

#include "util/logging.h"

namespace holim {

namespace {

ScoreGreedyOptions WithExpectedReach(ScoreGreedyOptions options) {
  options.activation = ActivationStrategy::kExpectedReach;
  return options;
}

}  // namespace

AsimScorer::AsimScorer(const Graph& graph, const AsimOptions& options)
    : ScoreSweepEngine(graph,
                       AsimSweepPolicy(graph, options.damping, options.l),
                       options.l) {
  HOLIM_CHECK(options.damping > 0.0 && options.damping <= 1.0)
      << "damping in (0, 1]";
}

AsimSelector::AsimSelector(const Graph& graph, const InfluenceParams& params,
                           const AsimOptions& options,
                           const ScoreGreedyOptions& greedy)
    : ScoreSweepSelector("ASIM", graph, params,
                         params.model == DiffusionModel::kLinearThreshold,
                         AsimScorer(graph, options),
                         WithExpectedReach(greedy)) {}

}  // namespace holim
