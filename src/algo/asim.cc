#include "algo/asim.h"

#include <limits>

#include "algo/score_greedy.h"
#include "util/logging.h"

namespace holim {

AsimSelector::AsimSelector(const Graph& graph, const InfluenceParams& params,
                           const AsimOptions& options)
    : graph_(graph),
      params_(params),
      options_(options),
      prev_(graph.num_nodes(), 0.0),
      cur_(graph.num_nodes(), 0.0) {
  HOLIM_CHECK(options.l >= 1) << "l must be >= 1";
  HOLIM_CHECK(options.damping > 0.0 && options.damping <= 1.0)
      << "damping in (0, 1]";
}

std::string AsimSelector::name() const {
  return "ASIM(l=" + std::to_string(options_.l) + ")";
}

void AsimSelector::AssignScores(const EpochSet& excluded,
                                std::vector<double>* scores) {
  const NodeId n = graph_.num_nodes();
  std::fill(prev_.begin(), prev_.end(), 0.0);
  // C_i(u) accumulates damped walk counts: each hop multiplies by damping
  // regardless of the edge's own probability (ASIM is probability-blind).
  for (uint32_t i = 1; i <= options_.l; ++i) {
    for (NodeId u = 0; u < n; ++u) {
      if (excluded.Contains(u)) {
        cur_[u] = 0.0;
        continue;
      }
      double acc = 0.0;
      for (NodeId v : graph_.OutNeighbors(u)) {
        if (excluded.Contains(v)) continue;
        acc += options_.damping * (1.0 + prev_[v]);
      }
      cur_[u] = acc;
    }
    std::swap(prev_, cur_);
  }
  scores->assign(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    (*scores)[u] = excluded.Contains(u)
                       ? -std::numeric_limits<double>::infinity()
                       : prev_[u];
  }
}

Result<SeedSelection> AsimSelector::Select(uint32_t k) {
  ScoreGreedyOptions options;
  options.activation = ActivationStrategy::kExpectedReach;
  ScoreGreedy driver(
      graph_,
      [this](const EpochSet& excluded, const std::vector<NodeId>*,
             std::vector<double>* scores) { AssignScores(excluded, scores); },
      options);
  driver.set_edge_probability(&params_.probability);
  driver.set_max_hops(options_.l);
  return driver.Select(k);
}

}  // namespace holim
