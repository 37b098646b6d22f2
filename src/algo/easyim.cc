#include "algo/easyim.h"

#include "util/logging.h"

namespace holim {

EasyImScorer::EasyImScorer(const Graph& graph, const InfluenceParams& params,
                           uint32_t l)
    : ScoreSweepEngine(graph, EasyImSweepPolicy(graph, params, l), l) {
  HOLIM_CHECK(params.probability.size() == graph.num_edges())
      << "params/graph edge count mismatch";
}

}  // namespace holim
