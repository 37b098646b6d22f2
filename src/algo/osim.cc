#include "algo/osim.h"

#include "util/logging.h"

namespace holim {

OsimScorer::OsimScorer(const Graph& graph, const InfluenceParams& influence,
                       const OpinionParams& opinions, uint32_t l)
    : ScoreSweepEngine(graph, OsimSweepPolicy(graph, influence, opinions), l) {
  HOLIM_CHECK(influence.probability.size() == graph.num_edges());
  HOLIM_CHECK(opinions.opinion.size() == graph.num_nodes());
  HOLIM_CHECK(opinions.interaction.size() == graph.num_edges());
}

}  // namespace holim
