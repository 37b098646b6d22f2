#include "algo/osim.h"

#include "util/logging.h"

namespace holim {

OsimScorer::OsimScorer(const Graph& graph, const InfluenceParams& influence,
                       const OpinionParams& opinions, uint32_t l)
    : engine_(graph, OsimSweepPolicy(graph, influence, opinions), l) {
  HOLIM_CHECK(influence.probability.size() == graph.num_edges());
  HOLIM_CHECK(opinions.opinion.size() == graph.num_nodes());
  HOLIM_CHECK(opinions.interaction.size() == graph.num_edges());
}

void OsimScorer::AssignScores(const EpochSet& excluded,
                              std::vector<double>* scores) {
  engine_.FullSweep(excluded, scores);
}

void OsimScorer::AssignScoresParallel(const EpochSet& excluded,
                                      std::vector<double>* scores,
                                      ThreadPool& pool) {
  engine_.FullSweep(excluded, scores, &pool);
}

void OsimScorer::AssignScoresIncremental(
    const EpochSet& excluded, const std::vector<NodeId>* newly_excluded,
    std::vector<double>* scores, ThreadPool* pool) {
  engine_.Rescore(excluded, newly_excluded, scores, pool);
}

}  // namespace holim
