#include "algo/easyim.h"

#include "util/logging.h"

namespace holim {

EasyImScorer::EasyImScorer(const Graph& graph, const InfluenceParams& params,
                           uint32_t l)
    : engine_(graph, EasyImSweepPolicy(graph, params, l), l) {
  HOLIM_CHECK(params.probability.size() == graph.num_edges())
      << "params/graph edge count mismatch";
}

void EasyImScorer::AssignScores(const EpochSet& excluded,
                                std::vector<double>* scores) {
  engine_.FullSweep(excluded, scores);
}

void EasyImScorer::AssignScoresParallel(const EpochSet& excluded,
                                        std::vector<double>* scores,
                                        ThreadPool& pool) {
  engine_.FullSweep(excluded, scores, &pool);
}

void EasyImScorer::AssignScoresIncremental(
    const EpochSet& excluded, const std::vector<NodeId>* newly_excluded,
    std::vector<double>* scores, ThreadPool* pool) {
  engine_.Rescore(excluded, newly_excluded, scores, pool);
}

}  // namespace holim
