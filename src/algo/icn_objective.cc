#include "algo/icn_objective.h"

namespace holim {

IcnPositiveSpreadObjective::IcnPositiveSpreadObjective(
    const Graph& graph, const InfluenceParams& params, double quality_factor,
    const McOptions& options, std::shared_ptr<const SketchOracle> sketch)
    : graph_(graph),
      params_(params),
      quality_factor_(quality_factor),
      options_(options),
      sketch_(std::move(sketch)) {}

double IcnPositiveSpreadObjective::Evaluate(const std::vector<NodeId>& seeds) {
  if (sketch_) {
    return sketch_->EstimateIcnPositive(seeds, quality_factor_);
  }
  return EstimateIcnPositiveSpread(graph_, params_, quality_factor_, seeds,
                                   options_);
}

}  // namespace holim
