#ifndef HOLIM_ALGO_ICN_OBJECTIVE_H_
#define HOLIM_ALGO_ICN_OBJECTIVE_H_

#include <memory>
#include <string>
#include <vector>

#include "algo/greedy.h"
#include "diffusion/icn_model.h"
#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// \brief Expected *positive* spread under IC-N (Chen et al., SDM'11) —
/// the optimization target of the paper's first opinion-aware competitor.
///
/// IC-N keeps submodularity thanks to the uniform quality factor (the very
/// property the paper criticizes as "constrained and specific", Sec. 1), so
/// plugging this objective into GreedySelector/CelfSelector yields the
/// classical (1-1/e)-approximate algorithm for that model. Benchmarks use
/// it as the IC-N selection strategy when comparing opinion-aware models.
class IcnPositiveSpreadObjective : public McObjective {
 public:
  /// With a non-null `sketch` the objective evaluates over the oracle's
  /// presampled worlds (SketchOracle::EstimateIcnPositive — exact in the
  /// quality flips given the worlds) instead of fresh Monte-Carlo runs;
  /// `options` is then only kept for reporting. The oracle must be built
  /// on the same graph/params.
  IcnPositiveSpreadObjective(const Graph& graph,
                             const InfluenceParams& params,
                             double quality_factor, const McOptions& options,
                             std::shared_ptr<const SketchOracle> sketch =
                                 nullptr);

  std::string name() const override { return "icn_positive"; }
  double Evaluate(const std::vector<NodeId>& seeds) override;

 private:
  const Graph& graph_;
  const InfluenceParams& params_;
  double quality_factor_;
  McOptions options_;
  std::shared_ptr<const SketchOracle> sketch_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_ICN_OBJECTIVE_H_
