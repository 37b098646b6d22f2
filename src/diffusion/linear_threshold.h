#ifndef HOLIM_DIFFUSION_LINEAR_THRESHOLD_H_
#define HOLIM_DIFFUSION_LINEAR_THRESHOLD_H_

#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "util/rng.h"

namespace holim {

/// \brief Linear Threshold simulator in its classical (threshold) form.
///
/// Each run samples fresh thresholds theta_v ~ U(0,1). A node v activates
/// once the summed weights of its active in-neighbors reach theta_v; weights
/// are w(u,v) = params.p(edge) (the paper uses 1/indeg(v)). Kempe's live-edge
/// equivalence is checked against a live-edge simulator in diffusion_lt_test.
class LtSimulator {
 public:
  LtSimulator(const Graph& graph, const InfluenceParams& params);

  const Cascade& Run(std::span<const NodeId> seeds, Rng& rng);

  /// Variant that never activates blocked nodes.
  const Cascade& RunWithBlocked(std::span<const NodeId> seeds, Rng& rng,
                                const EpochSet& blocked);

 private:
  const Cascade& RunImpl(std::span<const NodeId> seeds, Rng& rng,
                         const EpochSet* blocked);

  const Graph& graph_;
  const InfluenceParams& params_;
  Cascade cascade_;
  EpochSet active_;
  // Incoming active weight accumulated so far; epoch-guarded by touched_.
  std::vector<double> weight_in_;
  std::vector<double> threshold_;
  EpochSet touched_;
  // Activation count of the previous run; seeds Run's reserve.
  std::size_t last_activation_count_ = 0;
};

}  // namespace holim

#endif  // HOLIM_DIFFUSION_LINEAR_THRESHOLD_H_
