#ifndef HOLIM_DIFFUSION_SPREAD_ESTIMATOR_H_
#define HOLIM_DIFFUSION_SPREAD_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "diffusion/oi_model.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace holim {

/// Monte-Carlo estimation options shared by all estimators.
///
/// Determinism contract: simulation i draws from its own SplitMix64
/// stream derived from (seed, i), and simulations are accumulated in
/// fixed-size blocks reduced in block order — so every estimate is
/// bitwise identical for any pool thread count (including nullptr).
struct McOptions {
  uint32_t num_simulations = 1000;  // the paper uses 10K; configurable
  uint64_t seed = 42;
  ThreadPool* pool = nullptr;  // nullptr -> DefaultThreadPool()
  /// Cooperative stop poll (borrowed; may be null). Blocks whose start
  /// observes StopRequested() are skipped, leaving their partials zero —
  /// the caller (a deadline-aware selector) discards the estimate of a
  /// round that observed expiry, so partial sums never leak into results.
  const Deadline* deadline = nullptr;
};

/// Expected opinion-oblivious spread sigma(S) = E[|V_a| - |S|] (Def. 3)
/// under the model in `params` (IC/WC via IcSimulator, LT via LtSimulator).
double EstimateSpread(const Graph& graph, const InfluenceParams& params,
                      const std::vector<NodeId>& seeds,
                      const McOptions& options = {});

/// Expected opinion spread E[Γo(S)] and effective opinion spread E[Γoλ(S)]
/// under the OI model.
struct OpinionSpreadEstimate {
  double opinion_spread = 0.0;            // E[Γo(S)]
  double effective_opinion_spread = 0.0;  // E[Γoλ(S)]
  double plain_spread = 0.0;              // E[|V_a| - |S|], for reference
};

OpinionSpreadEstimate EstimateOpinionSpread(
    const Graph& graph, const InfluenceParams& influence,
    const OpinionParams& opinions, OiBase base,
    const std::vector<NodeId>& seeds, double lambda,
    const McOptions& options = {});

/// Expected *positive* spread under IC-N (diffusion/icn_model.h) with
/// uniform quality factor `quality_factor`.
double EstimateIcnPositiveSpread(const Graph& graph,
                                 const InfluenceParams& params,
                                 double quality_factor,
                                 const std::vector<NodeId>& seeds,
                                 const McOptions& options = {});

/// Expected opinion spread under OC (LT first layer, phi ≡ 1).
double EstimateOcOpinionSpread(const Graph& graph,
                               const InfluenceParams& influence,
                               const OpinionParams& opinions,
                               const std::vector<NodeId>& seeds,
                               const McOptions& options = {});

}  // namespace holim

#endif  // HOLIM_DIFFUSION_SPREAD_ESTIMATOR_H_
