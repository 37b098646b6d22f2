#include "diffusion/spread_estimator.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "diffusion/icn_model.h"
#include "diffusion/independent_cascade.h"
#include "diffusion/linear_threshold.h"
#include "diffusion/oc_model.h"
#include "util/rng.h"

namespace holim {

namespace {

/// Simulations are partitioned into fixed blocks of this many; the block
/// decomposition depends only on num_simulations, never the pool.
constexpr std::size_t kMcBlockSize = 128;
/// Salt for deriving per-simulation streams (kept distinct from the RR
/// engine's and the sketch oracle's salts; the streams must stay
/// unrelated).
constexpr uint64_t kMcSeedSalt = 0x1234567ULL;

/// Independent RNG stream for simulation `sim_index`, derived from
/// McOptions::seed alone — the determinism contract of the estimators:
/// simulation i draws the same randomness no matter which thread (or how
/// many threads) runs it.
Rng McSimulationRng(uint64_t seed, uint32_t sim_index) {
  uint64_t state = seed + kMcSeedSalt * (sim_index + 1);
  return Rng(Rng::SplitMix64(state));
}

/// Runs `options.num_simulations` simulations in fixed kMcBlockSize blocks
/// over the pool. `block_fn(sim_begin, sim_end, acc)` must construct its
/// simulator once, then loop simulations deriving each stream via
/// McSimulationRng(seed, i), summing metrics into acc[0..num_metrics).
/// Block partials are reduced in block-index order, so together with the
/// per-simulation streams the result is bitwise identical for any thread
/// count (verified by the ThreadCountInvariant tests).
template <typename BlockFn>
std::vector<double> RunSharded(const McOptions& options,
                               std::size_t num_metrics, BlockFn block_fn) {
  std::vector<double> total(num_metrics, 0.0);
  const uint32_t sims = options.num_simulations;
  if (sims == 0) return total;
  ThreadPool& pool = options.pool ? *options.pool : DefaultThreadPool();
  const std::size_t num_blocks = (sims + kMcBlockSize - 1) / kMcBlockSize;
  std::vector<double> partial(num_blocks * num_metrics, 0.0);
  pool.ParallelForBlocks(
      sims, kMcBlockSize, [&](std::size_t lo, std::size_t hi) {
        if (options.deadline && options.deadline->StopRequested()) return;
        block_fn(static_cast<uint32_t>(lo), static_cast<uint32_t>(hi),
                 partial.data() + (lo / kMcBlockSize) * num_metrics);
      });
  for (std::size_t b = 0; b < num_blocks; ++b) {
    for (std::size_t i = 0; i < num_metrics; ++i) {
      total[i] += partial[b * num_metrics + i];
    }
  }
  for (double& t : total) t /= sims;
  return total;
}

}  // namespace

double EstimateSpread(const Graph& graph, const InfluenceParams& params,
                      const std::vector<NodeId>& seeds,
                      const McOptions& options) {
  if (seeds.empty()) return 0.0;
  auto result = RunSharded(options, 1, [&](uint32_t lo, uint32_t hi,
                                           double* acc) {
    if (params.model == DiffusionModel::kLinearThreshold) {
      LtSimulator sim(graph, params);
      for (uint32_t i = lo; i < hi; ++i) {
        Rng rng = McSimulationRng(options.seed, i);
        acc[0] +=
            static_cast<double>(sim.Run(seeds, rng).SpreadCount(seeds.size()));
      }
    } else {
      IcSimulator sim(graph, params);
      for (uint32_t i = lo; i < hi; ++i) {
        Rng rng = McSimulationRng(options.seed, i);
        acc[0] +=
            static_cast<double>(sim.Run(seeds, rng).SpreadCount(seeds.size()));
      }
    }
  });
  return result[0];
}

double EstimateIcnPositiveSpread(const Graph& graph,
                                 const InfluenceParams& params,
                                 double quality_factor,
                                 const std::vector<NodeId>& seeds,
                                 const McOptions& options) {
  if (seeds.empty()) return 0.0;
  auto result = RunSharded(options, 1, [&](uint32_t lo, uint32_t hi,
                                           double* acc) {
    IcnSimulator sim(graph, params, quality_factor);
    for (uint32_t i = lo; i < hi; ++i) {
      Rng rng = McSimulationRng(options.seed, i);
      acc[0] += static_cast<double>(sim.Run(seeds, rng).PositiveSpread());
    }
  });
  return result[0];
}

OpinionSpreadEstimate EstimateOpinionSpread(
    const Graph& graph, const InfluenceParams& influence,
    const OpinionParams& opinions, OiBase base,
    const std::vector<NodeId>& seeds, double lambda, const McOptions& options) {
  OpinionSpreadEstimate estimate;
  if (seeds.empty()) return estimate;
  auto result = RunSharded(options, 3, [&](uint32_t lo, uint32_t hi,
                                           double* acc) {
    OiSimulator sim(graph, influence, opinions, base);
    for (uint32_t i = lo; i < hi; ++i) {
      Rng rng = McSimulationRng(options.seed, i);
      const OpinionCascade& oc = sim.Run(seeds, rng);
      acc[0] += oc.OpinionSpread();
      acc[1] += oc.EffectiveOpinionSpread(lambda);
      acc[2] += static_cast<double>(oc.cascade->SpreadCount(oc.num_seeds));
    }
  });
  estimate.opinion_spread = result[0];
  estimate.effective_opinion_spread = result[1];
  estimate.plain_spread = result[2];
  return estimate;
}

double EstimateOcOpinionSpread(const Graph& graph,
                               const InfluenceParams& influence,
                               const OpinionParams& opinions,
                               const std::vector<NodeId>& seeds,
                               const McOptions& options) {
  if (seeds.empty()) return 0.0;
  auto result = RunSharded(options, 1, [&](uint32_t lo, uint32_t hi,
                                           double* acc) {
    OcSimulator sim(graph, influence, opinions);
    for (uint32_t i = lo; i < hi; ++i) {
      Rng rng = McSimulationRng(options.seed, i);
      acc[0] += sim.Run(seeds, rng).OpinionSpread();
    }
  });
  return result[0];
}

}  // namespace holim
