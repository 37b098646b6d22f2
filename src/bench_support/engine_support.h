#ifndef HOLIM_BENCH_SUPPORT_ENGINE_SUPPORT_H_
#define HOLIM_BENCH_SUPPORT_ENGINE_SUPPORT_H_

// Glue between the bench harness and HolimEngine: every figure/table
// binary (and holim_cli) dispatches its algorithm runs through an engine
// with a SolveRequest prefilled here, instead of hand-constructing
// selectors — one dispatch path, and the Workspace amortizes sketch
// arenas / scorer state across a binary's queries.

#include <memory>
#include <string>

#include "bench_support/experiment.h"
#include "diffusion/sketch_oracle.h"
#include "engine/holim_engine.h"
#include "model/influence_params.h"

namespace holim {

/// SolveRequest prefilled from the shared bench config and common flag
/// family. Benches run their own evaluation sweeps, so evaluate_spread is
/// off; flip it (or any other knob) on the returned request as needed.
inline SolveRequest MakeSolveRequest(std::string algorithm, uint32_t k,
                                     const InfluenceParams& params,
                                     const CommonBenchConfig& config,
                                     const CommonOptions& common = {}) {
  SolveRequest request;
  request.algorithm = std::move(algorithm);
  request.k = k;
  request.params = &params;
  request.mc = config.mc;
  request.seed = config.seed;
  request.oracle = common.oracle;
  request.incremental_rescore = common.incremental_rescore;
  request.threads = common.threads;
  // The query kind and budget carry over directly; the graph-dependent
  // vectors (node_costs / target_weights / given_seeds) are materialized
  // by the caller from the raw specs (bench_support/query_support.h).
  request.query = common.query;
  request.budget = common.budget;
  request.evaluate_spread = false;
  return request;
}

/// The bench binaries' shared sketch-oracle acquisition: the arena a
/// MakeSolveRequest sketch solve reads (R = config.mc worlds at
/// config.seed, so the sketch and MC estimators see comparable sample
/// sizes), sampled serially per the figure methodology and cached in the
/// engine's Workspace. `seed_offset` picks an independently seeded world
/// set (fig6de's train/eval split); `record_edge_offsets` only for the
/// opinion-replay benches.
inline Result<std::shared_ptr<const SketchOracle>> GetBenchSketchOracle(
    HolimEngine& engine, const Graph& graph, const InfluenceParams& params,
    const CommonBenchConfig& config, uint64_t seed_offset = 0,
    bool record_edge_offsets = false) {
  SolveRequest request = MakeSolveRequest("", 1, params, config);
  request.seed += seed_offset;
  SketchKey key =
      HolimEngine::SketchKeyFor(request, FingerprintParams(params));
  key.edge_offsets = record_edge_offsets;
  return engine.workspace().GetSketchOracle(graph, params, key);
}

}  // namespace holim

#endif  // HOLIM_BENCH_SUPPORT_ENGINE_SUPPORT_H_
