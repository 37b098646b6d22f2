#ifndef HOLIM_ENGINE_HOLIM_ENGINE_H_
#define HOLIM_ENGINE_HOLIM_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "engine/registry.h"
#include "engine/solve_request.h"
#include "engine/workspace.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace holim {

struct EngineOptions {
  /// Workspace artifact budget in bytes (0 = unlimited). Enforced by LRU
  /// eviction between solves.
  std::size_t max_cache_bytes = 0;
  /// Hard budget mode (off by default): with max_cache_bytes set, an
  /// artifact admission that still exceeds the budget after one LRU
  /// evict-and-retry fails the solve with kResourceExhausted instead of
  /// keeping the cache over budget (see Workspace::set_hard_budget).
  bool hard_cache_budget = false;
};

/// \brief Long-lived facade serving influence-maximization queries over
/// one graph: `SolveRequest{algorithm, model, k, ...} -> SolveResult`.
///
/// The engine dispatches through the global AlgorithmRegistry (every
/// selector in src/algo/ registers a factory) and owns a Workspace that
/// caches the expensive artifacts — sketch-oracle arenas and stateful
/// selector instances (score-sweep tables, sketch sessions) — across
/// successive solves, keyed by the *content* of the model parameters plus
/// every request knob. A warm solve is bitwise-identical to a cold one
/// (see Workspace); what it skips is sampling and allocation, which is
/// what makes a k-sweep or an algorithm-comparison batch pay those once.
///
/// ## Streaming deltas
///
/// ApplyDelta advances the engine onto an edited graph without discarding
/// the workspace wholesale: the engine owns a StreamingGraph epoch chain,
/// re-maps the caller's params onto the new EdgeIds, patches compatible
/// sketch artifacts in place (SketchOracle::ApplyDelta through
/// Workspace::ApplyGraphDelta) and evicts the rest, so every artifact left
/// describes the new graph and no cache key needs to name the epoch. The
/// correctness contract is absolute: a warm solve after ApplyDelta is
/// bitwise identical to a cold engine built on the mutated graph.
///
/// Not thread-safe: one engine serves one solve at a time (shard inside a
/// solve via SolveRequest::threads). The bound graph — and any
/// InfluenceParams/OpinionParams handed to Solve — must outlive the
/// engine.
class HolimEngine {
 public:
  explicit HolimEngine(const Graph& graph, const EngineOptions& options = {});

  /// Runs one query. On success the result carries seeds, per-round
  /// scores, the oracle spread estimate (when requested), the query-kind
  /// outputs (total cost, targeted spread, per-seed contributions),
  /// timings, and artifact bookkeeping. Typed failures:
  ///  * InvalidArgument — unknown algorithm, missing opinion layer, k out
  ///    of range, or malformed query fields (bad costs/budget/weights/
  ///    given seeds for the requested QueryKind);
  ///  * Unimplemented — the algorithm does not advertise the requested
  ///    QueryKind in AlgorithmInfo::supported_queries (the engine never
  ///    silently falls back to top-k).
  /// kEvaluate/kExplain never build a selector: they score
  /// `given_seeds` straight through the oracle (explain requires the
  /// sketch oracle; its contributions come from one committed session
  /// pass over the session bitsets).
  Result<SolveResult> Solve(const SolveRequest& request);

  /// Outcome of one ApplyDelta call. `params` is the caller's params
  /// re-mapped onto the new graph's EdgeIds (copied verbatim when the
  /// delta resolved to nothing); subsequent SolveRequests must point at
  /// it (or an equal remapping), not at the pre-delta params.
  struct DeltaReport {
    uint64_t epoch = 0;        ///< streaming epoch after the call
    bool effective = false;    ///< false: delta resolved to no-op
    std::size_t inserted = 0;
    std::size_t removed = 0;
    std::size_t reweighted = 0;
    std::size_t patched_sketches = 0;   ///< artifacts patched in place
    /// Artifacts dropped: stale ones (selectors, mismatched fingerprints,
    /// failed patches) plus any budget evictions forced by patched arenas
    /// growing past max_cache_bytes (enforced here too, not only between
    /// solves).
    std::size_t evicted_artifacts = 0;
    InfluenceParams params;
  };

  /// Applies one delta batch to the engine's graph and migrates the
  /// workspace: sketch oracles built for `params` (the first-layer params
  /// the caller has been solving with, sized for the *current* graph) are
  /// patched in place; all other artifacts are evicted. InvalidArgument if
  /// `params` does not match the current graph or the batch itself is
  /// malformed (self-loop, bad probability); on error the engine is
  /// unchanged.
  Result<DeltaReport> ApplyDelta(const GraphDelta& delta,
                                 const InfluenceParams& params);

  const Graph& graph() const { return *graph_; }
  Workspace& workspace() { return workspace_; }
  const Workspace& workspace() const { return workspace_; }

  /// Streaming epoch (0 until the first effective ApplyDelta).
  uint64_t epoch() const { return streaming_ ? streaming_->epoch() : 0; }

  /// The Workspace key of the sketch arena a solve of `request` reads:
  /// R = request.EffectiveSketchCount() worlds at request.seed, without
  /// edge offsets, under params fingerprint `params_fp`. Solve, the
  /// evaluate path, the factories' sketch objectives (through
  /// SolveContext::sketch_key), the bench harness and holimd's admission
  /// all name their arena through this one derivation.
  static SketchKey SketchKeyFor(const SolveRequest& request,
                                uint64_t params_fp);

  /// The registry behind Solve (built-ins registered).
  static const AlgorithmRegistry& Registry() {
    return AlgorithmRegistry::Global();
  }

 private:
  /// Engine-owned pool for `threads` workers (created on first use;
  /// nullptr for 0, which each kernel reads as SolveRequest::threads
  /// states). Owning the pools keeps cached selectors' pool pointers valid
  /// for the engine's lifetime.
  ThreadPool* PoolFor(uint32_t threads);

  /// Selector cache key: canonical algorithm + params/opinions
  /// fingerprints + every request knob except k and budget (both are
  /// call-time arguments of the selector). The query kind and the
  /// content fingerprints of node_costs / target_weights / given_seeds
  /// are folded in. `params_fp` is the solve's
  /// FingerprintParams(*request.params).
  std::string SelectorKey(const AlgorithmInfo& info,
                          const SolveRequest& request,
                          uint64_t params_fp) const;

  /// The kEvaluate/kExplain path: no selector, score `given_seeds`
  /// through the oracle (sketch session for explain). `total_timer` is
  /// Solve's end-to-end timer.
  Result<SolveResult> SolveGivenSeeds(const SolveRequest& request,
                                      const Timer& total_timer);

  // Points at the caller's base graph until the first effective delta,
  // then at streaming_'s current epoch.
  const Graph* graph_;
  // Declared before workspace_ on purpose: cached selectors hold pool
  // pointers, and cached sketches reference streaming_-owned graphs, so
  // both must outlive the workspace during teardown.
  std::map<uint32_t, std::unique_ptr<ThreadPool>> pools_;
  std::unique_ptr<StreamingGraph> streaming_;  // created by first ApplyDelta
  Workspace workspace_;
};

}  // namespace holim

#endif  // HOLIM_ENGINE_HOLIM_ENGINE_H_
