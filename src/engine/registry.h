#ifndef HOLIM_ENGINE_REGISTRY_H_
#define HOLIM_ENGINE_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/seed_selector.h"
#include "engine/solve_request.h"
#include "engine/workspace.h"
#include "graph/graph.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace holim {

/// Everything a registered factory gets to build a selector: the engine's
/// graph, the validated request, the workspace (for shared artifacts like
/// the sketch oracle), and the engine-owned pool for `request.threads`
/// (nullptr when serial).
struct SolveContext {
  const Graph& graph;
  const SolveRequest& request;
  Workspace& workspace;
  ThreadPool* pool = nullptr;
  /// The request's sketch arena (HolimEngine::SketchKeyFor), whose params
  /// fingerprint the engine took once for every Workspace key of the solve
  /// (or was handed as request.params_fingerprint).
  SketchKey sketch_key;
  /// The solve's deadline (borrowed, may be null — and last on purpose, so
  /// deadline-free aggregate initializations stay valid). Factories thread
  /// it into artifact builds (SketchOptions::deadline, McOptions::deadline);
  /// the engine binds it to the selector itself via set_deadline. Never
  /// stored in Workspace cache entries — it dies with the solve.
  Deadline* deadline = nullptr;
};

/// Capability bit of one query kind (for AlgorithmInfo::supported_queries).
inline constexpr uint32_t QueryBit(QueryKind kind) {
  return uint32_t{1} << static_cast<uint32_t>(kind);
}

/// The capability mask every algorithm supports for free: top-k selection
/// plus the oracle-side evaluate/explain endpoints (those score
/// caller-supplied seeds through the Workspace's sketch oracle / MC
/// estimator, so the algorithm choice never constrains them).
inline constexpr uint32_t kBaseQueries = QueryBit(QueryKind::kTopK) |
                                         QueryBit(QueryKind::kEvaluate) |
                                         QueryBit(QueryKind::kExplain);

/// "topk,evaluate,explain"-style rendering of a capability mask, in
/// QueryKind declaration order (for --list-algorithms and error text).
std::string QueryMaskNames(uint32_t mask);

/// \brief One registry row: the canonical name every CLI/bench dispatch
/// uses, plus the metadata `holim_cli --list-algorithms` prints and the
/// factory HolimEngine::Solve calls on a selector-cache miss.
struct AlgorithmInfo {
  /// Canonical registry key, e.g. "easyim", "tim+", "celf++".
  std::string name;
  /// Accepted alternative spellings (e.g. "tim" for "tim+").
  std::vector<std::string> aliases;
  /// Human-readable supported first-layer models, e.g. "IC, WC, LT".
  std::string models;
  /// Artifact kinds this algorithm keeps in the Workspace across solves
  /// ("none" for stateless heuristics).
  std::string artifacts;
  /// Requires SolveRequest::opinions.
  bool needs_opinions = false;
  /// QueryBit mask of the query kinds this algorithm can answer.
  /// HolimEngine::Solve rejects an unsupported (algorithm, kind) pair with
  /// a typed Unimplemented error instead of silently running top-k. The
  /// cost/weight-aware selectors (greedy, celf, celf++) additionally set
  /// kBudgeted and kTargeted.
  uint32_t supported_queries = kBaseQueries;
  /// Select(k) returns the first k seeds and seed scores of Select(K) for
  /// every k <= K, bit for bit: the selector picks one seed per round and
  /// no round reads k. HolimEngine then answers a top-k solve from the
  /// cached selector's prefix memo (see PrefixMemo) when it has already run
  /// a K >= k. Leave it unset when k steers the run: TIM+'s and IMM's
  /// sample size θ depends on k, and IMRank stops once its top-k set is
  /// stable. A ranking by score is nested only under a total order, which
  /// is why degree and PageRank break ties by node id.
  bool prefix_nested = false;
  /// Builds a fresh selector for the request. Must be deterministic in the
  /// request: the parity contract (engine solve == direct selector call,
  /// warm == cold) holds because this is the only construction path.
  std::function<Result<std::unique_ptr<SeedSelector>>(const SolveContext&)>
      factory;
};

/// \brief Process-global name -> factory table behind HolimEngine.
///
/// The built-in algorithms (engine/algorithms.cc) self-register on first
/// engine/registry use; embedders may Register additional algorithms
/// before or after (names must be unique, checked).
class AlgorithmRegistry {
 public:
  /// The global registry with the built-ins registered.
  static AlgorithmRegistry& Global();

  /// Registers `info`; aborts on a duplicate canonical name or alias.
  void Register(AlgorithmInfo info);

  /// Looks up a canonical name or alias; nullptr when unknown.
  const AlgorithmInfo* Find(const std::string& name) const;

  /// All entries, sorted by canonical name.
  std::vector<const AlgorithmInfo*> List() const;

  /// "a, b, c" over canonical names (for error messages / --help).
  std::string NamesOneLine() const;

 private:
  std::vector<std::unique_ptr<AlgorithmInfo>> entries_;
};

}  // namespace holim

#endif  // HOLIM_ENGINE_REGISTRY_H_
