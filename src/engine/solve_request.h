#ifndef HOLIM_ENGINE_SOLVE_REQUEST_H_
#define HOLIM_ENGINE_SOLVE_REQUEST_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/oi_model.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/deadline.h"

namespace holim {

/// What HolimEngine::Solve does when a deadline/work budget expires or the
/// cancel token fires mid-solve.
///
///  * kFail    — return the deadline's status (kDeadlineExceeded or
///               kCancelled) as the Solve error; no partial result.
///  * kDegrade — return the best result completed so far: the selector's
///               prefix seeds when at least one greedy round finished, else
///               an instant DegreeDiscountIC fallback (see ResultTier).
///               Solve succeeds, with SolveResult::degraded = true.
enum class OnDeadline { kFail, kDegrade };

/// Quality tier of a SolveResult (meaningful mainly when degraded).
///
///  * kFull      — the algorithm ran to completion (degraded = false).
///  * kPrefix    — a deadline stopped the selector at a round boundary;
///                 `seeds` is the exact prefix the untimed run would have
///                 selected first (greedy rounds are prefix-valid).
///  * kHeuristic — no round completed before expiry; `seeds` comes from the
///                 DegreeDiscountIC fallback tier instead.
enum class ResultTier { kFull, kPrefix, kHeuristic };

/// Canonical lowercase tier name ("full", "prefix", "heuristic").
inline const char* ResultTierName(ResultTier tier) {
  switch (tier) {
    case ResultTier::kFull: return "full";
    case ResultTier::kPrefix: return "prefix";
    case ResultTier::kHeuristic: return "heuristic";
  }
  return "?";
}

/// Which spread-estimation backend the MC-objective selectors (GREEDY,
/// CELF/CELF++) and the engine's spread evaluation use. "mc" — the paper's
/// Monte-Carlo methodology — is the default everywhere; "sketch"
/// presamples live-edge snapshots once (diffusion/sketch_oracle.*) and
/// reuses them across all evaluations (and, through the engine Workspace,
/// across successive solves on the same graph).
enum class SpreadOracle { kMonteCarlo, kSketch };

/// \brief The engine's query vocabulary: what question a SolveRequest asks
/// over the bound graph. All kinds dispatch through HolimEngine::Solve and
/// share the Workspace artifacts; they differ in which request fields they
/// read and which SolveResult fields they fill.
///
///  * kTopK     — classic unconstrained top-k seed selection (the default;
///                byte-identical to the pre-query-vocabulary engine).
///  * kBudgeted — benefit-per-cost lazy greedy under a total budget:
///                reads `node_costs` (empty = uniform 1.0) and `budget`,
///                selects until no affordable node remains (at most k),
///                fills `total_cost`. With uniform unit costs and
///                budget == k the selection is bitwise-identical to kTopK.
///  * kTargeted — maximize spread over a weighted node subset: reads
///                `target_weights` (one per node), requires the sketch
///                oracle (weighted popcount per lane group), fills
///                `targeted_spread`. With all-ones weights the selection
///                and spread are bitwise-identical to kTopK.
///  * kEvaluate — no selection: score the caller-supplied `given_seeds`
///                through the requested oracle (plus the weighted spread
///                when `target_weights` is set, and `total_cost` when
///                `node_costs` is set).
///  * kExplain  — kEvaluate plus attribution: per-seed marginal
///                contributions from the sketch session bitsets, in
///                `given_seeds` order (`seed_contributions`; they
///                telescope, so their sum equals the evaluate spread
///                bitwise). Requires the sketch oracle.
enum class QueryKind { kTopK, kBudgeted, kTargeted, kEvaluate, kExplain };

/// Every query kind, in declaration order — the one list the CLI help
/// text, the capability mask printer, and the docs gate all derive from.
inline constexpr QueryKind kAllQueryKinds[] = {
    QueryKind::kTopK, QueryKind::kBudgeted, QueryKind::kTargeted,
    QueryKind::kEvaluate, QueryKind::kExplain};

/// Canonical lowercase name, as spelled by `holim_cli --query=`.
inline const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTopK: return "topk";
    case QueryKind::kBudgeted: return "budgeted";
    case QueryKind::kTargeted: return "targeted";
    case QueryKind::kEvaluate: return "evaluate";
    case QueryKind::kExplain: return "explain";
  }
  return "?";
}

/// \brief One influence-maximization query against a HolimEngine.
///
/// The engine binds the graph at construction; a request names a
/// registered algorithm plus the model data and knobs. Fields that a given
/// algorithm does not consume are ignored (e.g. `epsilon` for EaSyIM) —
/// defaults mirror the historical per-binary defaults so that an engine
/// solve is bitwise-identical to the direct selector construction it
/// replaced.
struct SolveRequest {
  /// Registry name or alias (see AlgorithmRegistry / `holim_cli
  /// --list-algorithms`), e.g. "easyim", "tim+", "celf++".
  std::string algorithm;
  uint32_t k = 50;

  /// Which question this request asks (see QueryKind). The algorithm must
  /// advertise the kind in its AlgorithmInfo::supported_queries mask or
  /// Solve fails with a typed Unimplemented error.
  QueryKind query = QueryKind::kTopK;
  /// kBudgeted: per-node selection cost (one entry per node, all > 0);
  /// empty = uniform cost 1.0. Also read by kEvaluate/kExplain to report
  /// `total_cost`.
  std::vector<double> node_costs;
  /// kBudgeted: total cost budget (> 0 required).
  double budget = 0.0;
  /// kTargeted: per-node spread weight (one entry per node, all >= 0,
  /// finite). Also read by kEvaluate/kExplain to score the weighted
  /// objective. Empty = untargeted.
  std::vector<double> target_weights;
  /// kEvaluate/kExplain: the caller-supplied seed set to score.
  std::vector<NodeId> given_seeds;

  /// First-layer model parameters (required; must outlive the solve and,
  /// for warm reuse, the engine — cached artifacts key on their content).
  const InfluenceParams* params = nullptr;
  /// Opinion layer (required by opinion-aware algorithms: osim, and it
  /// switches greedy/celf/celf++ to the effective-opinion objective).
  const OpinionParams* opinions = nullptr;
  OiBase oi_base = OiBase::kIndependentCascade;
  /// Negative-opinion penalty of the MEO objective.
  double lambda = 1.0;

  /// EaSyIM/OSIM/path-union/ASIM path-length horizon.
  uint32_t l = 3;
  /// TIM+/IMM approximation slack.
  double epsilon = 0.1;
  /// TIM+/IMM RR-set safety cap (0 = uncapped).
  std::size_t max_theta = 2'000'000;
  /// DegreeDiscountIC's uniform-p assumption.
  double p = 0.1;
  /// Monte-Carlo simulations per objective evaluation / spread estimate.
  uint32_t mc = 200;
  /// RNG seed for the MC objectives, the sketch oracle, and "random".
  uint64_t seed = 42;

  SpreadOracle oracle = SpreadOracle::kMonteCarlo;
  /// Sketch-oracle snapshot count R (0 = use `mc`); only read when
  /// `oracle == kSketch`.
  uint32_t num_sketches = 0;
  /// StaticGreedy's internal snapshot count (its own sample, distinct from
  /// the shared sketch oracle by design — the algorithm owns its worlds).
  uint32_t num_snapshots = 100;

  /// EaSyIM/OSIM: dirty-frontier incremental rescore between greedy rounds
  /// instead of the paper's full O(l(m+n)) recompute. Seeds are bitwise
  /// identical either way.
  bool incremental_rescore = false;
  /// Worker threads for the sharded kernels (0 = serial). Every parallel
  /// path in the repo is bitwise thread-count-invariant, so this never
  /// changes results — it is still part of the selector cache key so a
  /// cached selector keeps the pool it was built with.
  uint32_t threads = 0;

  /// Evaluate sigma(S) of the result through the requested oracle and
  /// report it in SolveResult::spread. Off for callers that run their own
  /// evaluation sweeps (the figure benches).
  bool evaluate_spread = true;

  /// Wall-clock deadline in milliseconds for this solve (0 = none). With
  /// no deadline, no budget, and no token the solve path is byte-identical
  /// to pre-deadline builds (checkpoints compile to a null-pointer test).
  double deadline_ms = 0.0;
  /// Deterministic work budget in checkpoint ticks (0 = none). Takes
  /// precedence over deadline_ms when both are set: expiry then lands at
  /// the same checkpoint on every run and machine, so degraded output is
  /// bitwise reproducible (the contract deadline_test pins).
  uint64_t work_budget = 0;
  /// Optional cooperative cancel token, polled at the same checkpoints as
  /// the deadline (borrowed; must outlive the solve). May be set alone —
  /// cancellation works without any deadline.
  const CancelToken* cancel_token = nullptr;
  /// Clock behind deadline_ms (borrowed; nullptr = the real steady clock).
  /// Tests inject a ManualClock here to fire wall deadlines on cue.
  const Clock* clock = nullptr;
  /// Expiry policy; only consulted once a deadline/budget/token actually
  /// fires. Defaults to degrade (return best-so-far) per the engine's
  /// "always answer" contract; kFail restores strict error semantics.
  OnDeadline on_deadline = OnDeadline::kDegrade;

  /// The sketch-oracle snapshot count this request implies (the 0 =
  /// mirror-mc rule, defined once: Workspace keys, factories, and CLI
  /// output must all agree on it).
  uint32_t EffectiveSketchCount() const {
    return num_sketches != 0 ? num_sketches : mc;
  }
};

/// \brief Outcome of HolimEngine::Solve: the selection plus engine-level
/// bookkeeping (artifact reuse, cache footprint, timings).
struct SolveResult {
  std::vector<NodeId> seeds;
  /// Algorithm-internal score of each chosen seed, round by round (empty
  /// if the algorithm reports none) — same as SeedSelection::seed_scores.
  std::vector<double> seed_scores;
  /// The selector's display name, e.g. "EaSyIM(l=3)".
  std::string algorithm;
  /// The query kind this result answers (copied from the request).
  QueryKind query = QueryKind::kTopK;

  /// sigma(S) through the requested oracle; 0 when `evaluate_spread` was
  /// off.
  double spread = 0.0;
  /// kBudgeted/kEvaluate/kExplain with costs: total cost of `seeds` under
  /// the request's node_costs (uniform 1.0 when they were empty).
  double total_cost = 0.0;
  /// kTargeted (and kEvaluate/kExplain with target_weights): the weighted
  /// spread sigma_w(S) over the frozen sketch worlds. With all-ones
  /// weights this is bitwise equal to `spread`.
  double targeted_spread = 0.0;
  /// kExplain: per-seed marginal contribution, in `seeds` order —
  /// contribution[i] is the (weighted, when targeted) spread gain of
  /// seeds[i] given seeds[0..i). Contributions telescope, so their sum is
  /// bitwise equal to the evaluate spread of the same seed set.
  std::vector<double> seed_contributions;

  /// Select(k) wall time as reported by the selector.
  double select_seconds = 0.0;
  /// Time spent building Workspace artifacts for this solve (0 on a fully
  /// warm solve).
  double artifact_seconds = 0.0;
  /// Time spent in the final spread evaluation.
  double spread_seconds = 0.0;
  /// End-to-end Solve() wall time.
  double total_seconds = 0.0;

  /// Best-effort RSS overhead and exact scorer scratch, forwarded from
  /// SeedSelection.
  std::size_t overhead_bytes = 0;
  std::size_t scratch_bytes = 0;

  /// True when the selector / sketch-oracle artifact was served from the
  /// Workspace instead of built for this solve.
  bool warm_selector = false;
  bool warm_sketch = false;
  /// Snapshot-arena bytes of the sketch oracle used (0 under the MC
  /// oracle). Capacity-based, the repo-wide accounting convention.
  std::size_t sketch_arena_bytes = 0;
  /// Workspace footprint after this solve (peak artifact bytes held;
  /// capacity-based).
  std::size_t workspace_bytes = 0;

  /// True when a deadline/budget/cancellation stopped this solve early and
  /// the engine degraded instead of failing (request.on_deadline ==
  /// kDegrade). `seeds` then holds the tier's best-so-far answer.
  bool degraded = false;
  /// Quality tier of `seeds` (kFull unless degraded; see ResultTier).
  ResultTier tier = ResultTier::kFull;
  /// Greedy rounds (seeds) the selector completed before expiry; equals
  /// seeds.size() for kFull/kPrefix, 0 for kHeuristic.
  uint32_t rounds_completed = 0;
  /// Human-readable cause of a degraded result, e.g. "DeadlineExceeded:
  /// work budget exhausted"; empty when not degraded.
  std::string degradation_reason;

  /// Algorithm-specific counters from SeedSelector::LastRunStats(), e.g.
  /// TIM+'s {"theta", "theta_capped", "rr_memory_bytes", ...}.
  ///
  /// Lookup contract: the engine sorts these by name ONCE per solve, so
  /// Stat() is a binary search — benches that probe several counters per
  /// round no longer pay a linear scan each. Callers that fill `stats`
  /// by hand must keep them name-sorted (or call SortStats()).
  std::vector<std::pair<std::string, double>> stats;

  /// Restores the sorted-by-name invariant `Stat` relies on (stable, so
  /// a duplicated name keeps its original relative order).
  void SortStats() {
    std::stable_sort(
        stats.begin(), stats.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  /// First stat named `name`, or `fallback` when absent. O(log #stats)
  /// over the name-sorted vector (see `stats`).
  double Stat(const std::string& name, double fallback = 0.0) const {
    const auto it = std::lower_bound(
        stats.begin(), stats.end(), name,
        [](const auto& entry, const std::string& key) {
          return entry.first < key;
        });
    if (it != stats.end() && it->first == name) return it->second;
    return fallback;
  }
};

}  // namespace holim

#endif  // HOLIM_ENGINE_SOLVE_REQUEST_H_
