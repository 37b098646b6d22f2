#include "engine/holim_engine.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "algo/heuristics.h"
#include "diffusion/spread_estimator.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace holim {

namespace {

/// Bit-exact rendering of a double for cache keys: std::to_string
/// truncates to 6 decimals, which would collide distinct knob values onto
/// one key and silently warm-reuse the wrong selector.
std::string KeyBits(double value) {
  return std::to_string(std::bit_cast<uint64_t>(value));
}

/// Shape/range checks of the query-family request fields against the
/// bound graph, before any artifact is built. Kind-agnostic fields
/// (node_costs) are validated whenever present, so kEvaluate's
/// total_cost reporting meets the same contract as kBudgeted's
/// selection.
Status ValidateQueryFields(const SolveRequest& r, uint32_t num_nodes) {
  if (!r.node_costs.empty()) {
    if (r.node_costs.size() != num_nodes) {
      return Status::InvalidArgument(
          "node_costs must have one entry per node (" +
          std::to_string(r.node_costs.size()) + " given, " +
          std::to_string(num_nodes) + " nodes)");
    }
    for (const double c : r.node_costs) {
      if (!std::isfinite(c) || !(c > 0.0)) {
        return Status::InvalidArgument("node costs must be finite and > 0");
      }
    }
  }
  if (!r.target_weights.empty()) {
    if (r.target_weights.size() != num_nodes) {
      return Status::InvalidArgument(
          "target_weights must have one entry per node (" +
          std::to_string(r.target_weights.size()) + " given, " +
          std::to_string(num_nodes) + " nodes)");
    }
    for (const double w : r.target_weights) {
      if (!std::isfinite(w) || w < 0.0) {
        return Status::InvalidArgument(
            "target weights must be finite and >= 0");
      }
    }
  }
  switch (r.query) {
    case QueryKind::kTopK:
      break;
    case QueryKind::kBudgeted:
      if (!std::isfinite(r.budget) || !(r.budget > 0.0)) {
        return Status::InvalidArgument(
            "kBudgeted requires a finite budget > 0");
      }
      break;
    case QueryKind::kTargeted:
      if (r.target_weights.empty()) {
        return Status::InvalidArgument(
            "kTargeted requires target_weights (one per node)");
      }
      if (r.oracle != SpreadOracle::kSketch) {
        return Status::InvalidArgument(
            "kTargeted requires the sketch oracle (weighted spread is "
            "evaluated over the frozen snapshot worlds)");
      }
      break;
    case QueryKind::kEvaluate:
    case QueryKind::kExplain:
      if (r.given_seeds.empty()) {
        return Status::InvalidArgument(
            std::string(QueryKindName(r.query)) +
            " requires a non-empty given_seeds set");
      }
      for (const NodeId s : r.given_seeds) {
        if (s >= num_nodes) {
          return Status::InvalidArgument("given seed id " +
                                         std::to_string(s) +
                                         " out of range");
        }
      }
      if (r.query == QueryKind::kExplain &&
          r.oracle != SpreadOracle::kSketch) {
        return Status::InvalidArgument(
            "kExplain requires the sketch oracle (contributions come "
            "from the session bitsets)");
      }
      if (!r.target_weights.empty() && r.oracle != SpreadOracle::kSketch) {
        return Status::InvalidArgument(
            "weighted evaluation requires the sketch oracle");
      }
      break;
  }
  return Status::OK();
}

/// The solve's one params fingerprint, which every Workspace key of the
/// solve is built from: the caller's stored value when it supplies one
/// (SolveRequest::params_fingerprint), else a hash of the probabilities.
uint64_t ParamsFingerprintOf(const SolveRequest& r) {
  return r.params_fingerprint ? *r.params_fingerprint
                              : FingerprintParams(*r.params);
}

/// A deadline-layer stop (as opposed to a real error the degrade tier must
/// never swallow).
bool IsStopStatus(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

/// Binds a deadline to a selector for one Select call and guarantees the
/// unbind on every exit path — a cached selector outlives the solve, and
/// the Deadline lives on Solve's stack.
struct ScopedSelectorDeadline {
  SeedSelector* selector = nullptr;
  ~ScopedSelectorDeadline() {
    if (selector) selector->set_deadline(nullptr);
  }
};

/// The engine's last-resort degradation tier: DegreeDiscountIC, which runs
/// in O(m + n log n) with no sampling — always fast enough to answer after
/// the real algorithm's budget is gone. For budgeted queries the ranking
/// is walked greedily under the budget; for targeted queries the plain
/// top-k ranking stands in (the weights are ignored — documented tier
/// semantics, not an oversight).
Result<SeedSelection> HeuristicTierSelect(const Graph& graph,
                                          const SolveRequest& request,
                                          std::string* tier_name) {
  DegreeDiscountSelector fallback(graph, request.p);
  *tier_name = fallback.name();
  if (request.query != QueryKind::kBudgeted) {
    return fallback.Select(request.k);
  }
  HOLIM_ASSIGN_OR_RETURN(SeedSelection ranked,
                         fallback.Select(graph.num_nodes()));
  SeedSelection out;
  double remaining = request.budget;
  for (std::size_t i = 0;
       i < ranked.seeds.size() && out.seeds.size() < request.k; ++i) {
    const NodeId u = ranked.seeds[i];
    const double cost =
        request.node_costs.empty() ? 1.0 : request.node_costs[u];
    if (cost > remaining) continue;
    remaining -= cost;
    out.seeds.push_back(u);
    if (i < ranked.seed_scores.size()) {
      out.seed_scores.push_back(ranked.seed_scores[i]);
    }
  }
  return out;
}

}  // namespace

HolimEngine::HolimEngine(const Graph& graph, const EngineOptions& options)
    : graph_(&graph), workspace_(options.max_cache_bytes) {
  workspace_.set_hard_budget(options.hard_cache_budget);
  // Touch the registry so built-ins are registered before the first Solve
  // (and before any embedder Register calls race static init order).
  (void)AlgorithmRegistry::Global();
}

ThreadPool* HolimEngine::PoolFor(uint32_t threads) {
  if (threads == 0) return nullptr;
  auto& pool = pools_[threads];
  if (!pool) pool = std::make_unique<ThreadPool>(threads);
  return pool.get();
}

std::string HolimEngine::SelectorKey(const AlgorithmInfo& info,
                                     const SolveRequest& r,
                                     uint64_t params_fp) const {
  // Every knob that could influence the built selector is in the key; k is
  // deliberately absent (selectors take k at Select time), which is what
  // makes a k-sweep reuse one artifact. Over-keying on knobs an algorithm
  // ignores only costs a cheap rebuild, never correctness.
  std::string key = "selector|" + info.name;
  key += "|fp=" + std::to_string(params_fp);
  key += "|op=" + (r.opinions != nullptr
                       ? std::to_string(FingerprintOpinions(*r.opinions))
                       : std::string("-"));
  key += "|base=" + std::to_string(static_cast<int>(r.oi_base));
  key += "|lambda=" + KeyBits(r.lambda);
  key += "|l=" + std::to_string(r.l);
  key += "|eps=" + KeyBits(r.epsilon);
  key += "|maxtheta=" + std::to_string(r.max_theta);
  key += "|p=" + KeyBits(r.p);
  key += "|mc=" + std::to_string(r.mc);
  key += "|seed=" + std::to_string(r.seed);
  key += "|oracle=" + std::to_string(static_cast<int>(r.oracle));
  key += "|R=" + std::to_string(r.EffectiveSketchCount());
  key += "|snapshots=" + std::to_string(r.num_snapshots);
  key += "|rescore=" + std::to_string(r.incremental_rescore ? 1 : 0);
  key += "|threads=" + std::to_string(r.threads);
  // Query-family knobs. The kind and the *content* of costs / target
  // weights / given seeds are all part of the key (a weighted objective is
  // baked into the selector at construction; cost vectors gate which
  // SelectBudgeted calls may reuse a session); the budget, like k, is a
  // call-time argument and deliberately absent.
  key += "|query=" + std::to_string(static_cast<int>(r.query));
  key += "|costs=" + std::to_string(FingerprintDoubles(r.node_costs));
  key += "|tw=" + std::to_string(FingerprintDoubles(r.target_weights));
  key += "|gs=" + std::to_string(FingerprintNodes(r.given_seeds));
  return key;
}

SketchKey HolimEngine::SketchKeyFor(const SolveRequest& request,
                                    uint64_t params_fp) {
  return SketchKey{.params_fp = params_fp,
                   .snapshots = request.EffectiveSketchCount(),
                   .seed = request.seed};
}

Result<HolimEngine::DeltaReport> HolimEngine::ApplyDelta(
    const GraphDelta& delta, const InfluenceParams& params) {
  if (params.probability.size() != graph_->num_edges()) {
    return Status::InvalidArgument(
        "ApplyDelta params must match the current graph: " +
        std::to_string(params.probability.size()) + " probabilities vs " +
        std::to_string(graph_->num_edges()) + " edges");
  }
  if (streaming_ == nullptr) {
    streaming_ = std::make_unique<StreamingGraph>(*graph_);
  }
  DeltaReport report;
  HOLIM_ASSIGN_OR_RETURN(ResolvedDelta resolved,
                         ResolveDelta(streaming_->graph(), delta));
  if (resolved.Empty()) {
    report.epoch = streaming_->epoch();
    report.params = params;  // nothing moved; EdgeIds are unchanged
    return report;
  }
  // The fingerprint the patchable sketches are cached under — taken
  // before the remap, because that is what their keys were built from.
  const uint64_t old_fp = FingerprintParams(params);
  HOLIM_RETURN_NOT_OK(streaming_->ApplyResolved(resolved));
  const Graph& new_graph = streaming_->graph();
  HOLIM_ASSIGN_OR_RETURN(
      report.params,
      ApplyDeltaToParams(streaming_->previous(), params, new_graph, resolved));
  graph_ = &new_graph;
  report.epoch = streaming_->epoch();
  report.effective = true;
  report.inserted = resolved.num_inserted;
  report.removed = resolved.removes.size();
  report.reweighted = resolved.num_reweighted;
  const uint64_t new_fp = FingerprintParams(report.params);
  const Workspace::DeltaPatchStats stats = workspace_.ApplyGraphDelta(
      old_fp, new_fp, [&](SketchOracle& sketch) {
        return sketch.ApplyDelta(new_graph, report.params);
      });
  report.patched_sketches = stats.patched;
  report.evicted_artifacts = stats.evicted;
  // Patched arenas can grow (inserted edges lengthen their splice
  // tables), so the byte budget must be re-enforced here — a patch-heavy
  // churn epoch must not overshoot until the next solve.
  report.evicted_artifacts += workspace_.EnforceBudget();
  return report;
}

Result<SolveResult> HolimEngine::Solve(const SolveRequest& request) {
  Timer total_timer;
  if (request.params == nullptr) {
    return Status::InvalidArgument("SolveRequest.params must be set");
  }
  HOLIM_RETURN_NOT_OK(ValidateQueryFields(request, graph_->num_nodes()));
  const bool runs_selector = request.query == QueryKind::kTopK ||
                             request.query == QueryKind::kBudgeted ||
                             request.query == QueryKind::kTargeted;
  if (runs_selector && request.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  const AlgorithmInfo* info =
      AlgorithmRegistry::Global().Find(request.algorithm);
  if (info == nullptr) {
    return Status::InvalidArgument(
        "unknown algorithm '" + request.algorithm + "' (registered: " +
        AlgorithmRegistry::Global().NamesOneLine() + ")");
  }
  // Capability gate: an unsupported (algorithm, kind) pair is a typed
  // error, never a silent top-k fallback.
  if ((info->supported_queries & QueryBit(request.query)) == 0) {
    return Status::Unimplemented(
        "algorithm '" + info->name + "' does not support query kind '" +
        QueryKindName(request.query) +
        "' (supports: " + QueryMaskNames(info->supported_queries) + ")");
  }
  if (info->needs_opinions && request.opinions == nullptr) {
    return Status::InvalidArgument("algorithm '" + info->name +
                                   "' requires SolveRequest.opinions");
  }
  if (!std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0) {
    return Status::InvalidArgument("deadline_ms must be finite and >= 0");
  }
  if (request.oracle == SpreadOracle::kSketch &&
      request.EffectiveSketchCount() == 0) {
    return Status::InvalidArgument(
        "oracle=sketch needs at least one snapshot (num_sketches, or mc "
        "when num_sketches is 0)");
  }
  if (!runs_selector) return SolveGivenSeeds(request, total_timer);

  // Deadline scaffolding. With no budget/deadline/token the Deadline stays
  // inactive and every checkpoint downstream is one null-pointer test —
  // the solve path is byte-identical to the deadline-free engine. A bare
  // cancel token rides on an inexhaustible work budget (tick mode polls
  // the token at every checkpoint).
  Deadline deadline;
  if (request.work_budget > 0) {
    deadline = Deadline::WorkBudget(request.work_budget, request.cancel_token);
  } else if (request.deadline_ms > 0.0) {
    deadline = Deadline::AfterMillis(request.deadline_ms, request.clock,
                                     request.cancel_token);
  } else if (request.cancel_token != nullptr) {
    deadline = Deadline::WorkBudget(std::numeric_limits<uint64_t>::max(),
                                    request.cancel_token);
  }
  const bool bounded = deadline.active();

  SolveResult result;
  result.query = request.query;
  SolveContext ctx{*graph_, request, workspace_, PoolFor(request.threads),
                   /*sketch_key=*/{}, bounded ? &deadline : nullptr};

  // Artifact acquisition: the cached selector (and, inside the factory,
  // any shared sketch oracle). artifact_seconds covers exactly the
  // cold-build work a warm solve skips. Everything this solve touches
  // from here on is pinned in the post-solve budget pass — a budget that
  // can't hold the working set must evict colder keys, not what the next
  // (affinity-grouped) request is about to reuse.
  const uint64_t pre_solve_tick = workspace_.tick();
  Timer artifact_timer;
  // The sketch key, the selector key and the factory's sketch objective
  // (through ctx) are all built from this one fingerprint.
  ctx.sketch_key = SketchKeyFor(request, ParamsFingerprintOf(request));
  if (request.oracle == SpreadOracle::kSketch) {
    // "Warm" = the arena predates this solve (the factory may build it
    // below, which is still a cold build).
    result.warm_sketch =
        workspace_.PeekSketchOracle(ctx.sketch_key) != nullptr;
  }
  const std::string selector_key =
      SelectorKey(*info, request, ctx.sketch_key.params_fp);
  SeedSelector* selector = nullptr;
  // Bounded solves that miss the warm cache build an *uncached* selector:
  // a degraded Select can leave algorithm-internal state mid-round, which
  // must never be served to a later solve. (A warm hit is reused — and
  // retired below if this run degrades.)
  std::unique_ptr<SeedSelector> transient_selector;
  bool cached_selector = false;
  // Set when the deadline expired while the factory built its artifacts
  // (sketch sampling waves): there is no selector at all, so under
  // kDegrade the heuristic tier answers directly.
  Status factory_stop;
  if (!bounded) {
    HOLIM_ASSIGN_OR_RETURN(
        selector,
        workspace_.GetSelector(selector_key,
                               [&]() { return info->factory(ctx); },
                               &result.warm_selector));
  } else {
    selector = workspace_.PeekSelector(selector_key);
    if (selector != nullptr) {
      result.warm_selector = true;
      cached_selector = true;
    } else {
      Result<std::unique_ptr<SeedSelector>> built = info->factory(ctx);
      if (built.ok()) {
        transient_selector = std::move(*built);
        selector = transient_selector.get();
      } else if (request.on_deadline == OnDeadline::kDegrade &&
                 IsStopStatus(built.status())) {
        factory_stop = built.status();
      } else {
        return built.status();
      }
    }
  }
  ScopedSelectorDeadline deadline_binding{bounded ? selector : nullptr};
  if (deadline_binding.selector) selector->set_deadline(&deadline);

  // The spread-evaluation sketch is acquired up front too, so its build
  // cost lands in artifact_seconds, not spread_seconds. When the request
  // doesn't evaluate spread, the arena is only *peeked* (the factory
  // builds it when the objective needs it) so stateless algorithms under
  // --oracle=sketch don't pay for worlds nobody reads. The eval build is
  // deliberately NOT deadline-bounded: it either hits the arena the
  // factory already built or serves an algorithm whose solve the deadline
  // no longer helps; degraded runs skip evaluation entirely.
  std::shared_ptr<const SketchOracle> eval_sketch;
  if (request.oracle == SpreadOracle::kSketch && factory_stop.ok()) {
    if (request.evaluate_spread) {
      HOLIM_ASSIGN_OR_RETURN(
          eval_sketch, workspace_.GetSketchOracle(*graph_, *request.params,
                                                  ctx.sketch_key, ctx.pool));
    } else {
      eval_sketch = workspace_.PeekSketchOracle(ctx.sketch_key);
    }
    if (eval_sketch != nullptr) {
      result.sketch_arena_bytes = eval_sketch->ArenaBytes();
    }
  }
  result.artifact_seconds = artifact_timer.ElapsedSeconds();

  // The prefix answer memo: an unbounded top-k solve of a prefix-nested
  // algorithm answers from the cached selector's longest run when it
  // covers k. Everything above ran as it would for a re-Select, so the
  // Workspace (ticks, heat, hit counts) cannot tell the two apart.
  // Bounded solves skip the memo: it would answer tier=full where the
  // deadline ladder answers a prefix or the heuristic, and that ladder is
  // holimd's overload response.
  PrefixMemo* memo = nullptr;
  if (!bounded && request.query == QueryKind::kTopK && info->prefix_nested) {
    memo = workspace_.SelectorMemo(selector_key);
  }
  result.warm_answer = memo != nullptr && memo->Covers(request.k);

  SeedSelection selection;
  if (result.warm_answer) {
    selection = memo->Prefix(request.k);
  } else if (!factory_stop.ok()) {
    // Artifact build died on the deadline: synthesize an empty degraded
    // selection so the tier ladder below takes over.
    selection.degraded = true;
    selection.stop_status = factory_stop;
  } else if (request.query == QueryKind::kBudgeted) {
    // Empty costs mean uniform 1.0 — materialized here once so selectors
    // see one contract (a full per-node span).
    std::vector<double> uniform;
    std::span<const double> costs(request.node_costs);
    if (costs.empty()) {
      uniform.assign(graph_->num_nodes(), 1.0);
      costs = uniform;
    }
    HOLIM_ASSIGN_OR_RETURN(
        selection, selector->SelectBudgeted(request.k, costs, request.budget));
  } else {
    HOLIM_ASSIGN_OR_RETURN(selection, selector->Select(request.k));
    if (memo != nullptr) memo->Record(request.k, selection);
  }
  result.seeds = std::move(selection.seeds);
  result.seed_scores = std::move(selection.seed_scores);
  result.algorithm = selector != nullptr ? selector->name() : info->name;
  result.select_seconds = selection.elapsed_seconds;
  result.overhead_bytes = selection.overhead_bytes;
  result.scratch_bytes = selection.scratch_bytes;
  if (selector != nullptr && !result.warm_answer) {
    result.stats = selector->LastRunStats();
    result.SortStats();
  }
  result.rounds_completed = static_cast<uint32_t>(result.seeds.size());

  if (selection.degraded) {
    if (request.on_deadline == OnDeadline::kFail) {
      return selection.stop_status;
    }
    result.degraded = true;
    result.degradation_reason = selection.stop_status.ToString();
    if (cached_selector) {
      // The degraded Select may have left the cached selector's internal
      // state mid-round; retire the artifact (name/stats were captured
      // above) so later solves rebuild clean.
      workspace_.Evict(selector_key);
      selector = nullptr;
      deadline_binding.selector = nullptr;
    }
    if (result.seeds.empty()) {
      result.tier = ResultTier::kHeuristic;
      result.rounds_completed = 0;
      std::string tier_name;
      HOLIM_ASSIGN_OR_RETURN(
          SeedSelection fallback,
          HeuristicTierSelect(*graph_, request, &tier_name));
      result.seeds = std::move(fallback.seeds);
      result.seed_scores = std::move(fallback.seed_scores);
      result.algorithm = tier_name;
    } else {
      result.tier = ResultTier::kPrefix;
    }
  }

  if (request.query == QueryKind::kBudgeted || !request.node_costs.empty()) {
    for (const NodeId s : result.seeds) {
      result.total_cost +=
          request.node_costs.empty() ? 1.0 : request.node_costs[s];
    }
  }

  // Degraded solves skip the spread evaluation: the time budget is spent,
  // and an evaluation pass can cost as much as the selection it follows.
  // result.spread stays 0 (callers can issue a kEvaluate query later).
  // With a memo, `seeds` is the memo run's prefix of its own length, and
  // that length keys the prefix's stored spread.
  const std::optional<double> memo_spread =
      memo != nullptr ? memo->SpreadOf(result.seeds.size()) : std::nullopt;
  if (request.evaluate_spread && memo_spread.has_value()) {
    result.spread = *memo_spread;
  } else if (request.evaluate_spread && !result.degraded) {
    Timer spread_timer;
    if (eval_sketch != nullptr) {
      result.spread = eval_sketch->Estimate(result.seeds);
      if (request.query == QueryKind::kTargeted) {
        result.targeted_spread = eval_sketch->EstimateWeighted(
            result.seeds, request.target_weights);
      }
    } else {
      McOptions mc;
      mc.num_simulations = request.mc;
      mc.seed = request.seed;
      result.spread = EstimateSpread(*graph_, *request.params, result.seeds,
                                     mc);
    }
    result.spread_seconds = spread_timer.ElapsedSeconds();
    if (memo != nullptr) memo->StoreSpread(result.seeds.size(), result.spread);
  }

  workspace_.EnforceBudget(pre_solve_tick);
  result.workspace_bytes = workspace_.MemoryFootprintBytes();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

Result<SolveResult> HolimEngine::SolveGivenSeeds(const SolveRequest& request,
                                                 const Timer& total_timer) {
  SolveResult result;
  result.query = request.query;
  // No selector runs; the display name records what answered instead.
  result.algorithm = QueryKindName(request.query);
  result.seeds = request.given_seeds;

  // Same working-set pin as Solve's: the arena fetched for this
  // evaluation must survive the post-solve budget pass.
  const uint64_t pre_solve_tick = workspace_.tick();
  Timer artifact_timer;
  std::shared_ptr<const SketchOracle> sketch;
  if (request.oracle == SpreadOracle::kSketch) {
    const SketchKey key = SketchKeyFor(request, ParamsFingerprintOf(request));
    result.warm_sketch = workspace_.PeekSketchOracle(key) != nullptr;
    HOLIM_ASSIGN_OR_RETURN(
        sketch, workspace_.GetSketchOracle(*graph_, *request.params, key,
                                           PoolFor(request.threads)));
    result.sketch_arena_bytes = sketch->ArenaBytes();
  }
  result.artifact_seconds = artifact_timer.ElapsedSeconds();

  const bool weighted = !request.target_weights.empty();
  Timer spread_timer;
  if (request.query == QueryKind::kExplain) {
    // One committed session pass over the given seeds, in order:
    // contribution i is the exact marginal gain of seeds[i] given
    // seeds[0..i) over the frozen worlds, so the vector telescopes to the
    // session spread (bitwise, when the per-commit quotients are exact —
    // e.g. any power-of-two snapshot count).
    SketchOracle::Session session(
        *sketch, weighted ? std::span<const double>(request.target_weights)
                          : std::span<const double>{});
    result.seed_contributions.reserve(request.given_seeds.size());
    for (const NodeId s : request.given_seeds) {
      result.seed_contributions.push_back(session.Commit(s));
    }
    const double session_spread = session.Spread();
    if (weighted) {
      result.targeted_spread = session_spread;
      result.spread = sketch->Estimate(result.seeds);
    } else {
      result.spread = session_spread;
    }
    result.scratch_bytes = session.ScratchBytes();
  } else {  // kEvaluate — `evaluate_spread` is implied by the kind.
    if (sketch != nullptr) {
      result.spread = sketch->Estimate(result.seeds);
      if (weighted) {
        result.targeted_spread = sketch->EstimateWeighted(
            result.seeds, request.target_weights);
      }
    } else {
      McOptions mc;
      mc.num_simulations = request.mc;
      mc.seed = request.seed;
      result.spread =
          EstimateSpread(*graph_, *request.params, result.seeds, mc);
    }
  }
  result.spread_seconds = spread_timer.ElapsedSeconds();

  if (!request.node_costs.empty()) {
    for (const NodeId s : result.seeds) {
      result.total_cost += request.node_costs[s];
    }
  }

  workspace_.EnforceBudget(pre_solve_tick);
  result.workspace_bytes = workspace_.MemoryFootprintBytes();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace holim
