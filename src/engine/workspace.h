#ifndef HOLIM_ENGINE_WORKSPACE_H_
#define HOLIM_ENGINE_WORKSPACE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algo/seed_selector.h"
#include "diffusion/sketch_oracle.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "util/status.h"

namespace holim {

/// \brief Parameter-keyed cache of the expensive solve artifacts — sketch
/// oracle arenas (the worlds of every sketch objective, StaticGreedy's
/// included) and stateful selector instances (which in turn own
/// score-sweep tables; TIM+/IMM build their RR arenas inside each solve)
/// — so a k-sweep or an algorithm-comparison batch on one graph pays
/// sampling and state construction once.
///
/// ## Cache keys & invalidation
///
/// Keys are explicit strings built by HolimEngine from the *content*
/// fingerprint of the model parameters (a word-at-a-time ContentHash over
/// the probability / opinion vectors — see FingerprintParams), taken once
/// per solve and handed to every key built for it, plus every request knob
/// that can influence the artifact (RNG seed, sample budget, algorithm
/// options). A key either matches exactly — and reuse is bitwise-
/// equivalent to a cold build, because every artifact is a deterministic
/// pure function of its key (the RNG-sharding contracts of the RR engine,
/// the sketch oracle, and the sweep kernel) and every cached selector's
/// re-Select is deterministic (SeedSelector contract) — or it misses and
/// a fresh artifact is built. There is no partial/approximate reuse.
///
/// Once the engine applies a graph delta, keys additionally carry the
/// engine's graph token — "(base fingerprint, delta epoch)" — because the
/// params fingerprint alone cannot distinguish two topologies whose edge
/// counts and probability vectors happen to coincide (e.g. a delta that
/// moves an edge under uniform IC). The token is empty before the first
/// delta, keeping epoch-0 keys byte-identical to the pre-streaming format.
///
/// ## Delta patching (ApplyGraphDelta)
///
/// When the engine's graph advances an epoch, sketch artifacts built
/// against the *current* params fingerprint are patched in place via
/// SketchOracle::ApplyDelta and re-keyed under the new (fingerprint,
/// token); every other artifact — selectors (whose score tables / sketch
/// sessions reference the old graph) and sketches
/// under a different params fingerprint — is evicted. Patched reuse stays
/// bitwise-equivalent: ApplyDelta's output is pinned to the cold rebuild.
///
/// ## Budget & eviction
///
/// Each artifact is charged its capacity-based footprint (SketchOracle::
/// ArenaBytes, SeedSelector::MemoryFootprintBytes). When a byte budget is
/// set, artifacts are evicted until the total fits; HolimEngine enforces
/// the budget *between* solves AND right after ApplyDelta re-keying (a
/// patched arena can grow past the budget mid-epoch), so artifacts pinned
/// by an in-flight solve are never dropped under it (sketches are
/// additionally shared_ptr-held by their users, so eviction can never
/// dangle).
///
/// Two victim-selection policies (set_eviction_policy):
///
///  * kLru (default) — least-recently-used, the historical behavior,
///    byte-identical for every pre-serving caller.
///  * kHeatBenefit — the serving policy. Every artifact carries a decayed
///    hit counter ("heat": each touch adds 1 after halving the old value
///    once per full `heat_half_life` ticks elapsed — exactly
///    ldexp(heat, -(delta_ticks / half_life)) + 1 with integer division,
///    so decay is bit-exact on every platform) and a deterministic
///    rebuild-cost estimate (sketches: R * (nodes + edges) sampling work
///    units; selectors: their footprint bytes, a stand-in that ranks them
///    below same-heat arenas). The victim is the artifact with the lowest
///    benefit-per-byte = heat * rebuild_cost / bytes; ties break toward
///    the lexicographically smallest key, so eviction order is a pure
///    function of the access sequence — never of wall time.
///
/// An evicted artifact leaves nothing behind: its next request rebuilds
/// it like any other miss.
///
/// Not thread-safe; an engine (and its workspace) serves one solve at a
/// time.
class Workspace {
 public:
  /// `max_bytes` 0 = unlimited.
  explicit Workspace(std::size_t max_bytes = 0) : max_bytes_(max_bytes) {}

  /// Returns the sketch oracle for `options`, building and caching it on
  /// a miss. The key is derived HERE from (`params_fp`, options, graph
  /// token) — see SketchOracleKey — so a caller cannot hand in options that
  /// disagree with the key they are cached under. `params_fp` must be
  /// FingerprintParams(params): like ApplyGraphDelta, the workspace takes
  /// the caller's fingerprint so a solve hashes its params once, not once
  /// per artifact. `reused` (optional) reports whether the artifact was
  /// served warm. A failed build is a typed error, never an abort:
  ///  * an armed "workspace/sketch" fault injection point fires here;
  ///  * a deadline in `options` that expires mid-sampling aborts the build
  ///    (the oracle's build_status) — the partial artifact is NOT cached;
  ///  * under a hard byte budget (set_hard_budget), an artifact that still
  ///    does not fit after one evict-and-retry is dropped and
  ///    kResourceExhausted returned.
  /// Cached entries always store options with deadline = nullptr — the
  /// deadline dies with the solve that carried it.
  Result<std::shared_ptr<const SketchOracle>> GetSketchOracle(
      const Graph& graph, const InfluenceParams& params, uint64_t params_fp,
      const SketchOptions& options, const std::string& graph_token = "",
      bool* reused = nullptr);

  /// The cached sketch under `key` (from SketchOracleKey), or nullptr —
  /// never builds and does not count as a hit/miss or LRU touch (used
  /// for reporting).
  std::shared_ptr<const SketchOracle> PeekSketchOracle(
      const std::string& key) const;

  /// Returns the cached selector for `key`, or builds one with `build`
  /// and caches it. The pointer stays valid until the entry is evicted or
  /// the workspace is cleared — i.e. for the duration of the current
  /// solve (eviction only runs between solves).
  Result<SeedSelector*> GetSelector(
      const std::string& key,
      const std::function<Result<std::unique_ptr<SeedSelector>>()>& build,
      bool* reused = nullptr);

  /// The cached selector under `key`, or nullptr — never builds. A hit
  /// refreshes the LRU stamp (it is a real use) but moves no hit/miss
  /// counter. Deadline-bounded solves reuse warm selectors through this
  /// instead of GetSelector so that a miss builds an *uncached* selector
  /// (a degraded run may leave algorithm-internal state mid-round, which
  /// must never be reused).
  SeedSelector* PeekSelector(const std::string& key);

  /// Drops the artifact under `key` (counted as an eviction). Returns
  /// whether it existed. Used to retire a cached selector after a
  /// degraded Select left its internal state mid-round.
  bool Evict(const std::string& key);

  /// Drops every artifact.
  void Clear();

  /// Outcome of ApplyGraphDelta: how many sketch artifacts were patched
  /// in place vs dropped (selectors, mismatched fingerprints, failed
  /// patches).
  struct DeltaPatchStats {
    std::size_t patched = 0;
    std::size_t evicted = 0;
  };

  /// Migrates the cache across a graph epoch: every sketch artifact whose
  /// params fingerprint equals `old_params_fp` is handed to `patch`
  /// (which should call SketchOracle::ApplyDelta) and, on success,
  /// re-keyed under (`new_params_fp`, `new_graph_token`); every other
  /// artifact is evicted. See the class comment.
  DeltaPatchStats ApplyGraphDelta(
      uint64_t old_params_fp, uint64_t new_params_fp,
      const std::string& new_graph_token,
      const std::function<Status(SketchOracle&)>& patch);

  /// Evicts artifacts until the footprint fits the budget (no-op when
  /// unlimited), picking victims per the eviction policy (LRU, or lowest
  /// benefit-per-byte under kHeatBenefit). Returns the number evicted.
  ///
  /// Entries touched after `pin_newer_than` (the working set of an
  /// in-flight or just-finished solve) are exempt from the victim scan:
  /// a cold-but-in-use artifact must not lose to a stale-hot one the
  /// moment it is admitted, or every request for a non-head key would
  /// rebuild and immediately re-evict it. When only pinned entries
  /// remain the pass stops, even over budget (same spirit as the
  /// keep-one rule below). The default pins nothing.
  std::size_t EnforceBudget(
      uint64_t pin_newer_than = std::numeric_limits<uint64_t>::max());

  /// The current LRU tick (advances on every touch/admission). Callers
  /// snapshot it before a solve to pin that solve's working set in a
  /// later EnforceBudget pass.
  uint64_t tick() const { return tick_; }

  void set_max_bytes(std::size_t max_bytes) { max_bytes_ = max_bytes; }
  std::size_t max_bytes() const { return max_bytes_; }

  /// Victim-selection policy (see the class comment). Switching policy
  /// only changes *which* artifact EnforceBudget drops next; hit/miss
  /// behavior and artifact contents are identical under both.
  enum class EvictionPolicy { kLru, kHeatBenefit };
  void set_eviction_policy(EvictionPolicy policy) { policy_ = policy; }
  EvictionPolicy eviction_policy() const { return policy_; }

  /// Heat half-life in LRU ticks (every Touch/admission is one tick): a
  /// key's heat halves once per `ticks` elapsed ticks, by integer-counted
  /// halvings (bit-exact ldexp, no libm). Must be > 0.
  void set_heat_half_life(uint64_t ticks) { heat_half_life_ = ticks; }
  uint64_t heat_half_life() const { return heat_half_life_; }

  /// The decayed heat of `key` as of the current tick (0 when absent).
  /// Read-only: no LRU touch, no decay state mutation.
  double HeatOf(const std::string& key) const;

  /// The kHeatBenefit eviction score of `key`:
  /// heat * rebuild_cost_estimate / bytes (0 when absent). Lowest goes
  /// first.
  double BenefitPerByte(const std::string& key) const;

  /// Hard budget mode (off by default): with a byte budget set, an
  /// artifact admission that still exceeds the budget after one LRU
  /// evict-and-retry FAILS with kResourceExhausted instead of being kept
  /// over budget. Only GetSketchOracle/GetSelector enforce this;
  /// the default soft mode keeps the historical keep-at-least-one
  /// behavior bit for bit.
  void set_hard_budget(bool hard) { hard_budget_ = hard; }
  bool hard_budget() const { return hard_budget_; }

  /// Exact cache footprint: sum of per-artifact capacity-based bytes
  /// (refreshed on every use — selector scratch can grow during Select).
  std::size_t MemoryFootprintBytes() const;

  std::size_t num_artifacts() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    // Exactly one of the two is set, matching the key's kind. Sketches
    // are held non-const so ApplyGraphDelta can patch them in place;
    // GetSketchOracle still hands out const views.
    std::shared_ptr<SketchOracle> sketch;
    std::unique_ptr<SeedSelector> selector;
    uint64_t last_used = 0;
    // kHeatBenefit state: decayed hit counter (heat as of heat_tick) and
    // the deterministic rebuild-cost estimate set at build time.
    double heat = 0.0;
    uint64_t heat_tick = 0;
    double rebuild_cost = 0.0;
    // Sketch-entry metadata mirrored out of the key so ApplyGraphDelta
    // can match and re-key entries without parsing key strings.
    uint64_t params_fp = 0;
    std::string graph_token;
    SketchOptions options;

    std::size_t FootprintBytes() const {
      if (sketch) return sketch->ArenaBytes();
      return selector->MemoryFootprintBytes();
    }
  };

  Entry* Touch(const std::string& key);
  /// Hard-budget admission check for an artifact of `incoming_bytes` about
  /// to be cached: evict-and-retry once, then OK or kResourceExhausted.
  Status AdmitBytes(std::size_t incoming_bytes);
  /// `entry`'s heat decayed to `now` (pure; no state change).
  double DecayedHeat(const Entry& entry, uint64_t now) const;
  std::map<std::string, Entry> entries_;
  std::size_t max_bytes_ = 0;
  bool hard_budget_ = false;
  EvictionPolicy policy_ = EvictionPolicy::kLru;
  uint64_t heat_half_life_ = 64;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// Content fingerprint of the first-layer model (ContentHash over the
/// model kind and the probability vector) — the params component of every
/// Workspace key. Exact: any parameter change changes the key and misses
/// the cache. It reads every probability, so a solve takes it once and
/// passes the value on.
uint64_t FingerprintParams(const InfluenceParams& params);

/// Content fingerprint of the opinion layer (initial opinions +
/// interaction probabilities, each folded with its length).
uint64_t FingerprintOpinions(const OpinionParams& opinions);

/// Content fingerprint of an arbitrary double vector — the query-family
/// request fields (node costs, target weights) folded into Workspace keys.
/// Same hash-the-representation convention as FingerprintParams: any
/// bit-level change misses the cache.
uint64_t FingerprintDoubles(const std::vector<double>& values);

/// Content fingerprint of a node-id vector (kEvaluate/kExplain given
/// seed sets). Order-sensitive, matching explain's order-dependent
/// contributions; the length is folded in, so a trailing node 0 counts.
uint64_t FingerprintNodes(const std::vector<NodeId>& nodes);

/// Canonical workspace key of a sketch-oracle artifact — shared by the
/// engine's spread evaluation and the greedy/CELF factories so one arena
/// serves both. `graph_token` is the engine's "(base fingerprint, delta
/// epoch)" tag; empty (the default, and always at epoch 0) appends
/// nothing, keeping pre-streaming keys byte-identical.
std::string SketchOracleKey(uint64_t params_fingerprint, uint32_t snapshots,
                            uint64_t seed, bool record_edge_offsets,
                            const std::string& graph_token = "");

}  // namespace holim

#endif  // HOLIM_ENGINE_WORKSPACE_H_
