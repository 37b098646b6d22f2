#ifndef HOLIM_ENGINE_WORKSPACE_H_
#define HOLIM_ENGINE_WORKSPACE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "algo/seed_selector.h"
#include "diffusion/sketch_oracle.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace holim {

/// \brief The prefix answer memo of one cached selector whose algorithm is
/// prefix-nested (AlgorithmInfo::prefix_nested): Select(k) is the first k
/// rounds of Select(K), so the longest full-tier top-k run the selector has
/// made answers every k <= K without selecting again.
///
/// It holds that run's seeds and per-round scores plus the spread of each
/// prefix a solve has evaluated so far — O(K) <= O(n) per selector. A
/// larger k replaces the run; the stored spreads stay, because the
/// prefixes they measure are the same.
struct PrefixMemo {
  /// The k the memoized run was asked for (0 = empty). A run may stop
  /// short of it (a selector that runs out of candidates); every k in
  /// (seeds.size(), k] then answers all of `seeds`, as a cold run would.
  uint32_t k = 0;
  std::vector<NodeId> seeds;
  std::vector<double> seed_scores;
  /// spreads[j - 1]: the evaluated spread of the first j seeds.
  std::vector<std::optional<double>> spreads;

  /// The memo answers `want` without a Select run.
  bool Covers(uint32_t want) const { return want <= k; }
  /// The first `want` seeds and scores of the run, as Select(want) returns
  /// them (no timings, no scratch). Requires Covers(want).
  SeedSelection Prefix(uint32_t want) const;
  /// Replaces the run with a full-tier Select(`run_k`), run_k > k, keeping
  /// the stored spreads: the new run's prefixes are the old run's.
  void Record(uint32_t run_k, const SeedSelection& selection);
  /// The stored spread of the first `length` seeds (length <=
  /// seeds.size()), if a solve has evaluated it.
  std::optional<double> SpreadOf(std::size_t length) const {
    return length == 0 ? std::nullopt : spreads[length - 1];
  }
  void StoreSpread(std::size_t length, double spread) {
    if (length != 0) spreads[length - 1] = spread;
  }
  /// Capacity-based bytes, charged to the selector's Workspace entry.
  std::size_t Bytes() const;
};

/// \brief The name of one cached sketch arena: every input its worlds are
/// a pure function of, besides the graph the owning engine is bound to.
/// The Workspace builds the arena's SketchOptions from these fields alone;
/// the pool and the deadline of a build are call arguments, never part of
/// the name. HolimEngine::SketchKeyFor derives a request's key.
struct SketchKey {
  /// FingerprintParams of the first-layer params the worlds sample.
  uint64_t params_fp = 0;
  /// R, the number of worlds.
  uint32_t snapshots = 0;
  uint64_t seed = 0;
  /// SketchOptions::record_edge_offsets.
  bool edge_offsets = false;

  /// Field order, which is also the heat policy's tie order between arenas.
  auto operator<=>(const SketchKey&) const = default;
};

/// A Workspace entry's key: a selector's key string, or a sketch arena's
/// SketchKey. Every selector orders before every sketch arena.
using ArtifactKey = std::variant<std::string, SketchKey>;

/// \brief Parameter-keyed cache of the expensive solve artifacts — sketch
/// oracle arenas (the worlds of every sketch objective, StaticGreedy's
/// included) and stateful selector instances (which in turn own
/// score-sweep tables; TIM+/IMM build their RR arenas inside each solve)
/// — so a k-sweep or an algorithm-comparison batch on one graph pays
/// sampling and state construction once.
///
/// ## Cache keys & invalidation
///
/// A sketch arena is keyed by a SketchKey; a selector by a string that
/// HolimEngine builds. Both carry the *content* fingerprint of the model
/// parameters (a word-at-a-time ContentHash over the probability /
/// opinion vectors — see FingerprintParams), taken at most once per solve,
/// plus every request knob that can influence the artifact (RNG seed,
/// sample budget, algorithm options). A key either matches exactly — and
/// reuse is bitwise-equivalent to a cold build, because every artifact is
/// a deterministic pure function of its key and the current graph (the
/// RNG-sharding contracts of the RR engine, the sketch oracle, and the
/// sweep kernel) and every cached selector's re-Select is deterministic
/// (SeedSelector contract) — or it misses and a fresh artifact is built.
/// There is no approximate reuse. The one partial reuse is exact: a
/// cached prefix-nested selector's PrefixMemo answers any k its longest
/// run covers, because that answer is the first k rounds of the run, bit
/// for bit.
///
/// ## Delta patching (ApplyGraphDelta)
///
/// No key names the graph. When the engine's graph advances an epoch,
/// sketch arenas built against the *current* params fingerprint are
/// patched in place via SketchOracle::ApplyDelta and re-filed under the new
/// fingerprint; every other artifact — selectors (whose score tables /
/// sketch sessions reference the old graph), sketches under a different
/// params fingerprint, and failed patches — is evicted. So every artifact
/// alive after a delta describes the new graph, and a key cannot match an
/// artifact of an older epoch even when a delta leaves the params
/// fingerprint unchanged (a delta that moves an edge under uniform IC):
/// that arena was patched, and its reuse is a hit on the new graph.
/// Patched reuse stays bitwise-equivalent: ApplyDelta's output is pinned
/// to the cold rebuild.
///
/// ## Budget & eviction
///
/// Each artifact is charged its capacity-based footprint (SketchOracle::
/// ArenaBytes; SeedSelector::MemoryFootprintBytes plus the selector's
/// PrefixMemo::Bytes, so a memo lives and dies with its selector's entry:
/// eviction, Clear and ApplyGraphDelta drop both). When a byte budget is
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
///    the smallest ArtifactKey — a selector before any arena, selectors by
///    key string, arenas by SketchKey field order — so eviction order is
///    a pure function of the access sequence, never of wall time.
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

  /// Returns the sketch oracle named by `key`, building and caching it on
  /// a miss with SketchOptions taken from the key's fields; `pool` and
  /// `deadline` (both may be null) only steer that build. `key.params_fp`
  /// must be FingerprintParams(params): like ApplyGraphDelta, the
  /// workspace takes the caller's fingerprint so a solve hashes its params
  /// once, not once per artifact. A failed build is a typed error, never an
  /// abort:
  ///  * an armed "workspace/sketch" fault injection point fires here;
  ///  * a `deadline` that expires mid-sampling aborts the build (the
  ///    oracle's build_status) — the partial artifact is NOT cached;
  ///  * under a hard byte budget (set_hard_budget), an artifact that still
  ///    does not fit after one evict-and-retry is dropped and
  ///    kResourceExhausted returned.
  Result<std::shared_ptr<const SketchOracle>> GetSketchOracle(
      const Graph& graph, const InfluenceParams& params, const SketchKey& key,
      ThreadPool* pool = nullptr, Deadline* deadline = nullptr);

  /// The cached sketch under `key`, or nullptr — never builds and does not
  /// count as a hit/miss or LRU touch (used for reporting).
  std::shared_ptr<const SketchOracle> PeekSketchOracle(
      const SketchKey& key) const;

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

  /// The prefix answer memo of the selector cached under `key`, or nullptr
  /// when none is. Neither a touch nor a hit/miss count: a solve answered
  /// from the memo must leave the cache exactly as a re-Select would. The
  /// pointer is valid until the entry is evicted or cleared.
  PrefixMemo* SelectorMemo(const std::string& key);

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
  /// key's params fingerprint equals `old_params_fp` is handed to `patch`
  /// (which should call SketchOracle::ApplyDelta) and, on success,
  /// re-filed under its key with `new_params_fp`; every other artifact is
  /// evicted. See the class comment.
  DeltaPatchStats ApplyGraphDelta(
      uint64_t old_params_fp, uint64_t new_params_fp,
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
  double HeatOf(const ArtifactKey& key) const;

  /// The kHeatBenefit eviction score of `key`:
  /// heat * rebuild_cost_estimate / bytes (0 when absent). Lowest goes
  /// first.
  double BenefitPerByte(const ArtifactKey& key) const;

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
    // The selector's answers (empty unless its algorithm is prefix-nested).
    PrefixMemo memo;
    uint64_t last_used = 0;
    // kHeatBenefit state: decayed hit counter (heat as of heat_tick) and
    // the deterministic rebuild-cost estimate set at build time.
    double heat = 0.0;
    uint64_t heat_tick = 0;
    double rebuild_cost = 0.0;

    std::size_t FootprintBytes() const {
      if (sketch) return sketch->ArenaBytes();
      return selector->MemoryFootprintBytes() + memo.Bytes();
    }
  };

  Entry* Touch(const ArtifactKey& key);
  /// Hard-budget admission check for an artifact of `incoming_bytes` about
  /// to be cached: evict-and-retry once, then OK or kResourceExhausted.
  Status AdmitBytes(std::size_t incoming_bytes);
  /// `entry`'s heat decayed to `now` (pure; no state change).
  double DecayedHeat(const Entry& entry, uint64_t now) const;
  std::map<ArtifactKey, Entry> entries_;
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
/// the cache. It reads every probability, so a solve takes it at most once
/// and passes the value on; an owner of params that never change keeps it
/// and hands it to every solve in SolveRequest::params_fingerprint (holimd
/// stores one per tenant model), so those solves hash nothing.
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

}  // namespace holim

#endif  // HOLIM_ENGINE_WORKSPACE_H_
