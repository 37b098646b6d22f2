#ifndef HOLIM_DIFFUSION_SKETCH_ORACLE_H_
#define HOLIM_DIFFUSION_SKETCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace holim {

/// Tuning parameters for SketchOracle sampling.
struct SketchOptions {
  /// Number of presampled live-edge worlds R. Like the MC estimator's
  /// `num_simulations`, a few hundred suffice for greedy because the same
  /// worlds are reused across every candidate and round (StaticGreedy's
  /// observation: estimate-vs-estimate noise vanishes on a frozen sample).
  uint32_t num_snapshots = 200;
  uint64_t seed = 42;
  /// Pool for the per-node draws (nullptr = serial). The arena is bitwise
  /// identical for any pool size — see the RNG contract below.
  ThreadPool* pool = nullptr;
  /// Additionally record, per union entry, its offset within the source's
  /// out-edge list (4 bytes/entry). Required only by the replay estimator
  /// that reads per-edge attributes (EstimateOpinion's phi lookups).
  bool record_edge_offsets = false;
  /// Cooperative deadline observed during sampling (borrowed; may be
  /// null). Checked once per lane group before its draws; on expiry the
  /// build aborts early and the oracle reports the failure through
  /// build_status() — callers must check it before using the arena.
  /// Never stored in Workspace cache entries (a cached artifact must not
  /// hold a pointer into a finished solve's stack).
  Deadline* deadline = nullptr;
};

/// \brief Snapshot-reuse spread oracle: presampled live-edge worlds with
/// one-shot batch evaluation and an incremental marginal-gain session.
///
/// The Monte-Carlo estimator (diffusion/spread_estimator.*) re-simulates a
/// fresh cascade per simulation per candidate seed set, so CELF-style
/// greedy pays O(k * n * mc * BFS) with zero reuse across candidates or
/// rounds. This oracle instead samples R live-edge instantiations of the
/// graph ONCE (Kempe's equivalence: IC/WC keep each edge independently
/// w.p. p(e); LT gives each node at most one live in-edge) and answers
/// every sigma(S) query by reachability over the frozen worlds — the
/// StaticGreedy/sketch estimator family, the forward-direction sibling of
/// the RR engine's world reuse (algo/rr_sets.*). StaticGreedy itself is
/// CELF on a session over this arena (engine/algorithms.cc).
///
/// ## Arena layout: word-transposed lane masks
///
/// Snapshots are grouped into ceil(R / 64) lane groups of up to 64; inside
/// group g, snapshot s occupies lane bit (s - 64 g). Per group the worlds
/// are stored as the UNION forward adjacency over the group's snapshots,
/// each union edge carrying a uint64_t lane mask ("edge (u, v) is live in
/// lane b"):
///
///   arena_.targets      : NodeId[union entries]  — distinct live out-edges,
///                                                  grouped by (group,
///                                                  source), EdgeId-ascending
///                                                  per source
///   arena_.masks        : uint64[union entries]  — lanes where that edge is
///                                                  live (parallel array)
///   arena_.edge_offsets : uint32[union entries]  — optional (see
///                                                  SketchOptions): entry j
///                                                  of source u is global
///                                                  edge OutEdgeBegin(u) +
///                                                  edge_offsets[j]
///   arena_.node_offsets : uint32[G * (n + 1)]    — per-group CSR offsets
///   arena_.entry_base   : size_t[G + 1]          — group extents
///
/// Frontier expansion evaluates 64 worlds per machine word:
///   fresh = live_mask[u -> v] & active[u] & ~activated[v]
/// and reached counts are popcount-accumulated, so one pass over the union
/// adjacency replaces up to 64 per-world BFS walks. Groups are kept as
/// SEPARATE union CSRs on purpose: a frontier wave usually carries lanes
/// of one group, and a per-group row costs 12 bytes/edge to scan, where a
/// merged all-R row would pay G lane words per edge no matter how few
/// groups the wave touches (measured ~2x slower end to end). Memory: per
/// group, at most min(m, sum of the group's live edges) entries of 12
/// bytes (+4 with edge offsets), plus 4 (n + 1) offset bytes. World s is
/// never stored on its own: it is the lane-(s mod 64) filter of group
/// s / 64.
///
/// ## Sampling straight into lane groups
///
/// The arena is sampled group by group with one m-word mask scratch. IC/WC
/// draw each source's out-row once per snapshot of the group and OR the
/// live flips into per-out-edge mask words; LT scatters each target's
/// per-snapshot pick onto the picked in-edge's mask word. Each source's
/// nonzero mask words are then emitted EdgeId-ascending (the emit pass
/// re-zeroes the scratch). The draws are independent per node, so a pool
/// shards them over nodes; the emit is serial and in node order.
///
/// ## RNG contract (counter-based per-(snapshot, node) streams)
///
/// Snapshot s's world is a pure function of (seed, s): every row of the
/// world is drawn from an independent SplitMix64 stream keyed per
/// (snapshot, node). IC/WC flip source u's out-edges in EdgeId order, edge
/// i live iff the i-th output of the stream with initial state
///   seed + kSnapshotSeedSalt * (s + 1) + kSnapshotNodeSalt * (u + 1),
/// mapped to [0, 1) as (bits >> 11) * 2^-53, is < p(e). LT draws target
/// v's live in-edge from the v-keyed stream: one uniform r, then a
/// residual scan over the in-row (InEdgeIds order) picks the first edge
/// with r < w(e), subtracting w(e) otherwise — no pick when the mass runs
/// out. Empty rows draw nothing. Neither the lane grouping, the pool, nor
/// any scheduling choice affects the sampled worlds: the arena is bitwise
/// identical for any thread count, including serial. The test reference
/// (tests/sketch_reference.h) rebuilds every world from this contract
/// alone and BFSes it one world at a time; every kernel here is pinned
/// against it.
///
/// ## Delta patching on lane rows
///
/// A row's draws depend only on (seed, s, node) and the row's own
/// (targets, p) contents, so ApplyDelta re-draws exactly the rows a graph
/// delta touched. IC/WC: a clean source's lane row is copied verbatim, a
/// dirty one is re-drawn. LT: a lane row mixes the picks of many targets,
/// so clean targets' mask bits are kept (re-addressed to the edge's id in
/// the new graph), dirty targets are re-drawn, and every row is
/// re-emitted. Either way the result is bitwise equal to a cold build on
/// the mutated graph.
///
/// ## Determinism of estimates
///
/// Every estimator accumulates integer (Estimate/Session/IC-N level
/// counts) or serial double (replay) totals in a fixed order and divides
/// once at the end, so results are independent of thread count and
/// reproducible across runs. Estimate() and the replay estimators reuse
/// member scratch and are therefore NOT thread-safe per oracle instance;
/// concurrent callers should own separate Session objects (sessions carry
/// their own scratch) or separate oracles.
class SketchOracle {
 public:
  /// Work-budget ticks: a build charges one tick per this many snapshots,
  /// ceil(R / kSnapshotsPerTick) in all, at lane-group granularity (a
  /// group of 64 lanes charges 16 before its draws).
  static constexpr uint32_t kSnapshotsPerTick = 4;
  /// Snapshot-axis salt of the per-(snapshot, node) stream keys
  /// (deliberately distinct from the RR engine's and the MC estimator's
  /// salts; the streams must stay unrelated).
  static constexpr uint64_t kSnapshotSeedSalt = 0xA24BAED4963EE407ULL;
  /// Node-axis salt of the per-(snapshot, node) stream keys.
  static constexpr uint64_t kSnapshotNodeSalt = 0xE7037ED1A0B428DBULL;
  /// Snapshots per lane group (one machine word). Purely a layout
  /// constant — NOT part of the sampling contract.
  static constexpr uint32_t kLanesPerGroup = 64;

  /// Samples all R snapshots up front (the only expensive step) straight
  /// into the lane-mask arena. With a deadline in `options` the build may
  /// abort early: check build_status() before first use (the engine's
  /// checked acquisition path does; an aborted oracle is never cached).
  SketchOracle(const Graph& graph, const InfluenceParams& params,
               const SketchOptions& options = {});

  /// OK for a fully built oracle; the deadline/cancel status when the
  /// sampling pass aborted early (the arena is then incomplete and no
  /// estimator may be called).
  const Status& build_status() const { return build_status_; }

  /// Incrementally re-points the oracle at a mutated graph: re-draws only
  /// the rows whose (targets, p) contents changed between the bound graph
  /// and `new_graph` (IC/WC: out-rows; LT: in-rows) and keeps every clean
  /// row's lanes (see the class comment). The arena ends bitwise identical
  /// — contents AND ArenaBytes() — to a cold SketchOracle built on
  /// (new_graph, new_params) with the same options; every estimator and
  /// Session result is therefore bitwise equal to the cold rebuild's.
  ///
  /// `new_graph` must outlive the oracle (the oracle re-binds to it; the
  /// previously bound graph is only needed during this call). The model
  /// must not change and `new_params` must match `new_graph`'s edge count;
  /// violations fail with InvalidArgument and leave the oracle untouched.
  Status ApplyDelta(const Graph& new_graph, const InfluenceParams& new_params);

  uint32_t num_snapshots() const { return num_snapshots_; }
  const Graph& graph() const { return *graph_; }
  const InfluenceParams& params() const { return params_; }
  /// Number of 64-snapshot lane groups, ceil(R / 64).
  uint32_t num_lane_groups() const { return num_lane_groups_; }
  /// Mask of the lanes group `g` actually populates (all-ones except a
  /// trailing partial group).
  uint64_t LaneMaskAll(uint32_t g) const {
    const uint32_t lanes = std::min<uint32_t>(
        kLanesPerGroup, num_snapshots_ - g * kLanesPerGroup);
    return lanes == kLanesPerGroup ? ~uint64_t{0}
                                   : (uint64_t{1} << lanes) - 1;
  }

  /// One-shot batch estimate of sigma(S) = E[|V_a| - |S|] (paper Def. 3):
  /// reachability from `seeds` over the frozen worlds, averaged over
  /// snapshots. Exact over the frozen sample: the total reached count is
  /// accumulated as an integer and divided once, so Session::Spread()
  /// after committing the same seeds is bitwise equal.
  double Estimate(std::span<const NodeId> seeds) const;

  /// Weighted twin of Estimate for targeted IM: sigma_w(S) =
  /// E[sum of w(v) over activated non-seeds v] — each reached node counts
  /// its weight instead of 1 (a weighted popcount per lane group:
  /// popcount(fresh) * w(target)). `node_weights` must hold one finite
  /// weight >= 0 per node. With all-ones weights the accumulated weight
  /// sums are exact small integers in doubles and the final division
  /// matches Estimate's, so EstimateWeighted == Estimate bitwise; any
  /// weights whose partial sums are exactly representable (integer
  /// weights, 0/1 target masks) are order-independent too.
  double EstimateWeighted(std::span<const NodeId> seeds,
                          std::span<const double> node_weights) const;

  /// Expected IC-N positive spread over the frozen worlds (Chen et al.,
  /// SDM'11, uniform quality factor q): a node activated at live-edge BFS
  /// distance d is positive w.p. q^(d+1) (one quality flip per hop plus
  /// the seed's own flip). Accumulates integer per-distance activation
  /// counts and folds them through one q-polynomial evaluation. Exact in
  /// the quality flips given the sampled worlds (a Rao-Blackwellized
  /// estimator of the MC path).
  double EstimateIcnPositive(std::span<const NodeId> seeds,
                             double quality_factor) const;

  /// Expected OI opinion spread over the frozen worlds, IC base only
  /// (requires record_edge_offsets). Replays the activation BFS per
  /// snapshot and propagates EXPECTED opinions analytically:
  /// E[(-1)^alpha o'_u] = (2 phi(e) - 1) E[o'_u], so
  /// E[o'_v] = (o_v + (2 phi(e) - 1) E[o'_u]) / 2 — exact in the alpha
  /// flips given the worlds. opinion_spread and plain_spread are unbiased;
  /// effective_opinion_spread splits the EXPECTED opinions by sign, which
  /// coincides with the MC estimand at lambda == 1 (where Gamma_o_lambda
  /// is linear in the opinions) and is a documented approximation
  /// otherwise. Opinion values are per-(snapshot, node) doubles, so the
  /// replay is inherently per-snapshot: snapshot s's adjacency is its
  /// group's union rows filtered by lane bit s mod 64, in EdgeId order.
  OpinionSpreadEstimate EstimateOpinion(const OpinionParams& opinions,
                                        OiBase base,
                                        std::span<const NodeId> seeds,
                                        double lambda) const;

  /// Union live out-adjacency of `u` in lane group `g`: `size` parallel
  /// (target, lane-mask) pairs, EdgeId-ascending, plus each entry's
  /// out-row offset when record_edge_offsets (nullptr otherwise).
  /// Zero-copy arena view.
  struct LaneAdjacency {
    const NodeId* targets;
    const uint64_t* masks;
    const uint32_t* edge_offsets;
    uint32_t size;
  };
  LaneAdjacency LaneTargets(uint32_t g, NodeId u) const {
    const uint32_t* off =
        arena_.node_offsets.data() +
        static_cast<std::size_t>(g) * (graph_->num_nodes() + 1);
    const std::size_t begin = arena_.entry_base[g] + off[u];
    return {arena_.targets.data() + begin, arena_.masks.data() + begin,
            record_edge_offsets_ ? arena_.edge_offsets.data() + begin
                                 : nullptr,
            off[u + 1] - off[u]};
  }
  /// Prefetch hint for a union row about to be scanned: a lane walk's
  /// worklist names its upcoming rows, and each row is a short burst at a
  /// random address in an arena far larger than cache, so pulling the next
  /// row while the current one drains hides most of its DRAM latency.
  void PrefetchLaneRow(uint32_t g, NodeId u) const {
    const LaneAdjacency adj = LaneTargets(g, u);
    __builtin_prefetch(adj.targets);
    __builtin_prefetch(adj.masks);
    // One extra line per array: rows average a handful of entries, so two
    // lines cover nearly all rows (past-the-end prefetches are harmless).
    __builtin_prefetch(adj.targets + 7);
    __builtin_prefetch(adj.masks + 7);
  }
  /// Companion hint one step further out: pulls u's row OFFSETS so the
  /// PrefetchLaneRow issued for u next iteration doesn't itself stall.
  void PrefetchLaneOffsets(uint32_t g, NodeId u) const {
    __builtin_prefetch(arena_.node_offsets.data() +
                       static_cast<std::size_t>(g) * (graph_->num_nodes() + 1) +
                       u);
  }

  /// Bytes held by the lane-mask arena (capacity-based, the repo-wide
  /// memory accounting convention).
  std::size_t ArenaBytes() const;

  /// Per node u, an upper bound on sum over the R worlds of |reach_s(u)|
  /// (u included), the count behind a fresh Session's MarginalGain(u).
  /// Each world is one lane's filter of its group's union rows, compacted
  /// into a CSR and condensed by an iterative Tarjan pass; as each SCC C
  /// is emitted (sinks first) it gets
  ///   bound(C) = min(n, |C| + sum of bound(D) over distinct successor
  ///                  SCCs D),
  /// as in Ohsaka et al.'s pruned Monte-Carlo (AAAI'14). The bound is the
  /// exact reach count wherever C's reachable part of the condensation is
  /// a tree; otherwise it counts a node once per condensation path to it
  /// (a diamond a -> {b, c} -> d gives a 5 for 4 reached).
  /// Every LT world is exact: each node has at most one live in-edge, so
  /// its condensation is a forest. Serial, O(R (n + union entries)) time
  /// and O(n + one group's union entries) transient scratch.
  std::vector<int64_t> SingletonReachBounds() const;

  /// Live edges per node, averaged over the R worlds: the union entries'
  /// lane bits summed, over R n (0 for an empty graph). One O(union
  /// entries) popcount pass.
  double MeanLiveOutDegree() const;

  /// \brief Incremental marginal-gain session: StaticGreedy-style
  /// activate-once evaluation across a whole greedy run. Hill-climbers
  /// reach it through SketchSpreadObjective::Gains (algo/greedy.h).
  ///
  /// The session keeps one persistent activated lane mask per (lane group,
  /// node) — i.e. the per-snapshot activated bitsets, stored transposed so
  /// they double as the bit-parallel kernel's activation words. Because
  /// each snapshot's activated set is reachability-closed, the walk for a
  /// new candidate prunes at every already-activated node, so round i+1
  /// only explores the newly added seed's frontier instead of re-walking
  /// reach(S) per evaluation. Gains are maintained as integer
  /// newly-activated counts, hence (bitwise):
  ///   MarginalGain(u) == Estimate(S + u) - Estimate(S)   (same estimand)
  ///   Spread() after committing S  == Estimate(S)        (bitwise)
  /// The session owns its scratch; multiple sessions on one oracle are
  /// independent (but a single session is not thread-safe).
  class Session {
   public:
    /// `node_weights` non-empty switches the session to the weighted
    /// objective sigma_w (targeted IM): gains and Spread() count each
    /// activated node's weight instead of 1. The span must outlive the
    /// session (SketchSpreadObjective owns a copy for exactly this
    /// reason). With all-ones weights every weighted result is bitwise
    /// equal to the unweighted session's — see EstimateWeighted.
    explicit Session(const SketchOracle& oracle,
                     std::span<const double> node_weights = {});

    /// Drops all committed seeds (keeps capacity).
    void Reset();

    /// Frees the probe undo log and the worklist, which a run grows to its
    /// largest walk; the committed state stays. The next walk regrows them.
    void ReleaseProbeScratch();

    /// Marginal gain of adding `u` to the committed set, WITHOUT
    /// committing: avg over snapshots of |reach(u) \ activated| minus 1
    /// (the candidate joins the excluded seed set, mirroring Def. 3).
    /// Weighted sessions count w(v) per newly reached v and subtract
    /// w(u) instead of 1.
    double MarginalGain(NodeId u);

    /// Commits `u` as a seed, persistently activating its frontier in
    /// every snapshot. Returns its marginal gain.
    double Commit(NodeId u);

    /// sigma (or sigma_w) of the committed seed set; bitwise equal to
    /// oracle.Estimate(committed seeds) / EstimateWeighted(...).
    double Spread() const;

    std::size_t num_seeds() const { return num_seeds_; }
    /// Total nodes activated across all snapshots — the session's
    /// exploration work counter (each node is activated at most once per
    /// snapshot over the whole run).
    int64_t total_activated() const { return total_active_; }
    /// Session scratch bytes (capacity-based): the activated and pending
    /// lane words, (ceil(R / 64) + 1) n words, plus the undo log and
    /// worklist as grown since the last ReleaseProbeScratch.
    std::size_t ScratchBytes() const;

   private:
    /// Newly activated totals of one explore: the node count feeds the
    /// work counter, the weight sum feeds weighted gains/Spread.
    struct Newly {
      int64_t nodes = 0;
      double weight = 0.0;
    };

    /// One worklist pass per lane group over the lane-mask arena: every
    /// expansion of node v propagates v's pending lane word through each
    /// union edge with fresh = live & pending[v] & ~activated[t]. kWeighted
    /// also sums popcount(fresh) * w(t) (a separate instantiation keeps the
    /// unweighted hot loop free of it).
    template <bool kCommit, bool kWeighted>
    Newly Explore(NodeId u);

    const SketchOracle& oracle_;
    /// Per-node objective weights; empty = unweighted (see constructor).
    std::span<const double> weights_;
    NodeId n_;
    uint32_t num_groups_;
    /// Activated lane masks, group-major: bit b of lanes_[g * n + u] means
    /// u is activated in snapshot 64 g + b.
    std::vector<uint64_t> lanes_;
    /// Frontier words (pending lanes to expand per node); self-clearing —
    /// every pushed node is popped with its word zeroed.
    std::vector<uint64_t> pending_;
    /// Probe undo log: non-committing walks write their trial lanes into
    /// the activated words directly (one random access per edge instead of
    /// a separate overlay) and roll the words back in reverse order at
    /// probe end. A node can appear more than once (one entry per wave
    /// that freshened it); reverse replay restores the oldest word last.
    struct LaneUndo {
      NodeId node;
      uint64_t word;
    };
    std::vector<LaneUndo> undo_;
    /// FIFO wave worklist.
    std::vector<NodeId> stack_;
    int64_t total_active_ = 0;
    /// Weighted-session accumulators (exactly mirror total_active_ /
    /// num_seeds_ when all weights are 1.0 — both stay exact integers in
    /// doubles, which is what makes the all-ones parity bitwise).
    double total_active_weight_ = 0.0;
    double seed_weight_sum_ = 0.0;
    std::size_t num_seeds_ = 0;
  };

 private:
  /// The arena's entry arrays (see the class comment); also the shape of
  /// one group's rows while they are emitted.
  struct LaneArena {
    std::vector<NodeId> targets;
    std::vector<uint64_t> masks;
    std::vector<uint32_t> edge_offsets;  // when recorded
    std::vector<uint32_t> node_offsets;  // G * (n + 1), group-local
    std::vector<std::size_t> entry_base;  // G + 1
  };
  /// What ApplyDelta keeps from the arena it replaces: nodes with
  /// dirty[x] == 0 reuse their lanes from `arena` (built on `graph`).
  struct CleanRows {
    const Graph& graph;
    const LaneArena& arena;
    const std::vector<uint8_t>& dirty;
  };

  /// Samples the whole arena for the bound (graph_, params_) into `out`,
  /// group by group; with `clean`, clean nodes' lanes are carried over
  /// instead of drawn. Fails only on deadline expiry.
  Status SampleArena(const CleanRows* clean, ThreadPool* pool,
                     Deadline* deadline, LaneArena& out) const;
  /// IC/WC: flips source u's out-row once per snapshot of group g, OR-ing
  /// the live flips into `row_mask` (one word per out-edge).
  void DrawCascadeRow(uint32_t g, NodeId u, uint64_t* row_mask) const;
  /// LT: draws target v's live in-edge once per snapshot of group g, OR-ing
  /// the lane bit into `edge_mask` at the picked edge's id.
  void DrawThresholdPicks(uint32_t g, NodeId v, uint64_t* edge_mask) const;
  /// Initial SplitMix64 state of the (snapshot, node) row stream.
  uint64_t NodeStreamState(uint32_t snapshot, NodeId node) const {
    return seed_ + kSnapshotSeedSalt * (snapshot + uint64_t{1}) +
           kSnapshotNodeSalt * (static_cast<uint64_t>(node) + 1);
  }
  /// SplitMix64 output -> uniform double in [0, 1) (Rng::NextDouble's
  /// mantissa construction, applied to the row streams).
  static double UnitDouble(uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }
  /// dirty[x] = 1 for every node of `new_graph` whose draws differ from
  /// the bound graph's: rows whose (targets, p) contents changed
  /// positionally (IC/WC: out-rows; LT: in-rows), and all new nodes.
  std::vector<uint8_t> DirtyRows(const Graph& new_graph,
                                 const InfluenceParams& new_params) const;

  /// Multi-source lane walk shared by Estimate and EstimateWeighted:
  /// calls on_fresh(t, popcount(fresh)) for every (node, lanes) activation,
  /// seeds included.
  template <typename OnFresh>
  void WalkLanes(std::span<const NodeId> seeds, OnFresh&& on_fresh) const;
  void AccumulateIcnLevelCounts(std::span<const NodeId> seeds) const;

  // Re-bindable: ApplyDelta points the oracle at the mutated graph and
  // replaces the owned params copy (owning the copy keeps the oracle valid
  // when the caller's params object dies with the old epoch).
  const Graph* graph_;
  InfluenceParams params_;
  uint32_t num_snapshots_;
  uint32_t num_lane_groups_;
  uint64_t seed_;
  bool record_edge_offsets_;
  Status build_status_;  // non-OK when a deadline aborted the sampling pass
  LaneArena arena_;

  // Reusable one-shot evaluation scratch (Estimate and the replay
  // estimators are single-caller; see class comment).
  mutable EpochSet visited_;
  mutable std::vector<NodeId> queue_;
  mutable std::vector<NodeId> frontier_;     // level/touch lists
  mutable std::vector<uint64_t> lane_state_;    // activated words, n
  mutable std::vector<uint64_t> lane_pending_;  // frontier words, n
  mutable std::vector<uint64_t> lane_next_;     // next-level words, n
  mutable std::vector<int64_t> icn_level_counts_;
  mutable std::vector<double> node_value_;  // expected opinion per node
};

}  // namespace holim

#endif  // HOLIM_DIFFUSION_SKETCH_ORACLE_H_
