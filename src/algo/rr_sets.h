#ifndef HOLIM_ALGO_RR_SETS_H_
#define HOLIM_ALGO_RR_SETS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace holim {

/// \brief Reverse-reachable set sampler + max-coverage seed selection — the
/// shared substrate of TIM+ and IMM (Borgs et al., Tang et al.).
///
/// An RR set for a uniformly random root v contains every node that would
/// have activated v in a reverse simulation: under IC each in-edge (u, v)
/// is traversed independently w.p. p(u,v); under LT each visited node picks
/// at most one live in-edge (live-edge equivalence). E[coverage] * n / theta
/// is an unbiased spread estimator.
///
/// ## Sampling
///
/// A set draws its root with NextBounded(n), then runs a DFS over live
/// in-edges; every node it pops adds its in-degree to the set's width
/// w(R), whatever the model.
///
/// IC/WC rows are sampled by skip-and-thin, in time proportional to the
/// live in-edges rather than the in-degree. The constructor builds a row
/// table once: per node v with in-degree d, the row's maximum probability
/// q (capped at 1), 1/ln(1-q) and (1-q)^d. Candidate positions form a
/// Bernoulli(q) process over the row, drawn as geometric gaps, and a
/// candidate e stays live w.p. p(e)/q; so e is live w.p. p(e),
/// independently, exactly as a per-edge coin would have it. A popped node
/// consumes, in order:
///
///  - q == 0: nothing.
///  - 0 < q < 1: one uniform U. U <= (1-q)^d means the row has no
///    candidate (no log is taken). Otherwise the first candidate sits at
///    floor(ln U / ln(1-q)), and after each candidate one more uniform
///    gives the gap to the next (the gap that lands past the row end is
///    drawn too).
///  - q >= 1: every in-edge is a candidate; no gap draws.
///
/// A candidate whose source is already in the set draws nothing. Any other
/// candidate draws one thinning uniform, before the next gap, unless
/// p(e) == q: uniform-IC and WC rows never thin. The row table costs 24
/// bytes per node (RowTableMemoryBytes()).
///
/// LT rows keep the one-uniform O(d) scan: one NextDouble per popped node,
/// walked down the in-row's cumulative weights.
///
/// ## Arena layout
///
/// Sets are stored CSR-style in one flat arena instead of one heap
/// allocation per set:
///
///   entries_  : NodeId[total_entries]   — node members, sets back to back
///   offsets_  : size_t[num_sets + 1]    — set i is entries_[offsets_[i]
///                                          .. offsets_[i+1])
///   widths_   : uint64[num_sets]        — per-set width w(R) = sum of
///                                          in-degrees (TIM's KPT
///                                          statistic); only stored when
///                                          track_widths is requested
///
/// The first entry of every set is its root. Fixed per-set overhead is
/// 8 bytes (one offset; 16 with per-set widths) versus 24 bytes of
/// std::vector header plus a separate heap block in the legacy layout, and
/// coverage queries scan sets with zero pointer chasing. `set(i)` hands out
/// zero-copy spans into the arena.
///
/// ## Incremental inverted index (node -> containing set ids)
///
/// The index CELF greedy runs against is owned, persistent state, not a
/// per-call temporary: every `GenerateParallel` call indexes
/// exactly the sets it appended, so a caller that alternates appends and
/// selections (IMM's doubling rounds) pays O(new entries) per round instead
/// of O(total entries).
///
/// The index is a short list of CSR *segments*, one per generate call; each
/// segment groups the set ids of a contiguous, ascending range of sets by
/// node. Per-node lists are therefore sorted ascending across and within
/// segments. `cover_count_[u]` (number of indexed sets containing u) is
/// maintained alongside and seeds the CELF heap. If the segment list ever
/// exceeds `kMaxIndexSegments` (many tiny appends, or doubling rounds on
/// graphs past ~2^24 nodes), the adjacent pair with the fewest sets is
/// merged until the cap holds again — a binomial-style compaction that
/// keeps total index work amortized near-linear while typical
/// doubling-round usage triggers few or no merges.
///
/// In `GenerateParallel` the per-node counts that shape a new segment are
/// accumulated as task-local partial indexes on the pool (each task
/// counts the members of the blocks it sampled, wave by wave) and reduced
/// once at the end of the call; the placement pass then scatters set ids in
/// arena order, so index content — like the arena — is bitwise identical
/// for any thread count.
///
/// ## Selection
///
/// `SelectMaxCoverage(k, deadline)` runs CELF over every set in the
/// collection against the live index. The from-scratch path (a transient
/// index rebuilt on every call) lives in tests/coverage_reference.h, as the
/// reference for tests and the baseline of the `incremental_select`
/// microbenchmark section.
///
/// ## RNG-sharding contract (GenerateParallel)
///
/// `GenerateParallel(count, seed, pool)` appends `count` sets sampled in
/// fixed-size blocks of `kGenerateBlockSize`. Block b (0-based within the
/// call) is sampled sequentially by an independent RNG stream seeded with
/// SplitMix64(seed + kGenerateSeedSalt * (b + 1)) — the same derivation
/// shape as the MC estimator's per-simulation streams
/// (diffusion/spread_estimator.cc) and the sketch oracle's per-block
/// streams (diffusion/sketch_oracle.*), each with its own salt constant
/// (the streams are unrelated and must stay so; do not "unify" the
/// constants). Because block
/// decomposition and block seeds depend only on (count, seed) — never on
/// the pool size — the resulting arena is bitwise identical for any thread
/// count, including the inline single-thread pool. Blocks are processed in
/// waves: each pool task samples a run of kBlocksPerTask consecutive
/// blocks, up to 2 x threads tasks per wave, with per-task scratch
/// (EpochSet + DFS stack, one per task, not per block) and reusable output
/// buffers merged into the arena in block order after each wave — peak
/// transient memory is one wave of buffers, not a second copy of the
/// arena. The run length only schedules work; it is not part of the
/// contract.
class RrCollection {
 public:
  /// Sets sampled per RNG block in GenerateParallel. Part of the
  /// reproducibility contract: changing it changes sampled sets.
  static constexpr std::size_t kGenerateBlockSize = 256;
  /// Salt for deriving block seeds (same shape as RunSharded's derivation,
  /// deliberately a different constant).
  static constexpr uint64_t kGenerateSeedSalt = 0x9E3779B97F4A7C15ULL;
  /// Cap on live index segments; exceeding it merges the adjacent pair
  /// with the fewest sets (O(num_nodes + merged entries) each) until the
  /// cap holds. IMM's <= log2(n) doubling rounds stay under it for graphs
  /// up to ~2^24 nodes; beyond that (or with many tiny appends) a few
  /// cheap merges of the small early segments occur.
  static constexpr std::size_t kMaxIndexSegments = 24;

  /// `graph` and `params` are borrowed and must outlive the collection.
  /// `track_widths` additionally records the per-set width w(R) (8 bytes
  /// per set), needed only by TIM+'s KPT estimation; total_width() is
  /// always maintained. `build_index = false` disables the incremental
  /// inverted index (SelectMaxCoverage becomes unavailable) —
  /// used by callers that only sample, e.g. TIM+'s KPT rounds and the
  /// rebuild-baseline bench path.
  RrCollection(const Graph& graph, const InfluenceParams& params,
               bool track_widths = false, bool build_index = true);

  /// Appends `count` RR sets sharded across `pool` (nullptr selects
  /// DefaultThreadPool()) under the RNG-sharding contract above, indexing
  /// the new sets from task-local partial counts. Output (arena and
  /// index) is independent of the pool's thread count.
  ///
  /// `deadline` (borrowed, may be null) is checked once per *block* at
  /// wave boundaries via CheckN(blocks-in-wave) — tick consumption depends
  /// on the block count alone, never the thread count. On expiry the
  /// call's appends are rolled back entirely (the collection is exactly as
  /// before the call — a partial arena would be thread-count-shaped) and
  /// the deadline's status is returned; callers degrade from whatever
  /// earlier rounds completed.
  Status GenerateParallel(std::size_t count, uint64_t seed,
                          ThreadPool* pool = nullptr,
                          Deadline* deadline = nullptr);

  /// Drops all sets and index segments (keeps capacity).
  void Clear();

  std::size_t num_sets() const { return offsets_.size() - 1; }
  /// Zero-copy view of set i; the root is element 0. Invalidated by
  /// GenerateParallel/Clear.
  std::span<const NodeId> set(std::size_t i) const {
    return {entries_.data() + offsets_[i], entries_.data() + offsets_[i + 1]};
  }
  /// Width w(R_i): in-degree sum over members (TIM Sec. 4 KPT estimate).
  /// Only valid when constructed with track_widths.
  uint64_t set_width(std::size_t i) const { return widths_[i]; }
  /// Total node entries across all sets (TIM's EPT uses width = in-degree
  /// sum; this is the node-count size used for memory accounting).
  std::size_t total_entries() const { return entries_.size(); }
  /// Sum over sets of the in-degree "width" w(R) (TIM Sec. 4 KPT estimate).
  uint64_t total_width() const { return total_width_; }

  /// Greedy max-coverage over the collected sets. Returns k seeds and the
  /// fraction of sets covered.
  struct CoverageResult {
    std::vector<NodeId> seeds;
    double covered_fraction = 0.0;
    /// True when a deadline expired mid-selection; `seeds` then holds the
    /// prefix committed before expiry (greedy rounds are prefix-valid).
    bool deadline_hit = false;
  };

  /// CELF lazy greedy over every set, against the live incremental index:
  /// each pick pops the stale-max heap and re-counts that node's uncovered
  /// sets instead of eagerly decrementing every co-member's gain. Ties
  /// break toward the smaller node id. Requires build_index (checked).
  /// `deadline` (borrowed, may be null) is checked once per committed
  /// seed: on expiry the prefix selected so far is returned with
  /// `deadline_hit` set (no padding).
  CoverageResult SelectMaxCoverage(uint32_t k,
                                   Deadline* deadline = nullptr) const;

  /// Fraction of sets that contain at least one of `seeds`.
  double CoveredFraction(const std::vector<NodeId>& seeds) const;

  /// Bytes held by the RR arena (the memory-hungry part of TIM+; Fig. 6i).
  /// Excludes the inverted index — see IndexMemoryBytes() — so the metric
  /// stays comparable with pre-index releases.
  std::size_t MemoryBytes() const;

  /// Bytes held by the incremental inverted index (segments + per-node
  /// coverage counts).
  std::size_t IndexMemoryBytes() const;

  /// Bytes held by the IC/WC skip-and-thin row table (24 per node; 0
  /// under LT). Reported beside MemoryBytes() and IndexMemoryBytes().
  std::size_t RowTableMemoryBytes() const;

 private:
  /// Consecutive blocks one pool task samples per wave. Scheduling only:
  /// the arena does not depend on it.
  static constexpr std::size_t kBlocksPerTask = 8;

  /// One CSR index segment covering sets [first_set, first_set + num_sets):
  /// set ids grouped by node, ascending within each node's range.
  struct IndexSegment {
    std::size_t first_set = 0;
    std::size_t num_sets = 0;
    std::vector<uint32_t> offsets;  // num_nodes + 1
    std::vector<uint32_t> sets;     // set ids grouped by node
  };

  /// Skip-and-thin parameters of one node's in-row (see "Sampling").
  struct RowSampler {
    double q = 0.0;             // max in-edge probability, capped at 1
    double inv_log_miss = 0.0;  // 1 / ln(1 - q); set when 0 < q < 1
    double none_live = 1.0;     // (1 - q)^d; set when 0 < q < 1
  };

  /// Samples one RR set with `rng`, appending its members to `out`
  /// (root first). Returns the set's width.
  uint64_t SampleOne(Rng& rng, EpochSet& visited, std::vector<NodeId>& stack,
                     std::vector<NodeId>& out) const;

  /// Builds one index segment over the not-yet-indexed arena suffix
  /// [indexed_sets_, num_sets()). `new_counts`, when non-null, holds the
  /// per-node member counts of exactly that suffix (the reduced task
  /// partials of GenerateParallel); otherwise they are recounted from the
  /// arena. Updates cover_count_ and runs compaction.
  void IndexNewSets(const uint32_t* new_counts);

  /// Merges adjacent segment pairs (fewest combined sets first) until the
  /// segment count is back under kMaxIndexSegments.
  void CompactSegments();

  const Graph& graph_;
  const InfluenceParams& params_;
  bool track_widths_ = false;
  bool build_index_ = true;
  std::vector<RowSampler> rows_;      // per node, IC/WC only
  std::vector<NodeId> entries_;       // flat member arena
  std::vector<std::size_t> offsets_;  // num_sets + 1, offsets_[0] == 0
  std::vector<uint64_t> widths_;      // per-set width; empty unless tracked
  uint64_t total_width_ = 0;
  // Incremental inverted index (see class comment).
  std::vector<IndexSegment> segments_;
  std::vector<uint32_t> cover_count_;  // per node: #indexed sets containing it
  std::size_t indexed_sets_ = 0;       // == num_sets() between generate calls
};

}  // namespace holim

#endif  // HOLIM_ALGO_RR_SETS_H_
