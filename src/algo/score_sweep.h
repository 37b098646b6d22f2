#ifndef HOLIM_ALGO_SCORE_SWEEP_H_
#define HOLIM_ALGO_SCORE_SWEEP_H_

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace holim {

/// Nodes per ParallelForBlocks range in the sweep kernel. Fixed (independent
/// of thread count) so the work partition — and therefore every per-node
/// accumulation — is identical for any pool size.
inline constexpr std::size_t kSweepBlockNodes = 2048;

/// Work/memory counters of a ScoreSweepEngine, for the scorer stats output
/// and the BENCH_scoring.json work-ratio gate. All byte figures follow the
/// repo-wide accounting convention: allocated capacity(), not size().
struct ScoreSweepStats {
  /// Passes that recompute whole levels rather than a dirty frontier: each
  /// AssignScores, each leveled build of the incremental table, and each
  /// fallback rebuild (which recomputes only the levels it could not cover).
  uint64_t full_sweeps = 0;
  /// Dirty-frontier passes that reused the per-level state.
  uint64_t incremental_sweeps = 0;
  /// Incremental passes whose level-i dirty frontier blew past the fallback
  /// fraction (hub exclusions on scale-free graphs dirty most of the
  /// graph, where whole-level passes are cheaper than frontier
  /// bookkeeping). Such a pass keeps its exact levels 1..i-1, recomputes
  /// levels i..l in full and counts one full_sweep, not an
  /// incremental_sweep.
  uint64_t fallback_sweeps = 0;
  /// Node-level Delta evaluations done by whole-level passes: l * n per
  /// AssignScores or leveled build, (l - i + 1) * n per fallback at level i.
  uint64_t nodes_full = 0;
  /// Node-level Delta evaluations done by incremental passes.
  uint64_t nodes_incremental = 0;
  /// O(n) rolling prev/cur buffers (always allocated).
  std::size_t rolling_bytes = 0;
  /// O((l+1) n) per-level state + persistent scores (0 until the first
  /// incremental pass — the oracle path keeps the paper's O(n) contract).
  std::size_t level_bytes = 0;
  /// Frontier scratch of the incremental path (dirty lists, stamps, flags).
  std::size_t frontier_bytes = 0;

  std::size_t ScratchBytes() const {
    return rolling_bytes + level_bytes + frontier_bytes;
  }
};

/// \brief Shared pull-based CSR sweep kernel behind EaSyIM, OSIM and ASIM
/// (paper Algorithms 4 and 5, and ASIM, the heuristic EaSyIM refines).
///
/// The three algorithms are the same recurrence with different per-node
/// state: level i's value of node u is a fold over u's out-edges of level
/// i-1's values, skipping excluded endpoints. The Policy supplies the state
/// type and the fold; the engine supplies two execution strategies, which
/// are the scorer API of EasyImScorer, OsimScorer and AsimScorer:
///
///  1. AssignScores — the paper's O(l(m+n)) time / O(n) space oracle path.
///     Two rolling Value buffers; each level is one data-parallel pass
///     sharded with ThreadPool::ParallelForBlocks in fixed node blocks.
///     Every node writes only its own slot and folds its out-edges in CSR
///     order, so the result is bitwise identical for any thread count.
///
///  2. AssignScoresIncremental — re-scoring across ScoreGREEDY rounds. Keeps
///     the full (l+1)-level value table (O(l n) space, a deliberate
///     space-for-time trade against the oracle path). Excluding seed set X
///     only perturbs nodes within l reverse hops of X: level i must be
///     recomputed for dirty_i = X ∪ InNeighbors(X) ∪ InNeighbors(changed at
///     level i-1), where "changed" is detected by exact Value comparison.
///     Recomputing a node from unchanged inputs replays the identical fold,
///     so its output is bitwise identical to a full recompute — the
///     equality is exact, not approximate, and is enforced by tests.
///
/// Policy requirements (see EasyImSweepPolicy, OsimSweepPolicy and
/// AsimSweepPolicy):
///   using Value = <regular type with operator==>;
///   Value Zero() const;                  // state of an excluded node
///   Value Init(NodeId u) const;          // level-0 state (excluded-agnostic)
///   Value Compute(NodeId u, const Value* prev,
///                 const EpochSet& excluded) const;
///       // one pull fold over u's out-edges in CSR order, skipping
///       // excluded targets; must not read prev[v] of an excluded v
///   void AccumulateScore(NodeId u, double* score, const Value& v,
///                        uint32_t level) const;
///       // folds level `v` (1-based) into the node's final score; called
///       // in increasing-level order starting from *score = 0
template <typename Policy>
class ScoreSweepEngine {
 public:
  using Value = typename Policy::Value;

  ScoreSweepEngine(const Graph& graph, Policy policy, uint32_t l)
      : graph_(graph),
        policy_(std::move(policy)),
        l_(l),
        prev_(graph.num_nodes()),
        cur_(graph.num_nodes()) {
    HOLIM_CHECK(l >= 1) << "path length l must be >= 1";
  }

  uint32_t path_length() const { return l_; }

  /// Full l-level rolling sweep into `scores` (resized to n): every node of
  /// G(V \ excluded) gets its score, excluded nodes get -infinity so they
  /// are never re-picked. `pool == nullptr` runs serially; a pool shards
  /// each level in fixed node blocks, bitwise identical for any size.
  void AssignScores(const EpochSet& excluded, std::vector<double>* scores,
                    ThreadPool* pool = nullptr) {
    const NodeId n = graph_.num_nodes();
    scores->assign(n, 0.0);
    InitValues(prev_.data(), pool);
    double* score = scores->data();
    for (uint32_t i = 1; i <= l_; ++i) {
      SweepLevel(excluded, i, prev_.data(), cur_.data(), score, pool);
      std::swap(prev_, cur_);
    }
    MaskExcluded(excluded, scores);
    ++stats_.full_sweeps;
    stats_.nodes_full += static_cast<uint64_t>(l_) * n;
  }

  /// Incremental re-score. Contract: `excluded` must equal the set of the
  /// previous AssignScoresIncremental call plus exactly the nodes in
  /// `*newly`. Pass `newly == nullptr` when that does not hold (first call,
  /// or the caller scored against an unrelated set in between) — the
  /// engine then rebuilds the level table with a full leveled sweep. Output
  /// is bitwise identical to AssignScores(excluded, ...) either way. Trades
  /// the oracle path's O(n) space for O(l n) per-level state, allocated on
  /// first use. `pool == nullptr` runs serially.
  void AssignScoresIncremental(const EpochSet& excluded,
                               const std::vector<NodeId>* newly,
                               std::vector<double>* scores,
                               ThreadPool* pool = nullptr) {
    const NodeId n = graph_.num_nodes();
    EnsureLevelState();
    if (newly == nullptr || !levels_valid_) {
      RebuildLevels(excluded, 1, pool);
    } else {
      IncrementalPass(excluded, *newly, pool);
    }
    scores->resize(n);
    for (NodeId u = 0; u < n; ++u) {
      (*scores)[u] = excluded.Contains(u)
                         ? -std::numeric_limits<double>::infinity()
                         : score_[u];
    }
  }

  /// Dirty-frontier size (as a fraction of n) above which an incremental
  /// pass abandons frontier bookkeeping: when level i's frontier crosses
  /// it, levels i..l are recomputed with whole-level passes and every score
  /// is refolded. Scores are bitwise identical either way — this is
  /// purely a work heuristic for hub-heavy (scale-free) graphs, where
  /// excluding a hub dirties most of the graph and the incremental pass
  /// degrades to a slower full sweep. >= 1 disables the fallback.
  void set_incremental_fallback_fraction(double fraction) {
    incremental_fallback_fraction_ = fraction;
  }
  double incremental_fallback_fraction() const {
    return incremental_fallback_fraction_;
  }

  const ScoreSweepStats& stats() const {
    stats_.rolling_bytes =
        (prev_.capacity() + cur_.capacity()) * sizeof(Value);
    stats_.level_bytes = levels_.capacity() * sizeof(Value) +
                         score_.capacity() * sizeof(double);
    stats_.frontier_bytes =
        (dirty_.capacity() + base_dirty_.capacity() + changed_.capacity() +
         touched_.capacity()) *
            sizeof(NodeId) +
        changed_flag_.capacity() * sizeof(uint8_t) + stamp_.size_bytes() +
        touched_stamp_.size_bytes();
    return stats_;
  }

  /// Extra working memory beyond the graph and parameters (capacity-based,
  /// see ScoreSweepStats): the two O(n) rolling buffers, plus the level
  /// table and frontier scratch once AssignScoresIncremental has been used.
  std::size_t ScratchBytes() const { return stats().ScratchBytes(); }

 private:
  // Runs block(lo, hi) over [0, count): inline when serial, else sharded
  // in fixed kSweepBlockNodes ranges so the partition never depends on the
  // pool size.
  template <typename Block>
  static void ForBlocks(std::size_t count, ThreadPool* pool,
                        const Block& block) {
    if (pool == nullptr) {
      block(0, count);
    } else {
      pool->ParallelForBlocks(count, kSweepBlockNodes, block);
    }
  }

  // Level-0 initialisation, sharded like the level passes.
  void InitValues(Value* out, ThreadPool* pool) {
    ForBlocks(graph_.num_nodes(), pool, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) {
        out[u] = policy_.Init(static_cast<NodeId>(u));
      }
    });
  }

  // One data-parallel level pass: cur[u] = Compute(u, prev) for all nodes,
  // folding the level into `score` when given (rolling mode).
  void SweepLevel(const EpochSet& excluded, uint32_t level, const Value* prev,
                  Value* cur, double* score, ThreadPool* pool) {
    ForBlocks(graph_.num_nodes(), pool, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId u = static_cast<NodeId>(i);
        cur[u] = excluded.Contains(u) ? policy_.Zero()
                                      : policy_.Compute(u, prev, excluded);
        if (score != nullptr) {
          policy_.AccumulateScore(u, &score[u], cur[u], level);
        }
      }
    });
  }

  void MaskExcluded(const EpochSet& excluded, std::vector<double>* scores) {
    const NodeId n = graph_.num_nodes();
    for (NodeId u = 0; u < n; ++u) {
      if (excluded.Contains(u)) {
        (*scores)[u] = -std::numeric_limits<double>::infinity();
      }
    }
  }

  void EnsureLevelState() {
    if (!levels_.empty()) return;
    const std::size_t n = graph_.num_nodes();
    levels_.resize((static_cast<std::size_t>(l_) + 1) * n);
    score_.resize(n);
    changed_flag_.resize(n, 0);
  }

  Value* Level(uint32_t i) {
    return levels_.data() + static_cast<std::size_t>(i) * graph_.num_nodes();
  }

  // u's score over the stored levels 1..last, folded from 0.0 in
  // increasing-level order like the rolling path (so bitwise identical).
  double FoldLevels(NodeId u, uint32_t last) {
    double s = 0.0;
    for (uint32_t i = 1; i <= last; ++i) {
      policy_.AccumulateScore(u, &s, Level(i)[u], i);
    }
    return s;
  }

  // Leveled rebuild from level `first` on: same values as AssignScores, but
  // materializing every level so later calls can rescore incrementally.
  // Levels below `first` must already be exact for `excluded` (the first
  // build and the nullptr path pass 1, which also re-initialises level 0).
  // Every score restarts from its exact prefix 1..first-1, and each
  // rebuilt level then folds in as it is swept.
  void RebuildLevels(const EpochSet& excluded, uint32_t first,
                     ThreadPool* pool) {
    const NodeId n = graph_.num_nodes();
    if (first == 1) InitValues(Level(0), pool);
    ForBlocks(n, pool, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) {
        score_[u] = FoldLevels(static_cast<NodeId>(u), first - 1);
      }
    });
    for (uint32_t i = first; i <= l_; ++i) {
      SweepLevel(excluded, i, Level(i - 1), Level(i), score_.data(), pool);
    }
    levels_valid_ = true;
    ++stats_.full_sweeps;
    stats_.nodes_full += static_cast<uint64_t>(l_ - first + 1) * n;
  }

  // *out = roots ∪ InNeighbors(pulled), deduped serially in discovery order
  // so the list (and the fixed-block partition over it) is deterministic
  // regardless of the pool size. Returns false, leaving *out partial, as
  // soon as the list outgrows `bound`: it only grows, so the fallback
  // decision is already made.
  bool CollectFrontier(const std::vector<NodeId>& roots,
                       const std::vector<NodeId>& pulled, double bound,
                       std::vector<NodeId>* out) {
    stamp_.Reset(graph_.num_nodes());
    out->clear();
    auto add = [&](NodeId u) {
      if (stamp_.Contains(u)) return true;
      stamp_.Insert(u);
      out->push_back(u);
      return !(static_cast<double>(out->size()) > bound);
    };
    for (NodeId u : roots) {
      if (!add(u)) return false;
    }
    for (NodeId u : pulled) {
      for (NodeId w : graph_.InNeighbors(u)) {
        if (!add(w)) return false;
      }
    }
    return true;
  }

  // Dirty-frontier pass: recompute exactly the nodes whose value can differ
  // from the previous (valid) level table after excluding `newly`.
  void IncrementalPass(const EpochSet& excluded,
                       const std::vector<NodeId>& newly, ThreadPool* pool) {
    const NodeId n = graph_.num_nodes();
    const double bound = incremental_fallback_fraction_ * n;
    // base dirty = X ∪ InNeighbors(X): these see a structural change (the
    // node itself, or one of its out-edge terms, dropped) at EVERY level.
    // dirty_1 is exactly this set, so a base past the bound falls back at
    // level 1.
    bool within = CollectFrontier(newly, newly, bound, &base_dirty_);
    touched_stamp_.Reset(n);
    touched_.clear();
    // Level 0 is Init-only (exclusion-agnostic): nothing changed yet.
    changed_.clear();
    for (uint32_t i = 1; i <= l_; ++i) {
      // dirty_i = base ∪ InNeighbors(changed_{i-1}).
      within = within &&
               CollectFrontier(base_dirty_, changed_, bound, &dirty_);
      // Hub-aware fallback: once the frontier covers most of the graph,
      // per-node bookkeeping costs more than whole-level passes. Levels
      // 1..i-1 are already exact, so only levels i..l are recomputed; the
      // refold keeps the output bitwise identical to the incremental path.
      if (!within) {
        ++stats_.fallback_sweeps;
        RebuildLevels(excluded, i, pool);
        return;
      }
      // Ascending node order: the recompute then streams the level arrays
      // and the CSR instead of hopping in discovery order.
      std::sort(dirty_.begin(), dirty_.end());
      const Value* prev = Level(i - 1);
      Value* cur = Level(i);
      ForBlocks(dirty_.size(), pool, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          const NodeId u = dirty_[j];
          const Value v = excluded.Contains(u)
                              ? policy_.Zero()
                              : policy_.Compute(u, prev, excluded);
          changed_flag_[u] = !(v == cur[u]);
          cur[u] = v;
        }
      });
      stats_.nodes_incremental += dirty_.size();
      changed_.clear();
      for (NodeId u : dirty_) {
        if (!changed_flag_[u]) continue;
        changed_.push_back(u);
        if (!touched_stamp_.Contains(u)) {
          touched_stamp_.Insert(u);
          touched_.push_back(u);
        }
      }
    }
    // Refold the final score of every node with a changed level.
    for (NodeId u : touched_) score_[u] = FoldLevels(u, l_);
    ++stats_.incremental_sweeps;
  }

  const Graph& graph_;
  Policy policy_;
  uint32_t l_;
  // Rolling buffers of the O(n)-space oracle path.
  std::vector<Value> prev_, cur_;
  // Incremental state: (l+1) levels of Values + persistent scores, lazily
  // allocated on the first incremental call so the oracle path keeps O(n)
  // space.
  std::vector<Value> levels_;
  std::vector<double> score_;
  bool levels_valid_ = false;
  double incremental_fallback_fraction_ = 0.25;
  // Frontier scratch.
  EpochSet stamp_, touched_stamp_;
  std::vector<NodeId> base_dirty_, dirty_, changed_, touched_;
  std::vector<uint8_t> changed_flag_;
  // Byte counters are refreshed inside const stats() (capacity snapshots).
  mutable ScoreSweepStats stats_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_SCORE_SWEEP_H_
