#ifndef HOLIM_ALGO_LAZY_GREEDY_H_
#define HOLIM_ALGO_LAZY_GREEDY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algo/seed_selector.h"
#include "graph/graph.h"
#include "util/deadline.h"

namespace holim {

/// \brief Marginal-gain oracle hill-climbed by LazyGreedy and EagerGreedy.
/// It owns the committed seed set S and how a gain is scored; the driver
/// owns the order in which candidates are scored and committed. Objectives
/// hand theirs out through McObjective::Gains (algo/greedy.h).
class GainOracle {
 public:
  virtual ~GainOracle() = default;

  /// Marginal gain of `u` w.r.t. S.
  virtual double Gain(NodeId u) = 0;

  /// Adds `u` to S. `gain` is what Gain(u) returned against the current
  /// S; the oracle must take it as given, never re-evaluate it.
  virtual void Commit(NodeId u, double gain) = 0;

  /// CELF++ look-ahead: the gain of `u` w.r.t. S + {x}, without
  /// committing x. Only an oracle that scores whole sets can answer one
  /// (it costs two evaluations: S + x and S + x + u); the default
  /// declines, and the driver then runs plain CELF.
  virtual bool GainWith(NodeId /*x*/, NodeId /*u*/, double* /*gain*/) {
    return false;
  }

  /// Upper bounds on the gains of `candidates` w.r.t. the empty S, one
  /// per candidate in order: each must be >= what Gain would return for
  /// it (in doubles). Asked once, before any Commit. The default declines,
  /// and LazyGreedy then scores every candidate up front.
  virtual bool EmptySetGainBounds(std::span<const NodeId> /*candidates*/,
                                  std::vector<double>* /*bounds*/) {
    return false;
  }
};

/// What one LazyGreedy or EagerGreedy run committed and what it cost.
struct LazyGreedyRun {
  /// seeds, seed_scores (each seed's committed gain), and on an early
  /// stop degraded + stop_status; timings and memory are the caller's.
  SeedSelection selection;
  /// Oracle evaluations: one per Gain call, two per answered GainWith.
  uint64_t evaluations = 0;
};

/// \brief The lazy-forward (CELF) greedy driver behind CELF/CELF++,
/// StaticGreedy and SIMPATH (Leskovec et al., KDD'07; CELF++: Goyal et
/// al., WWW'11). EagerGreedy below is its evaluate-everything twin.
///
/// One pre-pass keys every candidate (in `candidates` order), then each
/// round pops the entry with the largest key. A key computed against the
/// current S is committed; a stale one is re-scored and pushed back.
/// Under a submodular gain a stale key is an upper bound, so the popped
/// fresh entry is the round's arg-max.
///
///  * **Pre-pass.** When the oracle offers EmptySetGainBounds, each
///    candidate is keyed on its bound, never scored, and is first scored
///    when it reaches the heap top; otherwise the pre-pass scores every
///    candidate. A bound is just another upper bound, so neither the
///    arg-max nor the tie rule below moves: the seeds and their gains are
///    the same either way, only the evaluation count drops.
///  * **Key and order.** With empty `costs` (top-k) the key is the gain;
///    with costs (one per node id) it is gain / cost. Larger key pops
///    first, and equal keys pop the smaller node id first, so the result
///    is the eager arg-max sequence under that tie rule.
///  * **Budget.** With costs, a popped candidate whose cost exceeds the
///    residual budget is dropped for good: its gain only shrinks while its
///    cost is fixed. `budget` is ignored for top-k.
///  * **Checkpoints.** `deadline` (borrowed, may be null) is checked once
///    before the pre-pass and once at the top of every later round. A stop
///    requested mid-round (wall clock or cancellation) discards that round
///    before a gain scored after it can be committed.
///  * **CELF++.** In top-k, each re-score also asks the oracle for the
///    gain w.r.t. S + (current heap top). If that node is committed next,
///    the entry's next re-score is served from this cache instead of the
///    oracle. Never used with costs: the budgeted pop order depends on
///    cost, so the heap top is no prediction of the next commit.
///
/// Stops after `max_seeds` commits or when no candidate is left.
LazyGreedyRun LazyGreedy(GainOracle& oracle,
                         std::span<const NodeId> candidates,
                         uint32_t max_seeds,
                         std::span<const double> costs = {},
                         double budget = 0.0, Deadline* deadline = nullptr);

/// \brief The eager greedy driver (Kempe et al.'s GREEDY; the paper's
/// Modified-GREEDY when the gains are effective opinion): every round
/// scores every uncommitted candidate that fits and commits the best.
///
/// Same rules as LazyGreedy, so on a submodular gain both return the same
/// seeds:
///  * **Key and order.** The key is the gain, or gain / cost with `costs`.
///    Each round scans `candidates` in order and keeps the larger key;
///    equal keys go to the smaller node id.
///  * **Budget.** With costs, a candidate whose cost exceeds the residual
///    budget is skipped unscored; the run ends when nothing fits.
///  * **Checkpoints.** `deadline` (borrowed, may be null) is checked once
///    at the top of every round, so k rounds take k checks. A stop
///    requested mid-round (wall clock or cancellation) discards that
///    round: its scores may rest on partial evaluations.
///
/// Never asks GainWith. Stops after `max_seeds` commits or when no
/// candidate is left.
LazyGreedyRun EagerGreedy(GainOracle& oracle,
                          std::span<const NodeId> candidates,
                          uint32_t max_seeds,
                          std::span<const double> costs = {},
                          double budget = 0.0, Deadline* deadline = nullptr);

/// Every node of an `n`-node graph, ascending: the usual candidate pool.
std::vector<NodeId> AllNodes(NodeId n);

}  // namespace holim

#endif  // HOLIM_ALGO_LAZY_GREEDY_H_
