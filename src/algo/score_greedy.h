#ifndef HOLIM_ALGO_SCORE_GREEDY_H_
#define HOLIM_ALGO_SCORE_GREEDY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/easyim.h"
#include "algo/osim.h"
#include "algo/seed_selector.h"
#include "diffusion/cascade.h"
#include "diffusion/oi_model.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {

/// How ScoreGREEDY updates the activated set V(a) after each seed pick.
/// Algorithm 1 line 11 leaves the estimator open; kMonteCarloMajority is
/// the default, and `bench_ablation_activation` compares all three on
/// quality and cost.
enum class ActivationStrategy {
  /// V(a) = S: only seeds are removed in later iterations.
  kSeedsOnly,
  /// Run `mc_rounds` simulations from the new seed (previously-activated
  /// nodes blocked); nodes activated in >= `majority_fraction` of rounds
  /// join V(a). Default strategy.
  kMonteCarloMajority,
  /// Deterministic probability propagation up to l hops; nodes whose
  /// activation probability estimate >= `majority_fraction` join V(a).
  kExpectedReach,
};

const char* ActivationStrategyName(ActivationStrategy strategy);

/// Tuning knobs for the ScoreGREEDY driver.
struct ScoreGreedyOptions {
  ActivationStrategy activation = ActivationStrategy::kMonteCarloMajority;
  uint32_t mc_rounds = 20;
  double majority_fraction = 0.5;
  uint64_t seed = 7;
  /// Use the scorer's dirty-frontier incremental rescore between rounds
  /// instead of a full O(l(m+n)) recompute. Bitwise-identical seed sets
  /// either way (the full recompute stays available as the oracle path).
  /// Off by default so the paper's O(n)-space contract — and the memory
  /// figures that reproduce it — hold unless explicitly traded away;
  /// holim_cli defaults its --rescore flag to incremental, the
  /// time-figure benches to full (paper methodology).
  bool incremental_rescore = false;
  /// Hub-aware fallback for the incremental rescore: when the level-i dirty
  /// frontier exceeds this fraction of n, the scorer abandons frontier
  /// bookkeeping and recomputes levels i..l with whole-level passes
  /// (scores stay bitwise identical; see
  /// ScoreSweepEngine::set_incremental_fallback_fraction). Excluding a hub
  /// on a scale-free graph dirties most of the graph, where the
  /// incremental pass used to run ~1-1.9x SLOWER than a plain full sweep.
  /// >= 1 disables the fallback. Ignored without incremental_rescore.
  double rescore_fallback_fraction = 0.25;
  /// Pool for the sweep kernel's fixed-block sharding; nullptr runs the
  /// sweeps serially. Scores are bitwise-identical for any pool size.
  ThreadPool* pool = nullptr;
};

/// \brief ScoreGREEDY (paper Algorithm 1): repeatedly assign scores to all
/// nodes of G(V \ V(a)), pick the arg-max as the next seed, then grow V(a)
/// with the nodes the new seed activates.
///
/// The score assigner is pluggable: EaSyIM for the opinion-oblivious IM
/// problem, OSIM for MEO, ASIM as the lineage baseline. All three drive
/// this implementation through ScoreSweepSelector.
class ScoreGreedy {
 public:
  /// Incremental-aware score assigner: `newly_excluded` lists exactly the
  /// nodes added to `excluded` since the assigner's previous invocation;
  /// nullptr means the delta is unknown (first round, or the driver scored
  /// an unrelated set in between) and a full recompute is required. An
  /// assigner may ignore the delta and always recompute in full.
  using IncrementalScoreFn =
      std::function<void(const EpochSet& excluded,
                         const std::vector<NodeId>* newly_excluded,
                         std::vector<double>*)>;

  ScoreGreedy(const Graph& graph, IncrementalScoreFn score_fn,
              const ScoreGreedyOptions& options);

  /// Hook used by the activation strategies: simulate one cascade from
  /// `seed` with `blocked` nodes removed and report the activated nodes.
  using SimulateFn = std::function<void(NodeId seed, const EpochSet& blocked,
                                        Rng& rng, std::vector<NodeId>* out)>;
  void set_simulate_fn(SimulateFn fn) { simulate_fn_ = std::move(fn); }

  /// Hook for kExpectedReach: edge probability accessor.
  void set_edge_probability(const std::vector<double>* p) { edge_prob_ = p; }
  void set_max_hops(uint32_t hops) { max_hops_ = hops; }

  /// Cooperative deadline checked at each round boundary (borrowed, may be
  /// null). On expiry Select returns the degraded seed prefix.
  void set_deadline(Deadline* deadline) { deadline_ = deadline; }

  Result<SeedSelection> Select(uint32_t k);

 private:
  void GrowActivatedSet(NodeId new_seed);
  void ExpectedReach(NodeId seed, std::vector<NodeId>* out);
  /// All V(a) growth funnels through here so the newly-excluded delta
  /// handed to the incremental assigner stays exact.
  void InsertActivated(NodeId u);

  const Graph& graph_;
  IncrementalScoreFn score_fn_;
  ScoreGreedyOptions options_;
  SimulateFn simulate_fn_;
  const std::vector<double>* edge_prob_ = nullptr;
  Deadline* deadline_ = nullptr;
  uint32_t max_hops_ = 3;
  EpochSet activated_;
  /// Nodes inserted into activated_ since the last main scoring call.
  std::vector<NodeId> newly_activated_;
  /// MC-majority scratch, kept across rounds: per-node activation counts
  /// (all zero between rounds), the nodes counted this round, and one
  /// simulation's activations.
  std::vector<uint32_t> hits_;
  std::vector<NodeId> candidates_;
  std::vector<NodeId> activated_this_run_;
  Rng rng_;
};

/// \brief ScoreGREEDY over a persistent score-sweep scorer: the one
/// selector body of EaSyIM, OSIM and ASIM.
///
/// Each round scores G(V \ V(a)) through `Scorer` (a ScoreSweepEngine):
/// the dirty-frontier rescore when options.incremental_rescore is set,
/// else a full sweep, sharded on options.pool either way. Select honours
/// the bound deadline. The three algorithms differ only in their scorer,
/// their label and the dynamics of their activation simulations, which
/// the subclasses fix at construction. Member functions are defined, and
/// the three scorers instantiated, in score_greedy.cc.
template <typename Scorer>
class ScoreSweepSelector : public SeedSelector {
 public:
  std::string name() const override;
  Result<SeedSelection> Select(uint32_t k) override;
  /// The sweep work of the last Select: full_sweeps, incremental_sweeps,
  /// fallback_sweeps, nodes_full and nodes_incremental, each counted over
  /// that call alone (the scorer's own stats() accumulate across calls).
  std::vector<std::pair<std::string, double>> LastRunStats() const override {
    return last_run_stats_;
  }
  /// The scorer's retained sweep scratch (rolling buffers + incremental
  /// level table), capacity-based.
  std::size_t MemoryFootprintBytes() const override {
    return scorer_.ScratchBytes();
  }

  /// The underlying scorer (persistent across Select calls), exposing the
  /// sweep kernel's work/memory stats.
  Scorer& scorer() { return scorer_; }

 protected:
  /// `label` prefixes name(). `influence` supplies the activation
  /// strategies' edge probabilities; MC-majority simulates LT dynamics
  /// when `lt_dynamics` is set, IC otherwise.
  ScoreSweepSelector(std::string label, const Graph& graph,
                     const InfluenceParams& influence, bool lt_dynamics,
                     Scorer scorer, const ScoreGreedyOptions& options);

 private:
  std::string label_;
  const Graph& graph_;
  const InfluenceParams& influence_;
  bool lt_dynamics_;
  Scorer scorer_;
  ScoreGreedyOptions options_;
  std::vector<std::pair<std::string, double>> last_run_stats_;
};

/// EaSyIM bound to ScoreGREEDY: the paper's scalable opinion-oblivious IM
/// algorithm. Works for IC/WC (direct) and LT (weights as probabilities via
/// the live-edge equivalence, Sec. 3.3).
class EasyImSelector : public ScoreSweepSelector<EasyImScorer> {
 public:
  EasyImSelector(const Graph& graph, const InfluenceParams& params, uint32_t l,
                 const ScoreGreedyOptions& options = {});
};

/// OSIM bound to ScoreGREEDY: the paper's MEO algorithm.
class OsimSelector : public ScoreSweepSelector<OsimScorer> {
 public:
  OsimSelector(const Graph& graph, const InfluenceParams& influence,
               const OpinionParams& opinions, OiBase base, uint32_t l,
               const ScoreGreedyOptions& options = {});
};

}  // namespace holim

#endif  // HOLIM_ALGO_SCORE_GREEDY_H_
