#ifndef HOLIM_ALGO_IMM_H_
#define HOLIM_ALGO_IMM_H_

#include <cstdint>
#include <string>

#include "algo/rr_sets.h"
#include "algo/seed_selector.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// Tuning parameters of IMM (Tang et al., SIGMOD'15).
struct ImmOptions {
  double epsilon = 0.1;
  double ell = 1.0;
  uint64_t seed = 123;
  /// 0 = uncapped; safety valve as in TIM+. Select() consumes one RNG draw
  /// per doubling round and one for the final theta regardless of whether
  /// the round actually appends sets, so the seed a given round generates
  /// with does not depend on where max_theta capped an earlier round.
  std::size_t max_theta = 0;
  /// Pool for sharded RR-set generation (nullptr -> DefaultThreadPool()).
  /// Selected seeds are identical for every pool size (see rr_sets.h).
  ThreadPool* pool = nullptr;
};

/// \brief IMM — martingale-based RIS influence maximization.
///
/// The sampling phase geometrically grows the RR collection; after each
/// growth step it runs greedy max-coverage and tests whether the covered
/// mass certifies a lower bound LB on OPT. Once certified, theta =
/// lambda* / LB sets suffice (reusing the already-drawn sets), and the
/// final greedy pass yields a (1 - 1/e - eps)-approximation w.h.p. IMM's
/// improvement over TIM+ is precisely that the estimation samples are
/// reused, cutting the RR-set count by a large constant.
class ImmSelector : public SeedSelector {
 public:
  ImmSelector(const Graph& graph, const InfluenceParams& params,
              const ImmOptions& options = {});

  std::string name() const override;
  Result<SeedSelection> Select(uint32_t k) override;

  struct RunStats {
    double lower_bound = 0.0;
    std::size_t theta = 0;
    /// RR arena only (paper Fig. 6i metric; comparable across releases).
    std::size_t rr_memory_bytes = 0;
    /// Persistent incremental inverted index on top of the arena.
    std::size_t rr_index_bytes = 0;
    /// IC/WC skip-and-thin row table (24 bytes per node; 0 under LT).
    std::size_t rr_row_table_bytes = 0;
  };
  const RunStats& last_run_stats() const { return stats_; }

  /// RunStats flattened for SolveResult::stats.
  std::vector<std::pair<std::string, double>> LastRunStats() const override {
    return {{"lower_bound", stats_.lower_bound},
            {"theta", static_cast<double>(stats_.theta)},
            {"rr_memory_bytes", static_cast<double>(stats_.rr_memory_bytes)},
            {"rr_index_bytes", static_cast<double>(stats_.rr_index_bytes)},
            {"rr_row_table_bytes",
             static_cast<double>(stats_.rr_row_table_bytes)}};
  }

 private:
  const Graph& graph_;
  const InfluenceParams& params_;
  ImmOptions options_;
  RunStats stats_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_IMM_H_
