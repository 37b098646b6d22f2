#ifndef HOLIM_ALGO_TIM_PLUS_H_
#define HOLIM_ALGO_TIM_PLUS_H_

#include <cstdint>
#include <string>

#include "algo/rr_sets.h"
#include "algo/seed_selector.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// Tuning parameters of TIM+ (Tang et al., SIGMOD'14).
struct TimPlusOptions {
  double epsilon = 0.1;   // approximation slack (paper Sec. 4 uses 0.1)
  double ell = 1.0;       // failure probability exponent: 1 - n^-ell
  uint64_t seed = 99;
  /// Safety cap on theta so a mis-parameterized run cannot OOM the host;
  /// 0 disables. When the cap binds, the run records `theta_capped`.
  std::size_t max_theta = 0;
  /// Pool for sharded RR-set generation (nullptr -> DefaultThreadPool()).
  /// Selected seeds are identical for every pool size (see rr_sets.h).
  ThreadPool* pool = nullptr;
};

/// \brief TIM+ — two-phase RIS influence maximization.
///
/// Phase 1 (parameter estimation): KPT* is estimated by repeatedly doubling
/// the RR-sample size until the average set "width" certifies a lower bound
/// on the optimum; an intermediate greedy refinement tightens it (TIM's
/// Algorithms 2-3). Phase 2 (node selection): theta = lambda / KPT+ RR sets
/// are drawn and greedy max-coverage picks k seeds.
///
/// TIM+'s defining trait for this paper is its memory footprint: theta RR
/// sets are all held in RAM, which is what Figs. 6i/6j and Table 3 measure.
class TimPlusSelector : public SeedSelector {
 public:
  TimPlusSelector(const Graph& graph, const InfluenceParams& params,
                  const TimPlusOptions& options = {});

  std::string name() const override;
  Result<SeedSelection> Select(uint32_t k) override;

  /// Statistics of the last run (for the scalability experiments).
  struct RunStats {
    double kpt_star = 0.0;
    double kpt_plus = 0.0;
    std::size_t theta = 0;
    bool theta_capped = false;
    /// RR arena only (paper Fig. 6i metric; comparable across releases).
    std::size_t rr_memory_bytes = 0;
    /// Persistent incremental inverted index on top of the arena.
    std::size_t rr_index_bytes = 0;
    /// IC/WC skip-and-thin row table (24 bytes per node; 0 under LT).
    std::size_t rr_row_table_bytes = 0;
  };
  const RunStats& last_run_stats() const { return stats_; }

  /// RunStats flattened for SolveResult::stats (theta_capped as 0/1).
  std::vector<std::pair<std::string, double>> LastRunStats() const override {
    return {{"kpt_star", stats_.kpt_star},
            {"kpt_plus", stats_.kpt_plus},
            {"theta", static_cast<double>(stats_.theta)},
            {"theta_capped", stats_.theta_capped ? 1.0 : 0.0},
            {"rr_memory_bytes", static_cast<double>(stats_.rr_memory_bytes)},
            {"rr_index_bytes", static_cast<double>(stats_.rr_index_bytes)},
            {"rr_row_table_bytes",
             static_cast<double>(stats_.rr_row_table_bytes)}};
  }

 private:
  double EstimateKpt(uint32_t k, Rng& rng);
  double RefineKpt(uint32_t k, double kpt_star, Rng& rng);

  const Graph& graph_;
  const InfluenceParams& params_;
  TimPlusOptions options_;
  RunStats stats_;
};

/// log(n choose k) via lgamma — shared by TIM+ and IMM thresholds.
double LogNChooseK(uint64_t n, uint64_t k);

}  // namespace holim

#endif  // HOLIM_ALGO_TIM_PLUS_H_
