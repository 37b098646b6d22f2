#include "algo/imm.h"

#include <algorithm>
#include <cmath>

#include "algo/tim_plus.h"  // LogNChooseK
#include "util/memory.h"
#include "util/timer.h"

namespace holim {

ImmSelector::ImmSelector(const Graph& graph, const InfluenceParams& params,
                         const ImmOptions& options)
    : graph_(graph), params_(params), options_(options) {}

std::string ImmSelector::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "IMM(eps=%.2g)", options_.epsilon);
  return buf;
}

Result<SeedSelection> ImmSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  MemoryMeter meter;
  Timer timer;
  Rng rng(options_.seed);
  stats_ = RunStats{};

  const double n = static_cast<double>(graph_.num_nodes());
  const double eps = options_.epsilon;
  const double ell = options_.ell * (1.0 + std::log(2.0) / std::log(n));
  const double log_nck = LogNChooseK(graph_.num_nodes(), k);
  // IMM Sampling phase constants (paper Sec. 3.2).
  const double eps_prime = std::sqrt(2.0) * eps;
  const double alpha = std::sqrt(ell * std::log(n) + std::log(2.0));
  const double beta =
      std::sqrt((1.0 - 1.0 / M_E) * (log_nck + ell * std::log(n) + std::log(2.0)));
  const double lambda_prime =
      (2.0 + 2.0 / 3.0 * eps_prime) *
      (log_nck + ell * std::log(n) + std::log(std::log2(std::max(2.0, n)))) *
      n / (eps_prime * eps_prime);
  const double lambda_star = 2.0 * n *
                             ((1.0 - 1.0 / M_E) * alpha + beta) *
                             ((1.0 - 1.0 / M_E) * alpha + beta) / (eps * eps);

  // As in TIM+: expiry mid-generation leaves no valid seed prefix, so a
  // degraded IMM run returns empty seeds and the engine's heuristic tier
  // takes over. Expiry is sticky on the deadline.
  auto degrade = [&]() -> Result<SeedSelection> {
    selection.seeds.clear();
    selection.seed_scores.clear();
    selection.degraded = true;
    selection.stop_status = deadline_->status();
    selection.elapsed_seconds = timer.ElapsedSeconds();
    selection.overhead_bytes = meter.OverheadBytes();
    return selection;
  };

  RrCollection rr(graph_, params_);
  double lb = 1.0;
  const uint32_t max_rounds =
      static_cast<uint32_t>(std::max(1.0, std::log2(n) - 1.0));
  for (uint32_t i = 1; i <= max_rounds; ++i) {
    const double x = n / std::pow(2.0, i);
    std::size_t theta_i =
        static_cast<std::size_t>(std::ceil(lambda_prime / x));
    if (options_.max_theta > 0) theta_i = std::min(theta_i, options_.max_theta);
    // Draw the round seed unconditionally: RNG consumption per round must
    // not depend on whether this round appended sets (max_theta can cap
    // theta_i at the current size), or seeds downstream would diverge
    // across max_theta settings.
    const uint64_t round_seed = rng.Next64();
    if (rr.num_sets() < theta_i) {
      if (!rr.GenerateParallel(theta_i - rr.num_sets(), round_seed,
                               options_.pool, deadline_)
               .ok()) {
        return degrade();
      }
    }
    // The snapshot CELF runs against the incrementally maintained index, so
    // this round only paid indexing for the sets appended above.
    auto coverage = rr.SelectMaxCoverage(k);
    const double estimate = n * coverage.covered_fraction;
    if (estimate >= (1.0 + eps_prime) * x) {
      lb = estimate / (1.0 + eps_prime);
      break;
    }
    if (options_.max_theta > 0 && rr.num_sets() >= options_.max_theta) break;
  }
  stats_.lower_bound = lb;

  std::size_t theta =
      static_cast<std::size_t>(std::ceil(lambda_star / std::max(1.0, lb)));
  if (options_.max_theta > 0) theta = std::min(theta, options_.max_theta);
  // Hoisted for the same reason as round_seed above: consume one draw on
  // both the generate and the already-enough-sets path.
  const uint64_t final_seed = rng.Next64();
  if (rr.num_sets() < theta) {
    if (!rr.GenerateParallel(theta - rr.num_sets(), final_seed, options_.pool,
                             deadline_)
             .ok()) {
      return degrade();
    }
  }
  stats_.theta = rr.num_sets();
  stats_.rr_memory_bytes = rr.MemoryBytes();
  stats_.rr_index_bytes = rr.IndexMemoryBytes();
  stats_.rr_row_table_bytes = rr.RowTableMemoryBytes();

  auto coverage = rr.SelectMaxCoverage(k, deadline_);
  selection.seeds = std::move(coverage.seeds);
  if (coverage.deadline_hit) {
    // Committed prefix seeds are valid greedy max-coverage output.
    selection.degraded = true;
    selection.stop_status = deadline_->status();
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
