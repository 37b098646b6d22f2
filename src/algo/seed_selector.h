#ifndef HOLIM_ALGO_SEED_SELECTOR_H_
#define HOLIM_ALGO_SEED_SELECTOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/deadline.h"
#include "util/status.h"

namespace holim {

/// Outcome of a seed-selection run, with the bookkeeping the paper's
/// efficiency/scalability experiments report (Figs. 5g/5h, 6f-6j).
struct SeedSelection {
  std::vector<NodeId> seeds;
  double elapsed_seconds = 0.0;
  /// Additional RSS the algorithm allocated beyond the loaded graph
  /// ("execution memory" in Figs. 5h/6j), best-effort.
  std::size_t overhead_bytes = 0;
  /// Deterministic working-set accounting (capacity-based, same convention
  /// as MemoryFootprintBytes across graph/ and model/): the scorer-internal
  /// scratch buffers, where the algorithm reports them. 0 if N/A. Unlike
  /// overhead_bytes this is exact and reproducible below RSS granularity.
  std::size_t scratch_bytes = 0;
  /// Algorithm-internal score of each chosen seed (empty if N/A).
  std::vector<double> seed_scores;
  /// True when a deadline/cancellation stopped the run early; `seeds` then
  /// holds the prefix completed before expiry (possibly empty). Not an
  /// error: greedy rounds are prefix-valid, so the caller decides whether
  /// to degrade (HolimEngine's tier ladder) or fail.
  bool degraded = false;
  /// The deadline status that stopped a degraded run (kDeadlineExceeded or
  /// kCancelled); kOk when `degraded` is false.
  Status stop_status;
};

/// \brief Common interface for all influence-maximization algorithms.
///
/// Implementations bind a graph + parameters at construction; Select(k)
/// returns the chosen seed set together with timing/memory bookkeeping.
class SeedSelector {
 public:
  virtual ~SeedSelector() = default;

  /// Short stable identifier, e.g. "EaSyIM(l=3)".
  virtual std::string name() const = 0;

  /// Selects k seeds. Implementations must be deterministic in their
  /// constructor-provided seed — repeated Select calls on one instance
  /// return bitwise-identical selections (the contract the engine
  /// Workspace's warm selector reuse rests on).
  virtual Result<SeedSelection> Select(uint32_t k) = 0;

  /// Budgeted selection (QueryKind::kBudgeted): benefit-per-cost greedy
  /// under a total `budget`, at most `max_seeds` seeds. `costs` holds one
  /// positive cost per node and must outlive the call. Selection stops
  /// when no remaining node fits the residual budget (candidates whose
  /// cost exceeds it are dropped permanently — their gain only shrinks
  /// while their cost is fixed, so they can never fit later). Same
  /// determinism contract as Select. The default reports no support; the
  /// engine gates callers through AlgorithmInfo::supported_queries, so
  /// this surfaces only on direct misuse.
  virtual Result<SeedSelection> SelectBudgeted(
      uint32_t max_seeds, std::span<const double> costs, double budget) {
    (void)max_seeds;
    (void)costs;
    (void)budget;
    return Status::Unimplemented(name() +
                                 " does not support budgeted selection");
  }

  /// Algorithm-specific counters of the most recent Select call (name ->
  /// value), e.g. TIM+'s theta / theta_capped / RR arena bytes. Empty when
  /// the algorithm keeps no extra counters. HolimEngine copies these into
  /// SolveResult::stats.
  virtual std::vector<std::pair<std::string, double>> LastRunStats() const {
    return {};
  }

  /// Bytes of state this selector retains between Select calls
  /// (capacity-based, the repo-wide MemoryFootprintBytes convention): the
  /// scorer scratch of EaSyIM/OSIM/ASIM, and a sketch-backed hill-climber's
  /// session scratch (its worlds are charged as a sketch arena). 0 for
  /// stateless selectors. The engine Workspace charges cached selectors
  /// against its budget through this.
  virtual std::size_t MemoryFootprintBytes() const { return 0; }

  /// Binds a cooperative deadline for subsequent Select/SelectBudgeted
  /// calls (borrowed; the engine clears it before the selector outlives
  /// the solve). Null (the default) restores the unbounded behavior —
  /// with no deadline bound, runs are byte-identical to pre-deadline
  /// builds. Deadline-aware selectors check it at round boundaries and
  /// return a degraded prefix SeedSelection on expiry; selectors that
  /// ignore it simply run to completion.
  void set_deadline(Deadline* deadline) { deadline_ = deadline; }

 protected:
  Deadline* deadline_ = nullptr;
};

}  // namespace holim

#endif  // HOLIM_ALGO_SEED_SELECTOR_H_
