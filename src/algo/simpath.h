#ifndef HOLIM_ALGO_SIMPATH_H_
#define HOLIM_ALGO_SIMPATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/seed_selector.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// Tuning parameters of SIMPATH (Goyal, Lu, Lakshmanan, ICDM'11).
struct SimpathOptions {
  /// Path-weight pruning threshold (paper Sec. 4 uses eta = 1e-3).
  double eta = 1e-3;
  /// Hard cap on simple-path enumeration depth (safety valve; the weight
  /// prune usually terminates far earlier since weights shrink as 1/indeg^d).
  uint32_t max_depth = 16;
};

/// \brief SIMPATH — simple-path spread estimation for the LT model.
///
/// Under LT the spread of a seed set decomposes into sums over simple
/// paths: sigma({u}) = sum over simple paths starting at u of the product
/// of edge weights. SIMPATH enumerates those paths by backtracking DFS,
/// pruning any prefix whose weight drops below eta, and hill-climbs the
/// resulting gains with one LazyGreedy run (algo/lazy_greedy.h): equal
/// gains go to the smaller node id, and the driver's round checkpoints
/// bound the run under a deadline. The paper's look-ahead (re-score the
/// top-l candidates per round as one batch) is not implemented: here each
/// re-score enumerates its own paths, so a batch shares no work and would
/// only add re-scores.
///
/// Marginal gains use the paper's decomposition
///   sigma(S + u) = sigma^{V-u}(S) + sigma^{V-S}({u}),
/// both terms evaluated by pruned path enumeration. (The vertex-cover
/// first-round optimization of the original paper is a constant-factor
/// speedup and is not implemented.)
class SimpathSelector : public SeedSelector {
 public:
  SimpathSelector(const Graph& graph, const InfluenceParams& params,
                  const SimpathOptions& options = {});

  std::string name() const override;
  Result<SeedSelection> Select(uint32_t k) override;

  /// Pruned simple-path spread of `u` in the graph with `excluded` nodes
  /// removed. Exposed for tests (exact on small graphs as eta -> 0).
  double SpreadOfNode(NodeId u, const std::vector<char>& excluded) const;

  /// sigma^{V-excluded}(S): sum of per-seed spreads on V - excluded - (S\{u}).
  double SpreadOfSet(const std::vector<NodeId>& seeds,
                     const std::vector<char>& excluded) const;

 private:
  double EnumerateFrom(NodeId u, std::vector<char>& on_path,
                       const std::vector<char>& excluded, double weight,
                       uint32_t depth) const;

  const Graph& graph_;
  const InfluenceParams& params_;
  SimpathOptions options_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_SIMPATH_H_
