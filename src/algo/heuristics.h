#ifndef HOLIM_ALGO_HEURISTICS_H_
#define HOLIM_ALGO_HEURISTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algo/seed_selector.h"
#include "graph/graph.h"
#include "model/influence_params.h"

namespace holim {

/// Highest out-degree first, ties to the smaller id. The classical
/// "high-degree" baseline.
class DegreeSelector : public SeedSelector {
 public:
  explicit DegreeSelector(const Graph& graph) : graph_(graph) {}
  std::string name() const override { return "Degree"; }
  Result<SeedSelection> Select(uint32_t k) override;

 private:
  const Graph& graph_;
};

/// SingleDiscount: degree heuristic that discounts one unit per already-
/// selected neighbor (Chen et al., KDD'09).
class SingleDiscountSelector : public SeedSelector {
 public:
  explicit SingleDiscountSelector(const Graph& graph) : graph_(graph) {}
  std::string name() const override { return "SingleDiscount"; }
  Result<SeedSelection> Select(uint32_t k) override;

 private:
  const Graph& graph_;
};

/// DegreeDiscountIC (Chen et al., KDD'09): degree discount tuned to the
/// uniform-p IC model: ddv = dv - 2 tv - (dv - tv) tv p, where tv counts
/// selected in-neighbors of v.
class DegreeDiscountSelector : public SeedSelector {
 public:
  DegreeDiscountSelector(const Graph& graph, double p)
      : graph_(graph), p_(p) {}
  std::string name() const override { return "DegreeDiscountIC"; }
  Result<SeedSelection> Select(uint32_t k) override;

 private:
  const Graph& graph_;
  double p_;
};

/// PageRank on the reversed graph (influence flows along out-edges, so
/// rank mass flows along in-edges), selected by decreasing rank, ties to
/// the smaller id.
class PageRankSelector : public SeedSelector {
 public:
  PageRankSelector(const Graph& graph, double damping = 0.85,
                   uint32_t iterations = 50)
      : graph_(graph), damping_(damping), iterations_(iterations) {}
  std::string name() const override { return "PageRank"; }
  Result<SeedSelection> Select(uint32_t k) override;

  /// The rank vector (exposed for tests).
  std::vector<double> ComputeRanks() const;

 private:
  const Graph& graph_;
  double damping_;
  uint32_t iterations_;
};

/// Uniform-random seeds (sanity floor).
class RandomSelector : public SeedSelector {
 public:
  RandomSelector(const Graph& graph, uint64_t seed)
      : graph_(graph), seed_(seed) {}
  std::string name() const override { return "Random"; }
  Result<SeedSelection> Select(uint32_t k) override;

 private:
  const Graph& graph_;
  uint64_t seed_;
};

}  // namespace holim

#endif  // HOLIM_ALGO_HEURISTICS_H_
