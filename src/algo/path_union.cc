#include "algo/path_union.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/memory.h"
#include "util/timer.h"

namespace holim {

namespace {
constexpr NodeId kDenseLimit = 4096;

/// a ∪ b for independent event probabilities.
inline double ProbUnion(double a, double b) { return a + b - a * b; }

/// Algorithm 3's dense iteration: PU starts as the identity, and each of
/// the l rounds takes PU ⊗ M and zeroes the diagonal. Returns the final
/// PU; when `delta` is given, it also accumulates each round's row sums
/// of PU into it (line 10).
Result<std::vector<std::vector<double>>> IterateWalkUnion(
    const Graph& graph, const InfluenceParams& params, uint32_t l,
    std::vector<double>* delta) {
  const NodeId n = graph.num_nodes();
  if (n > kDenseLimit) {
    return Status::OutOfRange("PathUnion is dense; n exceeds " +
                              std::to_string(kDenseLimit));
  }
  // M[u][v] = p(u,v); PU starts as identity (paper line 1).
  std::vector<std::vector<double>> M(n, std::vector<double>(n, 0.0));
  for (NodeId u = 0; u < n; ++u) {
    const EdgeId base = graph.OutEdgeBegin(u);
    auto neighbors = graph.OutNeighbors(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      M[u][neighbors[i]] = params.p(base + i);
    }
  }
  std::vector<std::vector<double>> pu(n, std::vector<double>(n, 0.0));
  for (NodeId u = 0; u < n; ++u) pu[u][u] = 1.0;
  if (delta != nullptr) delta->assign(n, 0.0);

  std::vector<std::vector<double>> next(n, std::vector<double>(n, 0.0));
  for (uint32_t round = 1; round <= l; ++round) {
    // next = pu ⊗ M with union-combination across intermediates (Eq. 1).
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        double acc = 0.0;
        for (NodeId k = 0; k < n; ++k) {
          const double term = pu[i][k] * M[k][j];
          if (term != 0.0) acc = ProbUnion(acc, term);
        }
        next[i][j] = acc;
      }
    }
    std::swap(pu, next);
    for (NodeId v = 0; v < n; ++v) pu[v][v] = 0.0;  // lines 5-7
    if (delta != nullptr) {
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) (*delta)[u] += pu[u][v];
      }
    }
  }
  return pu;
}
}  // namespace

PathUnionScorer::PathUnionScorer(const Graph& graph,
                                 const InfluenceParams& params, uint32_t l)
    : graph_(graph), params_(params), l_(l) {}

Result<std::vector<std::vector<double>>> PathUnionScorer::WalkUnionMatrix()
    const {
  return IterateWalkUnion(graph_, params_, l_, nullptr);
}

Result<std::vector<double>> PathUnionScorer::AssignScores() const {
  // Delta_i(u) accumulates row sums of PU after each round (line 10).
  std::vector<double> delta;
  HOLIM_RETURN_NOT_OK(IterateWalkUnion(graph_, params_, l_, &delta).status());
  return delta;
}

Result<SeedSelection> PathUnionSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  SeedSelection selection;
  MemoryMeter meter;
  Timer timer;
  HOLIM_ASSIGN_OR_RETURN(std::vector<double> delta, scorer_.AssignScores());
  std::vector<NodeId> order(graph_.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](NodeId a, NodeId b) {
                      if (delta[a] != delta[b]) return delta[a] > delta[b];
                      return a < b;
                    });
  for (uint32_t i = 0; i < k; ++i) {
    selection.seeds.push_back(order[i]);
    selection.seed_scores.push_back(delta[order[i]]);
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
