#include "algo/heuristics.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/memory.h"
#include "util/rng.h"
#include "util/timer.h"

namespace holim {

namespace {
Status ValidateK(const Graph& graph, uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  return Status::OK();
}
}  // namespace

Result<SeedSelection> DegreeSelector::Select(uint32_t k) {
  HOLIM_RETURN_NOT_OK(ValidateK(graph_, k));
  SeedSelection selection;
  Timer timer;
  std::vector<NodeId> order(graph_.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  // Ties go to the smaller id: a total order, so Select(k) is the first k
  // seeds of Select(K) (the engine's prefix memo relies on it).
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](NodeId a, NodeId b) {
                      const uint32_t da = graph_.OutDegree(a);
                      const uint32_t db = graph_.OutDegree(b);
                      if (da != db) return da > db;
                      return a < b;
                    });
  selection.seeds.assign(order.begin(), order.begin() + k);
  for (NodeId s : selection.seeds) {
    selection.seed_scores.push_back(graph_.OutDegree(s));
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  return selection;
}

Result<SeedSelection> SingleDiscountSelector::Select(uint32_t k) {
  HOLIM_RETURN_NOT_OK(ValidateK(graph_, k));
  SeedSelection selection;
  Timer timer;
  std::vector<double> score(graph_.num_nodes());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    score[u] = graph_.OutDegree(u);
  }
  std::vector<char> chosen(graph_.num_nodes(), 0);
  for (uint32_t i = 0; i < k; ++i) {
    NodeId best = kInvalidNode;
    double best_score = -1.0;
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      if (!chosen[u] && score[u] > best_score) {
        best_score = score[u];
        best = u;
      }
    }
    chosen[best] = 1;
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_score);
    // Each out-neighbor of the new seed loses one unit of usable degree.
    for (NodeId v : graph_.OutNeighbors(best)) {
      if (!chosen[v] && score[v] > 0) score[v] -= 1.0;
    }
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  return selection;
}

Result<SeedSelection> DegreeDiscountSelector::Select(uint32_t k) {
  HOLIM_RETURN_NOT_OK(ValidateK(graph_, k));
  SeedSelection selection;
  Timer timer;
  const NodeId n = graph_.num_nodes();
  std::vector<double> dd(n);
  std::vector<uint32_t> t(n, 0);  // selected in-neighbors of v
  for (NodeId u = 0; u < n; ++u) dd[u] = graph_.OutDegree(u);
  std::vector<char> chosen(n, 0);
  for (uint32_t i = 0; i < k; ++i) {
    NodeId best = kInvalidNode;
    double best_score = -std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < n; ++u) {
      if (!chosen[u] && dd[u] > best_score) {
        best_score = dd[u];
        best = u;
      }
    }
    chosen[best] = 1;
    selection.seeds.push_back(best);
    selection.seed_scores.push_back(best_score);
    for (NodeId v : graph_.OutNeighbors(best)) {
      if (chosen[v]) continue;
      ++t[v];
      const double dv = graph_.OutDegree(v);
      dd[v] = dv - 2.0 * t[v] - (dv - t[v]) * t[v] * p_;
    }
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  return selection;
}

std::vector<double> PageRankSelector::ComputeRanks() const {
  const NodeId n = graph_.num_nodes();
  std::vector<double> rank(n, 1.0 / n), next(n, 0.0);
  for (uint32_t iter = 0; iter < iterations_; ++iter) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), (1.0 - damping_) / n);
    for (NodeId u = 0; u < n; ++u) {
      // Influence PageRank: rank flows from v to u along edge (u, v)
      // reversed — i.e. a node is important if it points at important
      // spreaders is inverted; here mass flows along in-edges of u's
      // out-neighbors, i.e. standard PR on the transposed graph.
      const uint32_t deg = graph_.InDegree(u);
      if (deg == 0) {
        dangling += rank[u];
        continue;
      }
      const double share = damping_ * rank[u] / deg;
      for (NodeId v : graph_.InNeighbors(u)) next[v] += share;
    }
    const double redistribute = damping_ * dangling / n;
    for (NodeId u = 0; u < n; ++u) next[u] += redistribute;
    std::swap(rank, next);
  }
  return rank;
}

Result<SeedSelection> PageRankSelector::Select(uint32_t k) {
  HOLIM_RETURN_NOT_OK(ValidateK(graph_, k));
  SeedSelection selection;
  Timer timer;
  auto rank = ComputeRanks();
  std::vector<NodeId> order(graph_.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  // Smaller id first among equal ranks, as in DegreeSelector::Select.
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](NodeId a, NodeId b) {
                      if (rank[a] != rank[b]) return rank[a] > rank[b];
                      return a < b;
                    });
  selection.seeds.assign(order.begin(), order.begin() + k);
  for (NodeId s : selection.seeds) selection.seed_scores.push_back(rank[s]);
  selection.elapsed_seconds = timer.ElapsedSeconds();
  return selection;
}

Result<SeedSelection> RandomSelector::Select(uint32_t k) {
  HOLIM_RETURN_NOT_OK(ValidateK(graph_, k));
  SeedSelection selection;
  Timer timer;
  Rng rng(seed_);
  std::vector<char> chosen(graph_.num_nodes(), 0);
  while (selection.seeds.size() < k) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
    if (chosen[u]) continue;
    chosen[u] = 1;
    selection.seeds.push_back(u);
  }
  selection.elapsed_seconds = timer.ElapsedSeconds();
  return selection;
}

}  // namespace holim
