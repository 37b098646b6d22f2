#include "algo/simpath.h"

#include <cstdio>

#include "algo/lazy_greedy.h"
#include "util/memory.h"
#include "util/timer.h"

namespace holim {

SimpathSelector::SimpathSelector(const Graph& graph,
                                 const InfluenceParams& params,
                                 const SimpathOptions& options)
    : graph_(graph), params_(params), options_(options) {}

std::string SimpathSelector::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "SIMPATH(eta=%.2g)", options_.eta);
  return buf;
}

double SimpathSelector::EnumerateFrom(NodeId u, std::vector<char>& on_path,
                                      const std::vector<char>& excluded,
                                      double weight, uint32_t depth) const {
  // Returns the summed weight of simple paths strictly extending the current
  // prefix ending at u. Each extension contributes its own weight (the
  // probability the path is fully live), which is that node's activation
  // contribution under the LT live-edge view.
  if (depth >= options_.max_depth) return 0.0;
  double total = 0.0;
  const EdgeId base = graph_.OutEdgeBegin(u);
  auto neighbors = graph_.OutNeighbors(u);
  on_path[u] = 1;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    const NodeId v = neighbors[i];
    if (on_path[v] || excluded[v]) continue;
    const double w = weight * params_.p(base + i);
    if (w < options_.eta) continue;  // prune light prefixes
    total += w + EnumerateFrom(v, on_path, excluded, w, depth + 1);
  }
  on_path[u] = 0;
  return total;
}

double SimpathSelector::SpreadOfNode(NodeId u,
                                     const std::vector<char>& excluded) const {
  std::vector<char> on_path(graph_.num_nodes(), 0);
  return EnumerateFrom(u, on_path, excluded, 1.0, 0);
}

double SimpathSelector::SpreadOfSet(const std::vector<NodeId>& seeds,
                                    const std::vector<char>& excluded) const {
  // sigma(S) = sum_{u in S} sigma^{V - (S \ u)}({u}) + |S| accounts for the
  // LT decomposition; we report spread *excluding* seeds per Def. 3, so the
  // |S| term is dropped.
  if (seeds.empty()) return 0.0;
  std::vector<char> mask = excluded;
  for (NodeId s : seeds) mask[s] = 1;
  double total = 0.0;
  std::vector<char> on_path(graph_.num_nodes(), 0);
  for (NodeId s : seeds) {
    mask[s] = 0;  // u itself may start paths
    total += EnumerateFrom(s, on_path, mask, 1.0, 0);
    mask[s] = 1;
  }
  return total;
}

Result<SeedSelection> SimpathSelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  MemoryMeter meter;
  Timer timer;

  // sigma(S + u) = sigma^{V-u}(S) + sigma^{V-S}(u), minus the running sum
  // of committed gains.
  class PathGains : public GainOracle {
   public:
    PathGains(const SimpathSelector& selector, NodeId n)
        : selector_(selector), seed_mask_(n, 0), without_u_(n, 0) {}
    double Gain(NodeId u) override {
      without_u_[u] = 1;
      const double sigma_s_minus_u = selector_.SpreadOfSet(seeds_, without_u_);
      without_u_[u] = 0;
      const double sigma_u = selector_.SpreadOfNode(u, seed_mask_);
      return sigma_s_minus_u + sigma_u - value_;
    }
    void Commit(NodeId u, double gain) override {
      seeds_.push_back(u);
      seed_mask_[u] = 1;
      without_u_[u] = 1;
      value_ += gain;
    }

   private:
    const SimpathSelector& selector_;
    std::vector<NodeId> seeds_;
    std::vector<char> seed_mask_;
    std::vector<char> without_u_;  // seed_mask_, plus u during a Gain call
    double value_ = 0.0;
  };
  PathGains gains(*this, graph_.num_nodes());
  SeedSelection selection =
      LazyGreedy(gains, AllNodes(graph_.num_nodes()), k, {}, 0.0, deadline_)
          .selection;
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
