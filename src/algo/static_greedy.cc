#include "algo/static_greedy.h"

#include "algo/lazy_greedy.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/timer.h"

namespace holim {

StaticGreedySelector::StaticGreedySelector(const Graph& graph,
                                           const InfluenceParams& params,
                                           const StaticGreedyOptions& options)
    : graph_(graph), params_(params), options_(options) {}

std::string StaticGreedySelector::name() const {
  return "StaticGreedy(R=" + std::to_string(options_.num_snapshots) + ")";
}

void StaticGreedySelector::SampleSnapshots() {
  snapshots_.clear();
  snapshots_.reserve(options_.num_snapshots);
  Rng rng(options_.seed);
  const NodeId n = graph_.num_nodes();
  const bool lt = params_.model == DiffusionModel::kLinearThreshold;
  for (uint32_t s = 0; s < options_.num_snapshots; ++s) {
    Snapshot snap;
    snap.offsets.assign(n + 1, 0);
    std::vector<std::pair<NodeId, NodeId>> live;
    if (lt) {
      // Live-edge LT: each node keeps at most one in-edge.
      for (NodeId v = 0; v < n; ++v) {
        auto in_neighbors = graph_.InNeighbors(v);
        auto in_edges = graph_.InEdgeIds(v);
        double r = rng.NextDouble();
        for (std::size_t i = 0; i < in_neighbors.size(); ++i) {
          const double w = params_.p(in_edges[i]);
          if (r < w) {
            live.emplace_back(in_neighbors[i], v);
            break;
          }
          r -= w;
        }
      }
    } else {
      for (NodeId u = 0; u < n; ++u) {
        const EdgeId base = graph_.OutEdgeBegin(u);
        auto neighbors = graph_.OutNeighbors(u);
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          if (rng.NextBernoulli(params_.p(base + i))) {
            live.emplace_back(u, neighbors[i]);
          }
        }
      }
    }
    for (auto [u, v] : live) ++snap.offsets[u + 1];
    for (NodeId u = 0; u < n; ++u) snap.offsets[u + 1] += snap.offsets[u];
    snap.targets.resize(live.size());
    std::vector<EdgeId> cursor(snap.offsets.begin(), snap.offsets.end() - 1);
    for (auto [u, v] : live) snap.targets[cursor[u]++] = v;
    snapshots_.push_back(std::move(snap));
  }
}

double StaticGreedySelector::MarginalGain(
    NodeId u, const std::vector<std::vector<char>>& covered) const {
  // BFS from u in each snapshot counting nodes not yet covered.
  std::size_t gain = 0;
  std::vector<NodeId> stack;
  std::vector<char> seen(graph_.num_nodes(), 0);
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& snap = snapshots_[s];
    std::fill(seen.begin(), seen.end(), 0);
    stack.clear();
    stack.push_back(u);
    seen[u] = 1;
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      if (!covered[s][x]) ++gain;
      for (EdgeId e = snap.offsets[x]; e < snap.offsets[x + 1]; ++e) {
        const NodeId y = snap.targets[e];
        if (!seen[y]) {
          seen[y] = 1;
          stack.push_back(y);
        }
      }
    }
  }
  return static_cast<double>(gain) / snapshots_.size();
}

void StaticGreedySelector::Cover(NodeId u,
                                 std::vector<std::vector<char>>* covered) const {
  std::vector<NodeId> stack;
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& snap = snapshots_[s];
    auto& mask = (*covered)[s];
    stack.clear();
    if (!mask[u]) {
      mask[u] = 1;
      stack.push_back(u);
    }
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (EdgeId e = snap.offsets[x]; e < snap.offsets[x + 1]; ++e) {
        const NodeId y = snap.targets[e];
        if (!mask[y]) {
          mask[y] = 1;
          stack.push_back(y);
        }
      }
    }
  }
}

std::size_t StaticGreedySelector::SnapshotBytes() const {
  std::size_t bytes = 0;
  for (const Snapshot& snap : snapshots_) {
    bytes += snap.offsets.capacity() * sizeof(EdgeId) +
             snap.targets.capacity() * sizeof(NodeId);
  }
  return bytes;
}

Result<SeedSelection> StaticGreedySelector::Select(uint32_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_.num_nodes()) {
    return Status::InvalidArgument("k exceeds node count");
  }
  MemoryMeter meter;
  Timer timer;
  // The sample is a pure function of (graph, params, options), so it is
  // drawn once and kept: re-Select on a cached selector (engine Workspace
  // warm reuse) skips phase 1 while staying bitwise-identical to a cold
  // run.
  if (snapshots_.empty()) SampleSnapshots();

  // Gains on a static sample are exactly submodular: the average number
  // of nodes u newly covers across the snapshots.
  class CoverageGains : public GainOracle {
   public:
    CoverageGains(const StaticGreedySelector& selector, NodeId n)
        : selector_(selector),
          covered_(selector.snapshots_.size(), std::vector<char>(n, 0)) {}
    double Gain(NodeId u) override {
      return selector_.MarginalGain(u, covered_);
    }
    void Commit(NodeId u, double /*gain*/) override {
      selector_.Cover(u, &covered_);
    }

   private:
    const StaticGreedySelector& selector_;
    std::vector<std::vector<char>> covered_;
  };
  CoverageGains gains(*this, graph_.num_nodes());
  SeedSelection selection =
      LazyGreedy(gains, AllNodes(graph_.num_nodes()), k, {}, 0.0, deadline_)
          .selection;
  selection.elapsed_seconds = timer.ElapsedSeconds();
  selection.overhead_bytes = meter.OverheadBytes();
  return selection;
}

}  // namespace holim
