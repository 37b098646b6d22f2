// Test-only scalar reference for SketchOracle.
//
// It rebuilds each live-edge world straight from the per-(snapshot, node)
// stream contract documented in diffusion/sketch_oracle.h — sharing no
// code with the oracle's lane sampler — and answers every estimator with
// one plain BFS per world. Agreement with the oracle therefore pins the
// sampled bits as well as the bit-parallel kernels that walk them: a
// wrongly drawn world fails here even if every kernel reads it
// consistently. Worlds are held one vector per source, so keep graphs
// small.

#ifndef HOLIM_TESTS_SKETCH_REFERENCE_H_
#define HOLIM_TESTS_SKETCH_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "diffusion/sketch_oracle.h"
#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/rng.h"

namespace holim::sketch_reference {

/// One live out-edge of a world: its target and its position in the
/// source's out-row.
struct LiveEdge {
  NodeId target;
  uint32_t offset;
};
/// One world: per source, its live out-edges in EdgeId order.
using World = std::vector<std::vector<LiveEdge>>;

/// Initial SplitMix64 state of the (snapshot, node) stream.
inline uint64_t StreamState(uint64_t seed, uint32_t snapshot, NodeId node) {
  return seed + SketchOracle::kSnapshotSeedSalt * (snapshot + uint64_t{1}) +
         SketchOracle::kSnapshotNodeSalt * (static_cast<uint64_t>(node) + 1);
}

/// Next stream output mapped to [0, 1).
inline double NextUnit(uint64_t& state) {
  return static_cast<double>(Rng::SplitMix64(state) >> 11) * 0x1.0p-53;
}

/// World `snapshot`: IC/WC flip each source's out-row in order from the
/// source's stream; LT picks each target's live in-edge with one uniform
/// and a residual scan of its in-row, from the target's stream.
inline World SampleWorld(const Graph& graph, const InfluenceParams& params,
                         uint64_t seed, uint32_t snapshot) {
  const NodeId n = graph.num_nodes();
  World world(n);
  if (params.model == DiffusionModel::kLinearThreshold) {
    for (NodeId v = 0; v < n; ++v) {
      const auto in_edges = graph.InEdgeIds(v);
      if (in_edges.empty()) continue;
      uint64_t state = StreamState(seed, snapshot, v);
      double r = NextUnit(state);
      for (std::size_t i = 0; i < in_edges.size(); ++i) {
        if (r < params.p(in_edges[i])) {
          const NodeId u = graph.InNeighbors(v)[i];
          world[u].push_back(
              {v, static_cast<uint32_t>(in_edges[i] - graph.OutEdgeBegin(u))});
          break;
        }
        r -= params.p(in_edges[i]);
      }
    }
    for (auto& row : world) {
      std::sort(row.begin(), row.end(),
                [](const LiveEdge& a, const LiveEdge& b) {
                  return a.offset < b.offset;
                });
    }
    return world;
  }
  for (NodeId u = 0; u < n; ++u) {
    const auto targets = graph.OutNeighbors(u);
    uint64_t state = StreamState(seed, snapshot, u);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (NextUnit(state) < params.p(graph.OutEdgeBegin(u) + i)) {
        world[u].push_back({targets[i], static_cast<uint32_t>(i)});
      }
    }
  }
  return world;
}

/// One (group, node) lane row, flattened for comparison. `offsets` stays
/// empty unless edge offsets are part of the comparison.
struct LaneRow {
  std::vector<NodeId> targets;
  std::vector<uint64_t> masks;
  std::vector<uint32_t> offsets;
  bool operator==(const LaneRow&) const = default;
};

/// The oracle's copy of lane row (g, u).
inline LaneRow OracleLaneRow(const SketchOracle& oracle, uint32_t g,
                             NodeId u) {
  const SketchOracle::LaneAdjacency adj = oracle.LaneTargets(g, u);
  LaneRow row;
  row.targets.assign(adj.targets, adj.targets + adj.size);
  row.masks.assign(adj.masks, adj.masks + adj.size);
  if (adj.edge_offsets != nullptr) {
    row.offsets.assign(adj.edge_offsets, adj.edge_offsets + adj.size);
  }
  return row;
}

/// Every lane row of `a` equals `b`'s, and so do their byte footprints.
inline ::testing::AssertionResult SameLaneArena(const SketchOracle& a,
                                                const SketchOracle& b) {
  if (a.ArenaBytes() != b.ArenaBytes()) {
    return ::testing::AssertionFailure()
           << "ArenaBytes " << a.ArenaBytes() << " vs " << b.ArenaBytes();
  }
  if (a.num_lane_groups() != b.num_lane_groups() ||
      a.graph().num_nodes() != b.graph().num_nodes()) {
    return ::testing::AssertionFailure() << "arena shapes differ";
  }
  for (uint32_t g = 0; g < a.num_lane_groups(); ++g) {
    for (NodeId u = 0; u < a.graph().num_nodes(); ++u) {
      if (!(OracleLaneRow(a, g, u) == OracleLaneRow(b, g, u))) {
        return ::testing::AssertionFailure()
               << "lane row differs at group " << g << " node " << u;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The sample of R worlds an oracle with (seed, R) must hold, and every
/// SketchOracle estimator recomputed one world at a time.
class Reference {
 public:
  Reference(const Graph& graph, const InfluenceParams& params, uint64_t seed,
            uint32_t num_snapshots)
      : graph_(graph) {
    for (uint32_t s = 0; s < num_snapshots; ++s) {
      worlds_.push_back(SampleWorld(graph, params, seed, s));
    }
  }

  uint32_t num_snapshots() const {
    return static_cast<uint32_t>(worlds_.size());
  }

  /// Lane row (g, u) as the union of the group's worlds: per out-row
  /// offset, the lanes where that edge is live.
  LaneRow ExpectedLaneRow(uint32_t g, NodeId u, bool with_offsets) const {
    std::vector<uint64_t> masks(graph_.OutDegree(u), 0);
    const uint32_t s_lo = g * SketchOracle::kLanesPerGroup;
    const uint32_t s_hi = std::min<uint32_t>(
        num_snapshots(), s_lo + SketchOracle::kLanesPerGroup);
    for (uint32_t s = s_lo; s < s_hi; ++s) {
      for (const LiveEdge& e : worlds_[s][u]) {
        masks[e.offset] |= uint64_t{1} << (s - s_lo);
      }
    }
    LaneRow row;
    for (uint32_t i = 0; i < masks.size(); ++i) {
      if (masks[i] == 0) continue;
      row.targets.push_back(graph_.OutNeighbors(u)[i]);
      row.masks.push_back(masks[i]);
      if (with_offsets) row.offsets.push_back(i);
    }
    return row;
  }

  /// Every lane row of `oracle` (sampled with this reference's seed and R)
  /// equals the row rebuilt from the streams.
  ::testing::AssertionResult MatchesLaneArena(const SketchOracle& oracle,
                                              bool with_offsets) const {
    const uint32_t groups =
        (num_snapshots() + SketchOracle::kLanesPerGroup - 1) /
        SketchOracle::kLanesPerGroup;
    if (oracle.num_lane_groups() != groups) {
      return ::testing::AssertionFailure() << "lane group count differs";
    }
    for (uint32_t g = 0; g < groups; ++g) {
      for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
        if (!(OracleLaneRow(oracle, g, u) ==
              ExpectedLaneRow(g, u, with_offsets))) {
          return ::testing::AssertionFailure()
                 << "lane row differs from the streams at group " << g
                 << " node " << u;
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  /// FIFO BFS over world s from `seeds` (duplicates skipped), calling
  /// visit(source, live_edge, depth) on each first arrival — the order the
  /// oracle's opinion replay uses. Returns the number of nodes reached,
  /// seeds included.
  template <typename Visit>
  int64_t Bfs(uint32_t s, std::span<const NodeId> seeds, Visit&& visit) const {
    std::vector<uint32_t> depth(graph_.num_nodes(), kUnreached);
    std::vector<NodeId> queue;
    for (const NodeId seed : seeds) {
      if (depth[seed] != kUnreached) continue;
      depth[seed] = 0;
      queue.push_back(seed);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const LiveEdge& e : worlds_[s][u]) {
        if (depth[e.target] != kUnreached) continue;
        depth[e.target] = depth[u] + 1;
        visit(u, e, depth[e.target]);
        queue.push_back(e.target);
      }
    }
    return static_cast<int64_t>(queue.size());
  }

  /// Live edges, summed over worlds.
  int64_t LiveEdges() const {
    int64_t total = 0;
    for (const World& world : worlds_) {
      for (const std::vector<LiveEdge>& row : world) total += row.size();
    }
    return total;
  }

  /// Nodes reached from `seeds`, summed over worlds.
  int64_t TotalReached(std::span<const NodeId> seeds) const {
    int64_t total = 0;
    for (uint32_t s = 0; s < num_snapshots(); ++s) {
      total += Bfs(s, seeds, [](NodeId, const LiveEdge&, uint32_t) {});
    }
    return total;
  }

  double Estimate(std::span<const NodeId> seeds) const {
    if (seeds.empty()) return 0.0;
    const int64_t r = num_snapshots();
    return static_cast<double>(TotalReached(seeds) -
                               r * static_cast<int64_t>(seeds.size())) /
           r;
  }

  double EstimateWeighted(std::span<const NodeId> seeds,
                          std::span<const double> weights) const {
    if (seeds.empty()) return 0.0;
    double total = 0.0;
    for (uint32_t s = 0; s < num_snapshots(); ++s) {
      std::vector<char> seen(graph_.num_nodes(), 0);
      for (const NodeId seed : seeds) {
        if (!seen[seed]) total += weights[seed];
        seen[seed] = 1;
      }
      Bfs(s, seeds, [&](NodeId, const LiveEdge& e, uint32_t) {
        total += weights[e.target];
      });
    }
    double seed_weight = 0.0;
    for (const NodeId seed : seeds) seed_weight += weights[seed];
    return (total - num_snapshots() * seed_weight) / num_snapshots();
  }

  /// Session::MarginalGain(u) after committing `committed`.
  double MarginalGain(std::vector<NodeId> committed, NodeId u) const {
    const int64_t before = TotalReached(committed);
    committed.push_back(u);
    const int64_t r = num_snapshots();
    return static_cast<double>(TotalReached(committed) - before - r) / r;
  }

  /// IC-N positive spread: per-distance activation counts over all worlds,
  /// folded as count * q^(d+1).
  double EstimateIcnPositive(std::span<const NodeId> seeds, double q) const {
    if (seeds.empty()) return 0.0;
    std::vector<int64_t> per_depth;
    for (uint32_t s = 0; s < num_snapshots(); ++s) {
      Bfs(s, seeds, [&](NodeId, const LiveEdge&, uint32_t d) {
        if (per_depth.size() < d) per_depth.resize(d, 0);
        ++per_depth[d - 1];
      });
    }
    double total = 0.0;
    double factor = q * q;
    for (const int64_t count : per_depth) {
      total += static_cast<double>(count) * factor;
      factor *= q;
    }
    return total / num_snapshots();
  }

  /// Expected OI opinion replay (IC base) in the oracle's visiting order.
  OpinionSpreadEstimate EstimateOpinion(const OpinionParams& opinions,
                                        std::span<const NodeId> seeds,
                                        double lambda) const {
    OpinionSpreadEstimate estimate;
    if (seeds.empty()) return estimate;
    double opinion_sum = 0.0, positive_sum = 0.0, negative_sum = 0.0;
    int64_t plain = 0;
    std::vector<double> value(graph_.num_nodes(), 0.0);
    for (uint32_t s = 0; s < num_snapshots(); ++s) {
      for (const NodeId seed : seeds) value[seed] = opinions.o(seed);
      Bfs(s, seeds, [&](NodeId u, const LiveEdge& e, uint32_t) {
        const double phi = opinions.phi(graph_.OutEdgeBegin(u) + e.offset);
        const double v = (opinions.o(e.target) + (2.0 * phi - 1.0) * value[u]) /
                         2.0;
        value[e.target] = v;
        opinion_sum += v;
        if (v > 0) {
          positive_sum += v;
        } else {
          negative_sum += -v;
        }
        ++plain;
      });
    }
    estimate.opinion_spread = opinion_sum / num_snapshots();
    estimate.effective_opinion_spread =
        (positive_sum - lambda * negative_sum) / num_snapshots();
    estimate.plain_spread = static_cast<double>(plain) / num_snapshots();
    return estimate;
  }

 private:
  static constexpr uint32_t kUnreached = ~uint32_t{0};
  const Graph& graph_;
  std::vector<World> worlds_;
};

}  // namespace holim::sketch_reference

#endif  // HOLIM_TESTS_SKETCH_REFERENCE_H_
