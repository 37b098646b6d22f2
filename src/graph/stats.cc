#include "graph/stats.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <utility>

#include "util/rng.h"

namespace holim {

std::vector<uint32_t> BfsDistances(const Graph& graph, NodeId source) {
  std::vector<uint32_t> dist(graph.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : graph.OutNeighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::size_t ForwardReachableCount(const Graph& graph,
                                  const std::vector<NodeId>& seeds) {
  std::vector<char> seen(graph.num_nodes(), 0);
  std::deque<NodeId> queue;
  std::size_t count = 0;
  for (NodeId s : seeds) {
    if (!seen[s]) {
      seen[s] = 1;
      ++count;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : graph.OutNeighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        queue.push_back(v);
      }
    }
  }
  return count;
}

GraphStats ComputeGraphStats(const Graph& graph, uint32_t diameter_samples,
                             uint64_t seed) {
  GraphStats stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_edges = graph.num_edges();
  if (stats.num_nodes == 0) return stats;
  stats.avg_out_degree =
      static_cast<double>(stats.num_edges) / stats.num_nodes;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    stats.max_out_degree = std::max(stats.max_out_degree, graph.OutDegree(u));
    stats.max_in_degree = std::max(stats.max_in_degree, graph.InDegree(u));
  }

  if (diameter_samples == 0) return stats;
  // Hop-count histogram over sampled BFS runs; the 90th-percentile effective
  // diameter is the interpolated hop count h such that 90% of reachable
  // pairs are within distance h. Up to 64 sampled sources run as one
  // level-synchronous BFS, one lane bit per source; lanes are independent,
  // so a duplicate source is counted twice, as separate runs would.
  const NodeId n = graph.num_nodes();
  const uint32_t samples = std::min<uint32_t>(diameter_samples, n);
  Rng rng(seed);
  std::vector<NodeId> sources(samples);
  for (NodeId& src : sources) src = static_cast<NodeId>(rng.NextBounded(n));

  std::vector<uint64_t> hop_counts;  // hop_counts[d] = #pairs at distance d
  uint64_t reachable_pairs = 0;
  std::vector<uint64_t> seen(n), frontier_lanes(n), next_lanes(n);
  // One bit per node with lanes at the current (next) distance. Expanding
  // the frontier in node order reads the CSR front to back.
  std::vector<uint64_t> frontier((n + 63) / 64), next((n + 63) / 64);
  for (uint32_t base = 0; base < samples; base += 64) {
    std::fill(seen.begin(), seen.end(), 0);
    for (uint32_t lane = 0; lane < 64 && base + lane < samples; ++lane) {
      const NodeId src = sources[base + lane];
      frontier_lanes[src] |= uint64_t{1} << lane;
      seen[src] |= uint64_t{1} << lane;
      frontier[src / 64] |= uint64_t{1} << (src % 64);
    }
    for (uint32_t d = 1;; ++d) {
      uint64_t fresh_pairs = 0;
      for (std::size_t w = 0; w < frontier.size(); ++w) {
        for (uint64_t bits = std::exchange(frontier[w], 0); bits != 0;
             bits &= bits - 1) {
          const NodeId u = static_cast<NodeId>(64 * w + std::countr_zero(bits));
          const uint64_t lanes = std::exchange(frontier_lanes[u], 0);
          for (NodeId v : graph.OutNeighbors(u)) {
            const uint64_t fresh = lanes & ~seen[v];
            if (fresh == 0) continue;
            seen[v] |= fresh;
            next_lanes[v] |= fresh;
            next[v / 64] |= uint64_t{1} << (v % 64);
            fresh_pairs += std::popcount(fresh);
          }
        }
      }
      if (fresh_pairs == 0) break;
      if (d >= hop_counts.size()) hop_counts.resize(d + 1, 0);
      hop_counts[d] += fresh_pairs;
      reachable_pairs += fresh_pairs;
      stats.observed_diameter = std::max(stats.observed_diameter, d);
      // The expansion zeroed every frontier word and lane mask, so the
      // swaps hand back all-zero next arrays.
      std::swap(frontier, next);
      std::swap(frontier_lanes, next_lanes);
    }
  }
  if (reachable_pairs == 0) return stats;
  const double target = 0.9 * static_cast<double>(reachable_pairs);
  uint64_t cumulative = 0;
  for (uint32_t d = 1; d < hop_counts.size(); ++d) {
    const uint64_t next = cumulative + hop_counts[d];
    if (static_cast<double>(next) >= target) {
      // Linear interpolation within hop d (SNAP's effective diameter).
      const double frac =
          hop_counts[d] == 0
              ? 0.0
              : (target - static_cast<double>(cumulative)) / hop_counts[d];
      stats.effective_diameter_90 = (d - 1) + frac;
      break;
    }
    cumulative = next;
  }
  return stats;
}

}  // namespace holim
