// Test-only from-scratch reference for RrCollection's coverage selection.
//
// Every call rebuilds a transient inverted index (node -> ids of the sets
// containing it) over the whole collection, then runs CELF lazy greedy
// with the tie rule of CoverageSnapshot::SelectMaxCoverage: the larger
// gain first, then the smaller node id. It reads the collection through
// num_sets() and set(i) alone, so agreement pins the persistent
// incremental index (segments, compaction, snapshot bounds) against an
// index that has no history. bench_micro_rr_engine times it as the
// rebuild leg of its incremental_select section.

#ifndef HOLIM_TESTS_COVERAGE_REFERENCE_H_
#define HOLIM_TESTS_COVERAGE_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "algo/rr_sets.h"

namespace holim::coverage_reference {

/// Greedy max-coverage of `k` seeds over every set of `rr`, whose members
/// are node ids below `num_nodes`. O(total entries) per call. Once no node
/// adds coverage, the smallest unselected ids pad the result to k.
inline RrCollection::CoverageResult SelectMaxCoverageRebuild(
    const RrCollection& rr, NodeId num_nodes, uint32_t k) {
  RrCollection::CoverageResult result;
  const std::size_t num = rr.num_sets();
  if (num == 0) return result;
  std::vector<uint32_t> degree(num_nodes, 0);
  for (std::size_t s = 0; s < num; ++s) {
    for (const NodeId u : rr.set(s)) ++degree[u];
  }
  std::vector<std::size_t> index_offsets(num_nodes + 1, 0);
  for (NodeId u = 0; u < num_nodes; ++u) {
    index_offsets[u + 1] = index_offsets[u] + degree[u];
  }
  std::vector<uint32_t> membership(index_offsets[num_nodes]);
  std::vector<std::size_t> cursor(index_offsets.begin(),
                                  index_offsets.end() - 1);
  for (std::size_t s = 0; s < num; ++s) {
    for (const NodeId u : rr.set(s)) {
      membership[cursor[u]++] = static_cast<uint32_t>(s);
    }
  }

  // Max-heap of stale gain bounds; ties prefer the smaller node id.
  struct Candidate {
    uint32_t gain;
    NodeId node;
    bool operator<(const Candidate& other) const {
      if (gain != other.gain) return gain < other.gain;
      return node > other.node;
    }
  };
  std::priority_queue<Candidate> heap;
  for (NodeId u = 0; u < num_nodes; ++u) {
    if (degree[u] > 0) heap.push({degree[u], u});
  }

  std::vector<char> set_covered(num, 0);
  std::vector<char> selected(num_nodes, 0);
  std::size_t covered = 0;
  while (result.seeds.size() < k && !heap.empty()) {
    const Candidate top = heap.top();
    heap.pop();
    if (selected[top.node]) continue;
    uint32_t fresh = 0;
    for (std::size_t j = index_offsets[top.node];
         j < index_offsets[top.node + 1]; ++j) {
      if (!set_covered[membership[j]]) ++fresh;
    }
    if (fresh == 0) continue;
    if (!heap.empty() && Candidate{fresh, top.node} < heap.top()) {
      heap.push({fresh, top.node});
      continue;
    }
    result.seeds.push_back(top.node);
    selected[top.node] = 1;
    for (std::size_t j = index_offsets[top.node];
         j < index_offsets[top.node + 1]; ++j) {
      if (!set_covered[membership[j]]) {
        set_covered[membership[j]] = 1;
        ++covered;
      }
    }
  }
  for (NodeId u = 0; u < num_nodes && result.seeds.size() < k; ++u) {
    if (!selected[u]) {
      result.seeds.push_back(u);
      selected[u] = 1;
    }
  }
  result.covered_fraction = static_cast<double>(covered) / num;
  return result;
}

}  // namespace holim::coverage_reference

#endif  // HOLIM_TESTS_COVERAGE_REFERENCE_H_
