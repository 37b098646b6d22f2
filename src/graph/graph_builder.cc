#include "graph/graph_builder.h"

#include <algorithm>

namespace holim {

Result<Graph> GraphBuilder::Build() && {
  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    if (srcs_[i] >= n_ || dsts_[i] >= n_) {
      return Status::InvalidArgument("edge endpoint out of range at index " +
                                     std::to_string(i));
    }
  }

  // EdgeIds are positions in (src, dst) order. Counting-sort the arcs by
  // source, then sort each adjacency run by target: O(m + n) plus the
  // per-run sorts, instead of one O(m log m) sort over all arcs.
  Graph g;
  g.n_ = n_;
  g.out_offsets_.assign(n_ + 1, 0);
  for (NodeId s : srcs_) ++g.out_offsets_[s + 1];
  for (NodeId u = 0; u < n_; ++u) g.out_offsets_[u + 1] += g.out_offsets_[u];
  // Sized to the raw arc count and never reallocated: MemoryFootprintBytes()
  // counts this capacity, so dedup below must not shrink it.
  g.out_targets_.resize(srcs_.size());
  {
    std::vector<EdgeId> cursor(g.out_offsets_.begin(),
                               g.out_offsets_.end() - 1);
    for (std::size_t i = 0; i < srcs_.size(); ++i) {
      g.out_targets_[cursor[srcs_[i]]++] = dsts_[i];
    }
  }
  srcs_.clear();
  srcs_.shrink_to_fit();
  dsts_.clear();
  dsts_.shrink_to_fit();

  // Sort each run; with dedup, drop self-loops and repeated targets while
  // compacting in place (the write cursor never passes the read cursor).
  EdgeId write = 0;
  EdgeId run_begin = 0;
  for (NodeId u = 0; u < n_; ++u) {
    const EdgeId run_end = g.out_offsets_[u + 1];
    const auto first = g.out_targets_.begin() + run_begin;
    const auto last = g.out_targets_.begin() + run_end;
    std::sort(first, last);
    if (dedup_) {
      NodeId prev = kInvalidNode;
      for (auto it = first; it != last; ++it) {
        if (*it == u || *it == prev) continue;
        prev = *it;
        g.out_targets_[write++] = *it;
      }
      g.out_offsets_[u + 1] = write;
    }
    run_begin = run_end;
  }
  if (dedup_) g.out_targets_.resize(write);

  // Build in-CSR carrying the out-CSR EdgeIds.
  const EdgeId m = g.out_targets_.size();
  g.in_offsets_.assign(n_ + 1, 0);
  for (EdgeId e = 0; e < m; ++e) ++g.in_offsets_[g.out_targets_[e] + 1];
  for (NodeId v = 0; v < n_; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];

  g.in_sources_.resize(m);
  g.in_edge_ids_.resize(m);
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (NodeId u = 0; u < n_; ++u) {
    for (EdgeId e = g.out_offsets_[u]; e < g.out_offsets_[u + 1]; ++e) {
      const NodeId v = g.out_targets_[e];
      const EdgeId slot = cursor[v]++;
      g.in_sources_[slot] = u;
      g.in_edge_ids_[slot] = e;
    }
  }
  return g;
}

}  // namespace holim
