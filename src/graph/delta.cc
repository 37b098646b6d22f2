#include "graph/delta.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <utility>

namespace holim {

namespace {

constexpr EdgeId kNoOldEdge = static_cast<EdgeId>(-1);

/// Every patcher relies on out-rows being strictly ascending by target
/// (binary-searchable, mergeable). GraphBuilder's dedup guarantees it; a
/// graph built with dedup disabled may not be.
Status ValidateSimple(const Graph& graph) {
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto row = graph.OutNeighbors(u);
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i] <= row[i - 1]) {
        return Status::InvalidArgument(
            "base graph must be simple: out-row of node " + std::to_string(u) +
            " is not strictly ascending");
      }
    }
  }
  return Status::OK();
}

/// Three-way merge of (old out-row) ∪ (upserts) \ (removes), per row, u
/// ascending and dst ascending within u — exactly the edge order
/// GraphBuilder produces on the edited edge list. Calls
/// `emit(u, dst, upsert_or_null, old_edge_or_kNoOldEdge)` per surviving
/// edge. Requires ValidateSimple(old_graph) and `resolved` normalized
/// against old_graph.
template <typename Emit>
void MergeRows(const Graph& old_graph, const ResolvedDelta& resolved,
               Emit&& emit) {
  const NodeId n_old = old_graph.num_nodes();
  const auto& ups = resolved.upserts;
  const auto& rms = resolved.removes;
  std::size_t ui = 0;
  std::size_t ri = 0;
  for (NodeId u = 0; u < resolved.new_num_nodes; ++u) {
    const auto old_row =
        u < n_old ? old_graph.OutNeighbors(u) : std::span<const NodeId>{};
    const EdgeId old_base = u < n_old ? old_graph.OutEdgeBegin(u) : 0;
    std::size_t oi = 0;
    while (oi < old_row.size() || (ui < ups.size() && ups[ui].src == u)) {
      const bool have_old = oi < old_row.size();
      const bool have_up = ui < ups.size() && ups[ui].src == u;
      if (have_up && (!have_old || ups[ui].dst < old_row[oi])) {
        emit(u, ups[ui].dst, &ups[ui], kNoOldEdge);  // fresh insert
        ++ui;
      } else if (have_up && ups[ui].dst == old_row[oi]) {
        emit(u, old_row[oi], &ups[ui], old_base + oi);  // reweight
        ++ui;
        ++oi;
      } else if (ri < rms.size() && rms[ri].src == u &&
                 rms[ri].dst == old_row[oi]) {
        ++ri;  // removed
        ++oi;
      } else {
        emit(u, old_row[oi], nullptr, old_base + oi);  // untouched survivor
        ++oi;
      }
    }
  }
}

bool EdgeExists(const Graph& graph, NodeId src, NodeId dst) {
  if (src >= graph.num_nodes()) return false;
  const auto row = graph.OutNeighbors(src);
  return std::binary_search(row.begin(), row.end(), dst);
}

}  // namespace

Result<ResolvedDelta> ResolveDelta(const Graph& graph,
                                   const GraphDelta& delta) {
  for (std::size_t i = 0; i < delta.ops.size(); ++i) {
    const GraphDeltaOp& op = delta.ops[i];
    if (op.kind != GraphDeltaOp::Kind::kUpsert) continue;
    if (op.src == op.dst) {
      return Status::InvalidArgument("self-loop upsert at op " +
                                     std::to_string(i) + " (node " +
                                     std::to_string(op.src) + ")");
    }
    // The negated form catches NaN as well as out-of-range values.
    if (!(op.probability >= 0.0 && op.probability <= 1.0)) {
      return Status::InvalidArgument("upsert probability out of [0, 1] at op " +
                                     std::to_string(i));
    }
  }

  // Last-wins per (src, dst): a stable sort by key keeps equal-key runs in
  // original op order, so the last element of each run is the latest op.
  std::vector<std::size_t> order(delta.ops.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const GraphDeltaOp& oa = delta.ops[a];
                     const GraphDeltaOp& ob = delta.ops[b];
                     if (oa.src != ob.src) return oa.src < ob.src;
                     return oa.dst < ob.dst;
                   });

  ResolvedDelta out;
  out.new_num_nodes = graph.num_nodes();
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i + 1;
    while (j < order.size() &&
           delta.ops[order[j]].src == delta.ops[order[i]].src &&
           delta.ops[order[j]].dst == delta.ops[order[i]].dst) {
      ++j;
    }
    const GraphDeltaOp& op = delta.ops[order[j - 1]];
    const bool exists = EdgeExists(graph, op.src, op.dst);
    if (op.kind == GraphDeltaOp::Kind::kRemove) {
      if (exists) out.removes.push_back(op);  // absent-edge removes are no-ops
    } else {
      exists ? ++out.num_reweighted : ++out.num_inserted;
      out.upserts.push_back(op);
      out.new_num_nodes =
          std::max(out.new_num_nodes, std::max(op.src, op.dst) + 1);
    }
    i = j;
  }
  return out;
}

Result<Graph> StreamingGraph::Materialize(const Graph& old_graph,
                                          const ResolvedDelta& resolved) {
  HOLIM_RETURN_NOT_OK(ValidateSimple(old_graph));
  const NodeId n = resolved.new_num_nodes;

  Graph g;
  g.n_ = n;
  g.out_offsets_.assign(n + 1, 0);
  MergeRows(old_graph, resolved,
            [&](NodeId u, NodeId, const GraphDeltaOp*, EdgeId) {
              ++g.out_offsets_[u + 1];
            });
  for (NodeId u = 0; u < n; ++u) g.out_offsets_[u + 1] += g.out_offsets_[u];

  const EdgeId m = g.out_offsets_[n];
  g.out_targets_.resize(m);
  EdgeId out_cursor = 0;
  MergeRows(old_graph, resolved,
            [&](NodeId, NodeId dst, const GraphDeltaOp*, EdgeId) {
              g.out_targets_[out_cursor++] = dst;
            });

  // In-CSR exactly as GraphBuilder::Build: count by target, prefix-sum,
  // cursor-scatter iterating u ascending so each in-row is source-ascending
  // and carries out-CSR EdgeIds.
  g.in_offsets_.assign(n + 1, 0);
  for (EdgeId e = 0; e < m; ++e) ++g.in_offsets_[g.out_targets_[e] + 1];
  for (NodeId v = 0; v < n; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];
  g.in_sources_.resize(m);
  g.in_edge_ids_.resize(m);
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (EdgeId e = g.out_offsets_[u]; e < g.out_offsets_[u + 1]; ++e) {
      const NodeId v = g.out_targets_[e];
      const EdgeId slot = cursor[v]++;
      g.in_sources_[slot] = u;
      g.in_edge_ids_[slot] = e;
    }
  }
  return g;
}

Result<Graph> ApplyDeltaToGraph(const Graph& graph,
                                const ResolvedDelta& resolved) {
  return StreamingGraph::Materialize(graph, resolved);
}

Result<InfluenceParams> ApplyDeltaToParams(const Graph& old_graph,
                                           const InfluenceParams& old_params,
                                           const Graph& new_graph,
                                           const ResolvedDelta& resolved) {
  if (old_params.probability.size() != old_graph.num_edges()) {
    return Status::InvalidArgument(
        "params/graph size mismatch: " +
        std::to_string(old_params.probability.size()) + " probabilities vs " +
        std::to_string(old_graph.num_edges()) + " edges");
  }
  InfluenceParams out;
  out.model = old_params.model;
  out.probability.reserve(new_graph.num_edges());
  MergeRows(old_graph, resolved,
            [&](NodeId, NodeId, const GraphDeltaOp* upsert, EdgeId old_edge) {
              out.probability.push_back(upsert ? upsert->probability
                                               : old_params.p(old_edge));
            });
  if (out.probability.size() != new_graph.num_edges()) {
    return Status::Internal(
        "delta param remap produced " +
        std::to_string(out.probability.size()) + " probabilities for " +
        std::to_string(new_graph.num_edges()) + " edges");
  }
  return out;
}

StreamingGraph::StreamingGraph(const Graph& base)
    : current_(&base), previous_(&base) {}

Result<ResolvedDelta> StreamingGraph::Apply(const GraphDelta& delta) {
  Result<ResolvedDelta> resolved = ResolveDelta(*current_, delta);
  if (!resolved.ok()) return resolved.status();
  HOLIM_RETURN_NOT_OK(ApplyResolved(*resolved));
  return std::move(resolved.value());
}

Status StreamingGraph::ApplyResolved(const ResolvedDelta& resolved) {
  if (resolved.Empty()) return Status::OK();
  Result<Graph> next = Materialize(*current_, resolved);
  if (!next.ok()) return next.status();
  owned_previous_ = std::move(owned_current_);
  previous_ = current_;
  owned_current_ = std::make_unique<Graph>(std::move(next.value()));
  current_ = owned_current_.get();
  ++epoch_;
  return Status::OK();
}

GraphDelta MakeRandomDelta(const Graph& graph, std::size_t num_ops, Rng& rng) {
  GraphDelta delta;
  const NodeId n = graph.num_nodes();
  if (n < 2) return delta;
  const EdgeId m = graph.num_edges();
  for (std::size_t i = 0; i < num_ops; ++i) {
    const uint64_t roll = rng.NextBounded(3);
    if (roll == 0 || m == 0) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) v = (v + 1) % n;
      delta.Upsert(u, v, rng.Uniform(0.01, 0.2));
    } else {
      const EdgeId e = rng.NextBounded(m);
      const NodeId u = graph.EdgeSource(e);
      const NodeId v = graph.EdgeTarget(e);
      if (roll == 1) {
        delta.Remove(u, v);
      } else {
        delta.Upsert(u, v, rng.Uniform(0.01, 0.2));
      }
    }
  }
  return delta;
}

}  // namespace holim
