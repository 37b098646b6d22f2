#ifndef HOLIM_GRAPH_DELTA_H_
#define HOLIM_GRAPH_DELTA_H_

// Streaming graph deltas: batched edge insert / delete / weight-update on
// the immutable CSR Graph.
//
// The CSR Graph is deliberately frozen — every arena, index, and sampled
// world in the repo keys off its stable EdgeIds. Mutation therefore happens
// *between* epochs: a GraphDelta batch is resolved against the current
// graph (last-wins per edge, self-loop rejection, insert/reweight/remove
// classification) and materialized into a brand-new Graph whose CSR is
// bitwise identical to what GraphBuilder would produce on the edited edge
// list. StreamingGraph owns the epoch chain and keeps the previous epoch's
// graph alive so the artifact patcher (SketchOracle::ApplyDelta) can diff
// old vs new rows while splicing.

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "model/influence_params.h"
#include "util/rng.h"
#include "util/status.h"

namespace holim {

/// One edge mutation. kUpsert inserts the edge if absent and re-weights it
/// if present (`probability` is the new per-edge p either way); kRemove
/// deletes the edge if present and is a no-op otherwise.
struct GraphDeltaOp {
  enum class Kind : uint8_t { kUpsert, kRemove };
  Kind kind = Kind::kUpsert;
  NodeId src = 0;
  NodeId dst = 0;
  double probability = 0.0;  // meaningful for kUpsert only
};

/// A batch of edge mutations, applied atomically at an epoch boundary.
/// Ops may repeat an edge; the *last* op per (src, dst) wins.
struct GraphDelta {
  std::vector<GraphDeltaOp> ops;

  void Upsert(NodeId src, NodeId dst, double probability) {
    ops.push_back({GraphDeltaOp::Kind::kUpsert, src, dst, probability});
  }
  void Remove(NodeId src, NodeId dst) {
    ops.push_back({GraphDeltaOp::Kind::kRemove, src, dst, 0.0});
  }
  bool empty() const { return ops.empty(); }
};

/// A GraphDelta normalized against a concrete base graph: one op per edge
/// (last-wins), sorted by (src, dst), removes filtered to edges that
/// actually exist, upserts classified as insert vs reweight. This is the
/// canonical form every artifact patcher consumes.
struct ResolvedDelta {
  std::vector<GraphDeltaOp> upserts;  // sorted by (src, dst), unique
  std::vector<GraphDeltaOp> removes;  // sorted by (src, dst), unique, present
  std::size_t num_inserted = 0;       // upserts hitting no existing edge
  std::size_t num_reweighted = 0;     // upserts hitting an existing edge
  NodeId new_num_nodes = 0;           // >= base n; grows to max endpoint + 1

  bool Empty() const { return upserts.empty() && removes.empty(); }
};

/// Normalizes `delta` against `graph`. Fails with InvalidArgument on
/// self-loop upserts and on non-finite or out-of-[0,1] probabilities.
/// Removes of absent edges (including edges of out-of-range endpoints) are
/// dropped as no-ops. A reweight to the edge's existing probability still
/// counts as an upsert (the artifact layer treats it as dirty).
Result<ResolvedDelta> ResolveDelta(const Graph& graph, const GraphDelta& delta);

/// Materializes the edited graph. The result is bitwise identical (CSR
/// contents) to GraphBuilder::Build() over the edited edge list. Fails with
/// InvalidArgument if the base graph is not simple (rows must be strictly
/// ascending — GraphBuilder's dedup guarantees this).
Result<Graph> ApplyDeltaToGraph(const Graph& graph,
                                const ResolvedDelta& resolved);

/// Re-maps per-edge params onto the edited graph's EdgeIds: surviving edges
/// keep their old probability, upserted edges take the op's probability.
/// The model tag carries over verbatim — after a delta the params are an
/// explicit per-edge assignment; WC/LT closed forms are not re-derived.
Result<InfluenceParams> ApplyDeltaToParams(const Graph& old_graph,
                                           const InfluenceParams& old_params,
                                           const Graph& new_graph,
                                           const ResolvedDelta& resolved);

/// \brief Epoch chain over a base Graph: apply deltas, keep the previous
/// epoch alive for artifact patching.
///
/// Epoch 0 aliases the caller's base graph (not owned; must outlive this
/// object). Each effective Apply() materializes a new owned Graph and bumps
/// the epoch; `previous()` is the graph the artifacts were built against
/// and stays valid until the *next* effective Apply. Deltas that resolve to
/// nothing are no-ops and do not bump the epoch.
class StreamingGraph {
 public:
  explicit StreamingGraph(const Graph& base);

  /// Resolves and applies one batch. Returns the resolved form so callers
  /// can patch artifacts from the same normalized view.
  Result<ResolvedDelta> Apply(const GraphDelta& delta);

  /// Applies an already-resolved batch (resolved against graph()).
  Status ApplyResolved(const ResolvedDelta& resolved);

  const Graph& graph() const { return *current_; }
  const Graph& previous() const { return *previous_; }
  uint64_t epoch() const { return epoch_; }

 private:
  friend Result<Graph> ApplyDeltaToGraph(const Graph& graph,
                                         const ResolvedDelta& resolved);

  /// The O(n + m + |delta|) three-way row merge producing the edited CSR.
  static Result<Graph> Materialize(const Graph& old_graph,
                                   const ResolvedDelta& resolved);

  const Graph* current_;
  const Graph* previous_;
  std::unique_ptr<Graph> owned_current_;
  std::unique_ptr<Graph> owned_previous_;
  uint64_t epoch_ = 0;
};

/// Seeded random churn batch for the CLI `--churn` replay, the streaming
/// bench, and the fuzz test: a mix of inserts (fresh probability in
/// [0.01, 0.2)), removes of existing edges, and reweights of existing
/// edges. Never emits self-loops; on graphs without edges every op is an
/// insert.
GraphDelta MakeRandomDelta(const Graph& graph, std::size_t num_ops, Rng& rng);

}  // namespace holim

#endif  // HOLIM_GRAPH_DELTA_H_
