#include "diffusion/sketch_oracle.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/logging.h"
#include "util/rng.h"

namespace holim {

SketchOracle::SketchOracle(const Graph& graph, const InfluenceParams& params,
                           const SketchOptions& options)
    : graph_(&graph),
      params_(params),
      num_snapshots_(options.num_snapshots),
      num_lane_groups_((options.num_snapshots + kLanesPerGroup - 1) /
                       kLanesPerGroup),
      seed_(options.seed),
      record_edge_offsets_(options.record_edge_offsets),
      visited_(graph.num_nodes()) {
  HOLIM_CHECK(params.probability.size() == graph.num_edges())
      << "params/graph edge count mismatch";
  HOLIM_CHECK(num_snapshots_ > 0) << "need at least one snapshot";
  build_status_ =
      SampleArena(/*clean=*/nullptr, options.pool, options.deadline, arena_);
}

void SketchOracle::DrawCascadeRow(uint32_t g, NodeId u,
                                  uint64_t* row_mask) const {
  const uint32_t degree = graph_->OutDegree(u);
  if (degree == 0) return;
  const double* p = params_.probability.data() + graph_->OutEdgeBegin(u);
  const uint32_t s_lo = g * kLanesPerGroup;
  const uint32_t s_hi = std::min(num_snapshots_, s_lo + kLanesPerGroup);
  for (uint32_t s = s_lo; s < s_hi; ++s) {
    uint64_t state = NodeStreamState(s, u);
    const uint32_t lane = s - s_lo;
    for (uint32_t i = 0; i < degree; ++i) {
      row_mask[i] |=
          static_cast<uint64_t>(UnitDouble(Rng::SplitMix64(state)) < p[i])
          << lane;
    }
  }
}

void SketchOracle::DrawThresholdPicks(uint32_t g, NodeId v,
                                      uint64_t* edge_mask) const {
  const auto in_edges = graph_->InEdgeIds(v);
  if (in_edges.empty()) return;
  const uint32_t s_lo = g * kLanesPerGroup;
  const uint32_t s_hi = std::min(num_snapshots_, s_lo + kLanesPerGroup);
  for (uint32_t s = s_lo; s < s_hi; ++s) {
    uint64_t state = NodeStreamState(s, v);
    double r = UnitDouble(Rng::SplitMix64(state));
    for (const EdgeId e : in_edges) {
      const double w = params_.p(e);
      if (r < w) {
        edge_mask[e] |= uint64_t{1} << (s - s_lo);
        break;
      }
      r -= w;  // residual mass past the last in-edge: no live edge
    }
  }
}

Status SketchOracle::SampleArena(const CleanRows* clean, ThreadPool* pool,
                                 Deadline* deadline, LaneArena& out) const {
  const Graph& graph = *graph_;
  const NodeId n = graph.num_nodes();
  const bool lt = params_.model == DiffusionModel::kLinearThreshold;
  const NodeId old_n = clean ? clean->graph.num_nodes() : 0;
  out.node_offsets.assign(static_cast<std::size_t>(num_lane_groups_) * (n + 1),
                          0);
  out.entry_base.assign(num_lane_groups_ + 1, 0);
  // One lane word per edge, reused across groups: the emit pass re-zeroes
  // every word it reads.
  std::vector<uint64_t> edge_mask(graph.num_edges(), 0);
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    if (deadline) {
      const uint32_t lanes = std::popcount(LaneMaskAll(g));
      HOLIM_RETURN_NOT_OK(deadline->CheckN(
          (lanes + kSnapshotsPerTick - 1) / kSnapshotsPerTick));
    }
    const std::size_t old_base = clean ? clean->arena.entry_base[g] : 0;
    const uint32_t* old_offsets =
        clean ? clean->arena.node_offsets.data() +
                    static_cast<std::size_t>(g) * (old_n + 1)
              : nullptr;
    if (lt && clean) {
      // A clean target's picks replay unchanged, so its lanes move to the
      // edge's id in the new graph: (u -> v) still exists because v's
      // in-row did not change, and rows are strictly ascending, so a
      // binary search over u's new out-row finds it.
      for (NodeId u = 0; u < old_n; ++u) {
        const auto row = graph.OutNeighbors(u);
        for (uint32_t j = old_offsets[u]; j < old_offsets[u + 1]; ++j) {
          const NodeId v = clean->arena.targets[old_base + j];
          if (clean->dirty[v]) continue;
          const auto it = std::lower_bound(row.begin(), row.end(), v);
          edge_mask[graph.OutEdgeBegin(u) + (it - row.begin())] |=
              clean->arena.masks[old_base + j];
        }
      }
    }
    auto draw = [&](std::size_t x) {
      const NodeId node = static_cast<NodeId>(x);
      if (clean && !clean->dirty[node]) return;
      if (lt) {
        DrawThresholdPicks(g, node, edge_mask.data());
      } else {
        DrawCascadeRow(g, node, edge_mask.data() + graph.OutEdgeBegin(node));
      }
    };
    if (pool) {
      pool->ParallelFor(n, draw);
    } else {
      for (NodeId x = 0; x < n; ++x) draw(x);
    }
    // Emit each source's live out-edges EdgeId-ascending; a clean IC/WC
    // source's row is the old one verbatim.
    uint32_t* offsets =
        out.node_offsets.data() + static_cast<std::size_t>(g) * (n + 1);
    const std::size_t group_base = out.targets.size();
    for (NodeId u = 0; u < n; ++u) {
      offsets[u] = static_cast<uint32_t>(out.targets.size() - group_base);
      if (!lt && clean && !clean->dirty[u]) {
        const std::size_t lo = old_base + old_offsets[u];
        const std::size_t hi = old_base + old_offsets[u + 1];
        const LaneArena& old = clean->arena;
        out.targets.insert(out.targets.end(), old.targets.begin() + lo,
                           old.targets.begin() + hi);
        out.masks.insert(out.masks.end(), old.masks.begin() + lo,
                         old.masks.begin() + hi);
        if (record_edge_offsets_) {
          out.edge_offsets.insert(out.edge_offsets.end(),
                                  old.edge_offsets.begin() + lo,
                                  old.edge_offsets.begin() + hi);
        }
        continue;
      }
      const EdgeId base = graph.OutEdgeBegin(u);
      const auto row = graph.OutNeighbors(u);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const uint64_t mask = edge_mask[base + i];
        if (mask == 0) continue;
        edge_mask[base + i] = 0;
        out.targets.push_back(row[i]);
        out.masks.push_back(mask);
        if (record_edge_offsets_) {
          out.edge_offsets.push_back(static_cast<uint32_t>(i));
        }
      }
    }
    offsets[n] = static_cast<uint32_t>(out.targets.size() - group_base);
    HOLIM_CHECK(out.targets.size() - group_base <=
                std::numeric_limits<uint32_t>::max())
        << "lane group overflows 32-bit CSR offsets";
    out.entry_base[g + 1] = out.targets.size();
  }
  // The arena is immutable from here on: trim growth slack so ArenaBytes()
  // is exact and deterministic.
  out.targets.shrink_to_fit();
  out.masks.shrink_to_fit();
  out.edge_offsets.shrink_to_fit();
  return Status::OK();
}

/// Distance (in edges) the lane walks prefetch target state ahead of the
/// probe. The row scan's latency is dominated by the random per-target
/// state loads; the target IDs are sequentially readable from the row, so
/// a short lookahead hides most of the miss latency.
constexpr uint32_t kLanePrefetchDistance = 8;

template <typename OnFresh>
void SketchOracle::WalkLanes(std::span<const NodeId> seeds,
                             OnFresh&& on_fresh) const {
  const NodeId n = graph_->num_nodes();
  if (lane_state_.size() != n) {
    lane_state_.assign(n, 0);
    lane_pending_.assign(n, 0);
  }
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    const uint64_t full = LaneMaskAll(g);
    queue_.clear();     // worklist (pending words are the real frontier)
    frontier_.clear();  // nodes whose state word must be re-zeroed
    for (NodeId seed : seeds) {
      const uint64_t fresh = full & ~lane_state_[seed];
      if (fresh == 0) continue;  // duplicate seed
      on_fresh(seed, std::popcount(fresh));
      if (lane_state_[seed] == 0) frontier_.push_back(seed);
      lane_state_[seed] |= fresh;
      if (lane_pending_[seed] == 0) queue_.push_back(seed);
      lane_pending_[seed] |= fresh;
    }
    // FIFO walk: lanes arriving while a level drains aggregate in the
    // pending word and cost ONE rescan of v's union row, where LIFO would
    // chase single lanes down long paths and rescan rows per wave.
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const NodeId v = queue_[head];
      const uint64_t active = lane_pending_[v];
      if (active == 0) continue;  // drained by an earlier duplicate entry
      lane_pending_[v] = 0;  // self-clearing: processing zeroes the word
      if (head + 1 < queue_.size()) PrefetchLaneRow(g, queue_[head + 1]);
      if (head + 2 < queue_.size()) PrefetchLaneOffsets(g, queue_[head + 2]);
      const LaneAdjacency adj = LaneTargets(g, v);
      for (uint32_t j = 0; j < adj.size; ++j) {
        if (j + kLanePrefetchDistance < adj.size) {
          __builtin_prefetch(
              &lane_state_[adj.targets[j + kLanePrefetchDistance]]);
        }
        const NodeId t = adj.targets[j];
        const uint64_t fresh = adj.masks[j] & active & ~lane_state_[t];
        if (fresh == 0) continue;
        on_fresh(t, std::popcount(fresh));
        if (lane_state_[t] == 0) frontier_.push_back(t);
        lane_state_[t] |= fresh;
        if (lane_pending_[t] == 0) queue_.push_back(t);
        lane_pending_[t] |= fresh;
      }
    }
    for (NodeId t : frontier_) lane_state_[t] = 0;
  }
}

double SketchOracle::Estimate(std::span<const NodeId> seeds) const {
  if (seeds.empty()) return 0.0;
  int64_t total_reached = 0;
  WalkLanes(seeds, [&](NodeId, int count) { total_reached += count; });
  const int64_t spread =
      total_reached - static_cast<int64_t>(num_snapshots_) *
                          static_cast<int64_t>(seeds.size());
  return static_cast<double>(spread) / num_snapshots_;
}

double SketchOracle::EstimateWeighted(
    std::span<const NodeId> seeds,
    std::span<const double> node_weights) const {
  if (seeds.empty()) return 0.0;
  HOLIM_CHECK(node_weights.size() == graph_->num_nodes())
      << "weight/node count mismatch";
  double total_weight = 0.0;
  WalkLanes(seeds, [&](NodeId t, int count) {
    total_weight += count * node_weights[t];
  });
  // Mirror Estimate's |S| exclusion: each seed entry contributes its
  // weight R times (duplicates included, like R * seeds.size()). The
  // subtraction and single division reproduce Estimate's arithmetic
  // bit-for-bit when every weight is 1.0.
  double seed_weight = 0.0;
  for (const NodeId seed : seeds) seed_weight += node_weights[seed];
  return (total_weight - static_cast<double>(num_snapshots_) * seed_weight) /
         num_snapshots_;
}

double SketchOracle::EstimateIcnPositive(std::span<const NodeId> seeds,
                                         double quality_factor) const {
  if (seeds.empty()) return 0.0;
  HOLIM_CHECK(quality_factor >= 0.0 && quality_factor <= 1.0)
      << "quality factor out of [0,1]";
  icn_level_counts_.clear();
  AccumulateIcnLevelCounts(seeds);
  // Integer per-distance activation counts (summed over snapshots) folded
  // through one q-polynomial: nodes at live-edge distance d are positive
  // w.p. q^(d+1).
  double total = 0.0;
  double factor = quality_factor * quality_factor;  // d == 1
  for (const int64_t count : icn_level_counts_) {
    total += static_cast<double>(count) * factor;
    factor *= quality_factor;
  }
  return total / num_snapshots_;
}

void SketchOracle::AccumulateIcnLevelCounts(
    std::span<const NodeId> seeds) const {
  const NodeId n = graph_->num_nodes();
  if (lane_state_.size() != n) {
    lane_state_.assign(n, 0);
    lane_pending_.assign(n, 0);
  }
  if (lane_next_.size() != n) lane_next_.assign(n, 0);
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    const uint64_t full = LaneMaskAll(g);
    queue_.clear();     // level-ordered node list (lo/hi windows)
    frontier_.clear();  // nodes whose state word must be re-zeroed
    for (NodeId seed : seeds) {
      const uint64_t fresh = full & ~lane_state_[seed];
      if (fresh == 0) continue;  // duplicate seed
      if (lane_state_[seed] == 0) frontier_.push_back(seed);
      lane_state_[seed] |= fresh;
      if (lane_pending_[seed] == 0) queue_.push_back(seed);
      lane_pending_[seed] |= fresh;
    }
    // Level-synchronous so popcounts land on the right distance: current
    // lanes live in lane_pending_, next-level lanes accumulate in
    // lane_next_ (a node can sit in both), swapped per level.
    std::size_t lo = 0;
    std::size_t hi = queue_.size();
    std::size_t depth = 0;  // depth d counts discoveries at distance d + 1
    while (lo < hi) {
      int64_t discovered = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId v = queue_[i];
        const uint64_t active = lane_pending_[v];
        lane_pending_[v] = 0;
        if (i + 1 < hi) PrefetchLaneRow(g, queue_[i + 1]);
        if (i + 2 < hi) PrefetchLaneOffsets(g, queue_[i + 2]);
        const LaneAdjacency adj = LaneTargets(g, v);
        for (uint32_t j = 0; j < adj.size; ++j) {
          const NodeId t = adj.targets[j];
          const uint64_t fresh = adj.masks[j] & active & ~lane_state_[t];
          if (fresh == 0) continue;
          discovered += std::popcount(fresh);
          if (lane_state_[t] == 0) frontier_.push_back(t);
          lane_state_[t] |= fresh;
          if (lane_next_[t] == 0) queue_.push_back(t);
          lane_next_[t] |= fresh;
        }
      }
      if (discovered != 0) {
        if (icn_level_counts_.size() <= depth) {
          icn_level_counts_.resize(depth + 1, 0);
        }
        icn_level_counts_[depth] += discovered;
      }
      lo = hi;
      hi = queue_.size();
      ++depth;
      // All processed pending words are zero; the swap promotes the next
      // level and hands back an all-zero next array.
      std::swap(lane_pending_, lane_next_);
    }
    for (NodeId t : frontier_) lane_state_[t] = 0;
  }
}

OpinionSpreadEstimate SketchOracle::EstimateOpinion(
    const OpinionParams& opinions, OiBase base, std::span<const NodeId> seeds,
    double lambda) const {
  OpinionSpreadEstimate estimate;
  if (seeds.empty()) return estimate;
  HOLIM_CHECK(base == OiBase::kIndependentCascade)
      << "sketch opinion replay supports the IC base only";
  HOLIM_CHECK(record_edge_offsets_)
      << "EstimateOpinion needs SketchOptions::record_edge_offsets";
  HOLIM_CHECK(opinions.opinion.size() == graph_->num_nodes())
      << "opinion/node count mismatch";
  HOLIM_CHECK(opinions.interaction.size() == graph_->num_edges())
      << "interaction/edge count mismatch";
  const NodeId n = graph_->num_nodes();
  if (node_value_.size() != n) node_value_.assign(n, 0.0);
  double opinion_sum = 0.0, positive_sum = 0.0, negative_sum = 0.0;
  int64_t plain = 0;
  for (uint32_t s = 0; s < num_snapshots_; ++s) {
    const uint32_t g = s / kLanesPerGroup;
    const uint64_t bit = uint64_t{1} << (s % kLanesPerGroup);
    visited_.Reset(n);
    queue_.clear();
    for (NodeId seed : seeds) {
      if (visited_.Contains(seed)) continue;
      visited_.Insert(seed);
      node_value_[seed] = opinions.o(seed);  // o'_s = o_s, excluded below
      queue_.push_back(seed);
    }
    // BFS in activation order: the activator's expected opinion is
    // settled before any node it activates (first live arrival wins,
    // matching the IC simulator's queue semantics).
    std::size_t head = 0;
    while (head < queue_.size()) {
      const NodeId u = queue_[head++];
      const double value_u = node_value_[u];
      const EdgeId out_begin = graph_->OutEdgeBegin(u);
      const LaneAdjacency adj = LaneTargets(g, u);
      for (uint32_t j = 0; j < adj.size; ++j) {
        if ((adj.masks[j] & bit) == 0) continue;
        const NodeId v = adj.targets[j];
        if (visited_.Contains(v)) continue;
        visited_.Insert(v);
        const EdgeId e = out_begin + adj.edge_offsets[j];
        // E[(-1)^alpha o'_u] with alpha = 0 w.p. phi(e).
        const double value =
            (opinions.o(v) + (2.0 * opinions.phi(e) - 1.0) * value_u) / 2.0;
        node_value_[v] = value;
        opinion_sum += value;
        if (value > 0) {
          positive_sum += value;
        } else {
          negative_sum += -value;
        }
        ++plain;
        queue_.push_back(v);
      }
    }
  }
  estimate.opinion_spread = opinion_sum / num_snapshots_;
  estimate.effective_opinion_spread =
      (positive_sum - lambda * negative_sum) / num_snapshots_;
  estimate.plain_spread = static_cast<double>(plain) / num_snapshots_;
  return estimate;
}

std::size_t SketchOracle::ArenaBytes() const {
  return arena_.targets.capacity() * sizeof(NodeId) +
         arena_.masks.capacity() * sizeof(uint64_t) +
         arena_.edge_offsets.capacity() * sizeof(uint32_t) +
         arena_.node_offsets.capacity() * sizeof(uint32_t) +
         arena_.entry_base.capacity() * sizeof(std::size_t);
}

std::vector<int64_t> SketchOracle::SingletonReachBounds() const {
  const NodeId n = graph_->num_nodes();
  constexpr uint32_t kUnvisited = std::numeric_limits<uint32_t>::max();
  constexpr uint32_t kOnStack = kUnvisited - 1;  // comp[] before emission
  std::vector<int64_t> bounds(n, 0);
  // One world's live out-rows as a CSR, rebuilt per lane.
  std::vector<uint32_t> row_begin(static_cast<std::size_t>(n) + 1);
  std::vector<NodeId> live;
  // Tarjan state per node: discovery order, low-link, the SCC id once
  // emitted, and the next live edge to follow; plus the SCC and call
  // stacks.
  std::vector<uint32_t> order(n), low(n), comp(n), next(n);
  std::vector<NodeId> scc_stack(n), call(n);
  // Per SCC id (< n): its bound, and the last SCC whose successor sum
  // counted it.
  std::vector<int64_t> comp_bound(n);
  std::vector<uint32_t> counted_by(n);
  for (uint32_t g = 0; g < num_lane_groups_; ++g) {
    const uint32_t* off =
        arena_.node_offsets.data() + static_cast<std::size_t>(g) * (n + 1);
    const NodeId* targets = arena_.targets.data() + arena_.entry_base[g];
    const uint64_t* masks = arena_.masks.data() + arena_.entry_base[g];
    live.resize(off[n]);
    const uint32_t lanes = std::popcount(LaneMaskAll(g));
    for (uint32_t b = 0; b < lanes; ++b) {
      // Branchless compaction: every entry is written, only live ones
      // advance the cursor.
      uint32_t live_end = 0;
      for (NodeId u = 0; u < n; ++u) {
        row_begin[u] = live_end;
        for (uint32_t j = off[u]; j < off[u + 1]; ++j) {
          live[live_end] = targets[j];
          live_end += static_cast<uint32_t>(masks[j] >> b) & 1;
        }
      }
      row_begin[n] = live_end;

      std::fill(order.begin(), order.end(), kUnvisited);
      uint32_t next_order = 0, num_comps = 0, call_size = 0, scc_size = 0;
      auto emit = [&](int64_t bound) {
        comp_bound[num_comps] = bound;
        counted_by[num_comps] = kUnvisited;  // ids restart in every world
        return num_comps++;
      };
      // A node without live out-edges is its own SCC of bound 1, emitted
      // on discovery; any other node enters both stacks.
      auto discover = [&](NodeId v) {
        order[v] = next_order++;
        if (row_begin[v] == row_begin[v + 1]) {
          comp[v] = emit(1);
          return;
        }
        low[v] = order[v];
        comp[v] = kOnStack;
        next[v] = row_begin[v];
        scc_stack[scc_size++] = v;
        call[call_size++] = v;
      };
      for (NodeId root = 0; root < n; ++root) {
        if (order[root] != kUnvisited) continue;
        discover(root);
        while (call_size != 0) {
          const NodeId v = call[call_size - 1];
          if (next[v] < row_begin[v + 1]) {
            const NodeId w = live[next[v]++];
            if (order[w] == kUnvisited) {
              discover(w);
            } else if (comp[w] == kOnStack) {
              low[v] = std::min(low[v], order[w]);
            }
            continue;
          }
          --call_size;
          if (call_size != 0) {
            const NodeId parent = call[call_size - 1];
            low[parent] = std::min(low[parent], low[v]);
          }
          if (low[v] != order[v]) continue;
          // v roots an SCC: the stack above it. Every edge leaving it ends
          // in itself or in an SCC emitted earlier (Tarjan emits sinks
          // first), so the successors' bounds are final.
          const uint32_t id = num_comps;
          uint32_t first = scc_size;
          do {
            comp[scc_stack[--first]] = id;
          } while (scc_stack[first] != v);
          int64_t bound = scc_size - first;
          for (uint32_t i = first; i < scc_size; ++i) {
            const NodeId x = scc_stack[i];
            for (uint32_t j = row_begin[x]; j < row_begin[x + 1]; ++j) {
              const uint32_t c = comp[live[j]];
              if (c == id || counted_by[c] == id) continue;
              counted_by[c] = id;
              bound = std::min<int64_t>(bound + comp_bound[c], n);
            }
          }
          scc_size = first;
          emit(bound);
        }
      }
      for (NodeId u = 0; u < n; ++u) bounds[u] += comp_bound[comp[u]];
    }
  }
  return bounds;
}

double SketchOracle::MeanLiveOutDegree() const {
  const NodeId n = graph_->num_nodes();
  if (n == 0) return 0.0;
  uint64_t live = 0;
  for (const uint64_t mask : arena_.masks) live += std::popcount(mask);
  return static_cast<double>(live) / num_snapshots_ / n;
}

std::vector<uint8_t> SketchOracle::DirtyRows(
    const Graph& new_graph, const InfluenceParams& new_params) const {
  const Graph& old_graph = *graph_;
  // LT draws per target (in-rows), IC/WC per source (out-rows). Comparing
  // p, not just topology, is what makes this model-agnostic: a WC delta
  // shifts 1/indeg(v) on every in-edge of a touched target, and each such
  // edge's source row goes dirty via the p mismatch.
  const bool lt = params_.model == DiffusionModel::kLinearThreshold;
  auto row = [lt](const Graph& graph, NodeId x) {
    return lt ? graph.InNeighbors(x) : graph.OutNeighbors(x);
  };
  auto edge = [lt](const Graph& graph, NodeId x, std::size_t i) {
    return lt ? graph.InEdgeIds(x)[i] : graph.OutEdgeBegin(x) + i;
  };
  std::vector<uint8_t> dirty(new_graph.num_nodes(), 1);  // new nodes stay 1
  for (NodeId x = 0; x < old_graph.num_nodes(); ++x) {
    const auto old_row = row(old_graph, x);
    const auto new_row = row(new_graph, x);
    if (old_row.size() != new_row.size()) continue;
    bool same = true;
    for (std::size_t i = 0; same && i < old_row.size(); ++i) {
      same = old_row[i] == new_row[i] &&
             params_.p(edge(old_graph, x, i)) ==
                 new_params.p(edge(new_graph, x, i));
    }
    dirty[x] = same ? 0 : 1;
  }
  return dirty;
}

Status SketchOracle::ApplyDelta(const Graph& new_graph,
                                const InfluenceParams& new_params) {
  if (new_params.probability.size() != new_graph.num_edges()) {
    return Status::InvalidArgument(
        "params/graph edge count mismatch: " +
        std::to_string(new_params.probability.size()) + " probabilities vs " +
        std::to_string(new_graph.num_edges()) + " edges");
  }
  if (new_params.model != params_.model) {
    return Status::InvalidArgument(
        "diffusion model changed across the delta; rebuild the oracle");
  }
  if (new_graph.num_nodes() < graph_->num_nodes()) {
    return Status::InvalidArgument(
        "graph shrank across the delta; deltas never drop nodes");
  }
  const std::vector<uint8_t> dirty = DirtyRows(new_graph, new_params);
  const Graph& old_graph = *graph_;
  graph_ = &new_graph;
  params_ = new_params;
  if (std::find(dirty.begin(), dirty.end(), 1) == dirty.end()) {
    return Status::OK();  // identical CSR + params: rebind only
  }
  LaneArena next;
  const CleanRows clean{old_graph, arena_, dirty};
  // No deadline, so sampling cannot fail.
  HOLIM_CHECK_OK(SampleArena(&clean, /*pool=*/nullptr, /*deadline=*/nullptr,
                             next));
  arena_ = std::move(next);
  return Status::OK();
}

SketchOracle::Session::Session(const SketchOracle& oracle,
                               std::span<const double> node_weights)
    : oracle_(oracle),
      weights_(node_weights),
      n_(oracle.graph().num_nodes()),
      num_groups_(oracle.num_lane_groups()),
      lanes_(static_cast<std::size_t>(oracle.num_lane_groups()) *
                 oracle.graph().num_nodes(),
             0),
      pending_(oracle.graph().num_nodes(), 0) {
  HOLIM_CHECK(weights_.empty() || weights_.size() == n_)
      << "weight/node count mismatch";
}

void SketchOracle::Session::Reset() {
  std::fill(lanes_.begin(), lanes_.end(), 0);
  total_active_ = 0;
  total_active_weight_ = 0.0;
  seed_weight_sum_ = 0.0;
  num_seeds_ = 0;
}

void SketchOracle::Session::ReleaseProbeScratch() {
  undo_ = std::vector<LaneUndo>();
  stack_ = std::vector<NodeId>();
}

template <bool kCommit, bool kWeighted>
SketchOracle::Session::Newly SketchOracle::Session::Explore(NodeId u) {
  Newly newly;
  for (uint32_t g = 0; g < num_groups_; ++g) {
    uint64_t* activated = lanes_.data() + static_cast<std::size_t>(g) * n_;
    const uint64_t start = oracle_.LaneMaskAll(g) & ~activated[u];
    if (start == 0) continue;  // u already active in every lane
    newly.nodes += std::popcount(start);
    if constexpr (kWeighted) newly.weight += std::popcount(start) * weights_[u];
    // Probes speculatively write trial lanes into the activated words and
    // roll back from undo_ afterwards, so probe and commit walks are the
    // same kernel with one random state access per edge.
    if constexpr (!kCommit) undo_.push_back({u, activated[u]});
    activated[u] |= start;
    pending_[u] = start;
    stack_.assign(1, u);
    // FIFO walk (see WalkLanes): aggregates lane waves per node so a
    // union row is rescanned once per wave, not once per arriving lane.
    for (std::size_t head = 0; head < stack_.size(); ++head) {
      const NodeId v = stack_[head];
      const uint64_t active = pending_[v];
      if (active == 0) continue;
      pending_[v] = 0;  // self-clearing: processing zeroes the word
      if (head + 1 < stack_.size()) oracle_.PrefetchLaneRow(g, stack_[head + 1]);
      if (head + 2 < stack_.size()) {
        oracle_.PrefetchLaneOffsets(g, stack_[head + 2]);
      }
      const LaneAdjacency adj = oracle_.LaneTargets(g, v);
      for (uint32_t j = 0; j < adj.size; ++j) {
        if (j + kLanePrefetchDistance < adj.size) {
          __builtin_prefetch(&activated[adj.targets[j + kLanePrefetchDistance]]);
        }
        const NodeId t = adj.targets[j];
        const uint64_t fresh = adj.masks[j] & active & ~activated[t];
        if (fresh == 0) continue;
        newly.nodes += std::popcount(fresh);
        if constexpr (kWeighted) {
          newly.weight += std::popcount(fresh) * weights_[t];
        }
        if constexpr (!kCommit) undo_.push_back({t, activated[t]});
        activated[t] |= fresh;
        if (pending_[t] == 0) stack_.push_back(t);
        pending_[t] |= fresh;
      }
    }
    if constexpr (!kCommit) {
      // Reverse replay restores a twice-freshened node's oldest word last.
      for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        activated[it->node] = it->word;
      }
      undo_.clear();
    }
  }
  return newly;
}

double SketchOracle::Session::MarginalGain(NodeId u) {
  const uint32_t snapshots = oracle_.num_snapshots();
  if (!weights_.empty()) {
    const Newly newly = Explore</*kCommit=*/false, /*kWeighted=*/true>(u);
    return (newly.weight - static_cast<double>(snapshots) * weights_[u]) /
           snapshots;
  }
  const Newly newly = Explore</*kCommit=*/false, /*kWeighted=*/false>(u);
  return static_cast<double>(newly.nodes - snapshots) / snapshots;
}

double SketchOracle::Session::Commit(NodeId u) {
  const uint32_t snapshots = oracle_.num_snapshots();
  const Newly newly = weights_.empty()
                          ? Explore</*kCommit=*/true, /*kWeighted=*/false>(u)
                          : Explore</*kCommit=*/true, /*kWeighted=*/true>(u);
  total_active_ += newly.nodes;
  ++num_seeds_;
  if (!weights_.empty()) {
    total_active_weight_ += newly.weight;
    seed_weight_sum_ += weights_[u];
    return (newly.weight - static_cast<double>(snapshots) * weights_[u]) /
           snapshots;
  }
  return static_cast<double>(newly.nodes - snapshots) / snapshots;
}

double SketchOracle::Session::Spread() const {
  if (!weights_.empty()) {
    return (total_active_weight_ -
            static_cast<double>(oracle_.num_snapshots()) * seed_weight_sum_) /
           oracle_.num_snapshots();
  }
  const int64_t spread =
      total_active_ - static_cast<int64_t>(oracle_.num_snapshots()) *
                          static_cast<int64_t>(num_seeds_);
  return static_cast<double>(spread) / oracle_.num_snapshots();
}

std::size_t SketchOracle::Session::ScratchBytes() const {
  return lanes_.capacity() * sizeof(uint64_t) +
         pending_.capacity() * sizeof(uint64_t) +
         undo_.capacity() * sizeof(LaneUndo) +
         stack_.capacity() * sizeof(NodeId);
}

}  // namespace holim
