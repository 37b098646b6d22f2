#include "algo/rr_sets.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/logging.h"

namespace holim {

RrCollection::RrCollection(const Graph& graph, const InfluenceParams& params,
                           bool track_widths, bool build_index)
    : graph_(graph),
      params_(params),
      track_widths_(track_widths),
      build_index_(build_index) {
  HOLIM_CHECK(params.probability.size() == graph.num_edges());
  offsets_.push_back(0);
  if (build_index_) cover_count_.assign(graph.num_nodes(), 0);
  if (params.model == DiffusionModel::kLinearThreshold) return;
  rows_.resize(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    double q = 0.0;
    for (const EdgeId e : graph.InEdgeIds(v)) q = std::max(q, params.p(e));
    RowSampler& row = rows_[v];
    row.q = std::min(q, 1.0);
    if (row.q > 0.0 && row.q < 1.0) {
      const double log_miss = std::log1p(-row.q);
      row.inv_log_miss = 1.0 / log_miss;
      row.none_live = std::exp(log_miss * graph.InDegree(v));
    }
  }
}

void RrCollection::Clear() {
  entries_.clear();
  offsets_.assign(1, 0);
  widths_.clear();
  total_width_ = 0;
  segments_.clear();
  if (build_index_) cover_count_.assign(graph_.num_nodes(), 0);
  indexed_sets_ = 0;
  ++epoch_;  // outstanding snapshots would dangle; invalidate them
}

uint64_t RrCollection::SampleOne(Rng& rng, EpochSet& visited,
                                 std::vector<NodeId>& stack,
                                 std::vector<NodeId>& out) const {
  const NodeId root = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
  visited.Reset(graph_.num_nodes());
  stack.clear();
  visited.Insert(root);
  stack.push_back(root);
  out.push_back(root);
  uint64_t width = 0;
  const bool lt = params_.model == DiffusionModel::kLinearThreshold;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    width += graph_.InDegree(v);
    auto in_neighbors = graph_.InNeighbors(v);
    auto in_edges = graph_.InEdgeIds(v);
    if (lt) {
      // Live-edge: v keeps at most one live in-edge, chosen w.p. w(u,v).
      double r = rng.NextDouble();
      for (std::size_t i = 0; i < in_neighbors.size(); ++i) {
        const double w = params_.p(in_edges[i]);
        if (r < w) {
          const NodeId u = in_neighbors[i];
          if (!visited.Contains(u)) {
            visited.Insert(u);
            stack.push_back(u);
            out.push_back(u);
          }
          break;
        }
        r -= w;
      }
    } else {
      // Skip-and-thin: candidates are a Bernoulli(q) process over the row,
      // and a candidate e stays live w.p. p(e)/q, so e is live w.p. p(e).
      const RowSampler& row = rows_[v];
      auto thin = [&](std::size_t i) {
        const NodeId u = in_neighbors[i];
        if (visited.Contains(u)) return;
        const double p = params_.p(in_edges[i]);
        if (p != row.q && rng.NextDouble() * row.q >= p) return;
        visited.Insert(u);
        stack.push_back(u);
        out.push_back(u);
      };
      if (row.q >= 1.0) {
        for (std::size_t i = 0; i < in_neighbors.size(); ++i) thin(i);
      } else if (row.q > 0.0) {
        // U <= (1-q)^d means no candidate at all: no log on that path.
        const double first = rng.NextDouble();
        if (first > row.none_live) {
          const double d = static_cast<double>(in_neighbors.size());
          // Geometric gaps by inversion; log(0) gives +inf, past the end.
          double pos = std::floor(std::log(first) * row.inv_log_miss);
          while (pos < d) {
            thin(static_cast<std::size_t>(pos));
            pos += 1.0 + std::floor(std::log(rng.NextDouble()) *
                                    row.inv_log_miss);
          }
        }
      }
    }
  }
  return width;
}

Status RrCollection::GenerateParallel(std::size_t count, uint64_t seed,
                                      ThreadPool* pool, Deadline* deadline) {
  if (count == 0) return Status::OK();
  ThreadPool& p = pool ? *pool : DefaultThreadPool();
  const std::size_t num_blocks =
      (count + kGenerateBlockSize - 1) / kGenerateBlockSize;

  // Tasks only schedule blocks onto threads; each task carries reusable
  // scratch and one output buffer, never RNG state — block seeds depend on
  // the global block index alone, so the merged arena does not depend on
  // thread count. A wave gives each task a run of kBlocksPerTask
  // consecutive blocks and merges the tasks' buffers in block order after
  // the wave, capping peak transient memory at one wave of buffers
  // instead of a full second copy of the arena. When task_counts is on,
  // each task additionally accumulates per-node member counts across its
  // waves — the task-local partial index reduced after the last wave to
  // shape the new index segment without an extra pass over the arena.
  // alignas keeps two tasks' hot vector headers off one cache line.
  struct alignas(64) TaskState {
    EpochSet visited;
    std::vector<NodeId> stack;
    std::vector<NodeId> entries;
    std::vector<uint32_t> sizes;
    std::vector<uint64_t> widths;
    std::vector<uint32_t> counts;  // partial index: per-node member counts
  };
  const std::size_t tasks = std::max<std::size_t>(
      1, std::min<std::size_t>(
             p.num_threads() * 2,
             (num_blocks + kBlocksPerTask - 1) / kBlocksPerTask));
  const std::size_t wave_size = tasks * kBlocksPerTask;
  // Task-local count partials move the index counting pass onto the pool,
  // but zeroing + reducing them costs O(tasks * num_nodes) serial work on
  // the calling thread; the alternative is a single serial recount pass
  // over the new arena suffix, O(num_nodes + new entries). Partials only
  // win when the append dwarfs that fixed cost (new entries >= count, so
  // `count >= tasks * n` guarantees the counting work moved off-thread at
  // least matches the serial overhead added).
  const bool task_counts =
      build_index_ &&
      count >= tasks * static_cast<std::size_t>(graph_.num_nodes());
  std::vector<TaskState> task(tasks);
  for (auto& t : task) {
    t.visited.Reset(graph_.num_nodes());
    if (task_counts) t.counts.assign(graph_.num_nodes(), 0);
  }

  offsets_.reserve(offsets_.size() + count);
  if (track_widths_) widths_.reserve(widths_.size() + count);
  const std::size_t entries_before = entries_.size();
  const std::size_t offsets_before = offsets_.size();
  const std::size_t widths_before = widths_.size();
  const uint64_t total_width_before = total_width_;
  for (std::size_t wave_start = 0; wave_start < num_blocks;
       wave_start += wave_size) {
    const std::size_t wave_end = std::min(wave_start + wave_size, num_blocks);
    const std::size_t wave_tasks =
        (wave_end - wave_start + kBlocksPerTask - 1) / kBlocksPerTask;
    if (deadline) {
      // One tick per block, charged at the wave boundary: consumption is a
      // function of the block count alone, so the expiry point (and the
      // caller's degradation) is invariant to thread count.
      Status st = deadline->CheckN(wave_end - wave_start);
      if (!st.ok()) {
        // Roll back this call's appends: a partial arena would depend on
        // where the waves were cut, and the index never saw these sets.
        entries_.resize(entries_before);
        offsets_.resize(offsets_before);
        widths_.resize(widths_before);
        total_width_ = total_width_before;
        return st;
      }
    }
    p.ParallelFor(wave_tasks, [&](std::size_t t) {
      TaskState& ts = task[t];
      ts.entries.clear();
      ts.sizes.clear();
      ts.widths.clear();
      const std::size_t first = wave_start + t * kBlocksPerTask;
      const std::size_t last = std::min(first + kBlocksPerTask, wave_end);
      for (std::size_t b = first; b < last; ++b) {
        uint64_t state = seed + kGenerateSeedSalt * (b + 1);
        Rng rng(Rng::SplitMix64(state));
        const std::size_t lo = b * kGenerateBlockSize;
        const std::size_t n = std::min(kGenerateBlockSize, count - lo);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t before = ts.entries.size();
          const uint64_t width =
              SampleOne(rng, ts.visited, ts.stack, ts.entries);
          ts.sizes.push_back(
              static_cast<uint32_t>(ts.entries.size() - before));
          ts.widths.push_back(width);
        }
      }
      if (task_counts) {
        for (const NodeId u : ts.entries) ++ts.counts[u];
      }
    });
    if (wave_start == 0) {
      // Project the final arena size from the first wave's mean set size
      // (+5% slack when more waves follow) so later waves rarely trigger a
      // doubling realloc; a call that fits one wave reserves it exactly.
      std::size_t wave_entries = 0, wave_sets = 0;
      for (std::size_t t = 0; t < wave_tasks; ++t) {
        wave_entries += task[t].entries.size();
        wave_sets += task[t].sizes.size();
      }
      std::size_t projected = entries_before + wave_entries * count / wave_sets;
      if (wave_sets < count) projected += projected / 20;
      entries_.reserve(projected);
    }
    for (std::size_t t = 0; t < wave_tasks; ++t) {
      const TaskState& ts = task[t];
      entries_.insert(entries_.end(), ts.entries.begin(), ts.entries.end());
      std::size_t end = offsets_.back();
      for (std::size_t i = 0; i < ts.sizes.size(); ++i) {
        end += ts.sizes[i];
        offsets_.push_back(end);
        if (track_widths_) widths_.push_back(ts.widths[i]);
        total_width_ += ts.widths[i];
      }
    }
  }
  if (build_index_) {
    if (task_counts) {
      // Reduce the task partials (order-independent integer sums, so the
      // result does not depend on task count) and index the appended sets.
      for (std::size_t t = 1; t < tasks; ++t) {
        for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
          task[0].counts[u] += task[t].counts[u];
        }
      }
      IndexNewSets(task[0].counts.data());
    } else {
      IndexNewSets(nullptr);
    }
  }
  return Status::OK();
}

void RrCollection::IndexNewSets(const uint32_t* new_counts) {
  const std::size_t first = indexed_sets_;
  const std::size_t total = num_sets();
  if (first == total) return;
  HOLIM_CHECK(total <= std::numeric_limits<uint32_t>::max());
  const NodeId n = graph_.num_nodes();
  std::vector<uint32_t> recount;
  if (new_counts == nullptr) {
    recount.assign(n, 0);
    for (std::size_t j = offsets_[first]; j < entries_.size(); ++j) {
      ++recount[entries_[j]];
    }
    new_counts = recount.data();
  }

  IndexSegment seg;
  seg.first_set = first;
  seg.num_sets = total - first;
  const std::size_t seg_entries = entries_.size() - offsets_[first];
  HOLIM_CHECK(seg_entries <= std::numeric_limits<uint32_t>::max());
  seg.offsets.resize(n + 1);
  seg.offsets[0] = 0;
  for (NodeId u = 0; u < n; ++u) {
    seg.offsets[u + 1] = seg.offsets[u] + new_counts[u];
    cover_count_[u] += new_counts[u];
  }
  seg.sets.resize(seg_entries);
  std::vector<uint32_t> cursor(seg.offsets.begin(), seg.offsets.end() - 1);
  for (std::size_t s = first; s < total; ++s) {
    for (std::size_t j = offsets_[s]; j < offsets_[s + 1]; ++j) {
      seg.sets[cursor[entries_[j]]++] = static_cast<uint32_t>(s);
    }
  }
  segments_.push_back(std::move(seg));
  indexed_sets_ = total;
  CompactSegments();
}

void RrCollection::CompactSegments() {
  const NodeId n = graph_.num_nodes();
  while (segments_.size() > kMaxIndexSegments) {
    std::size_t best = 0;
    std::size_t best_sets = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i + 1 < segments_.size(); ++i) {
      const std::size_t sz = segments_[i].num_sets + segments_[i + 1].num_sets;
      if (sz < best_sets) {
        best_sets = sz;
        best = i;
      }
    }
    IndexSegment& a = segments_[best];
    const IndexSegment& b = segments_[best + 1];
    HOLIM_CHECK(a.sets.size() + b.sets.size() <=
                std::numeric_limits<uint32_t>::max());
    IndexSegment merged;
    merged.first_set = a.first_set;
    merged.num_sets = a.num_sets + b.num_sets;
    merged.offsets.resize(n + 1);
    merged.sets.resize(a.sets.size() + b.sets.size());
    uint32_t pos = 0;
    merged.offsets[0] = 0;
    for (NodeId u = 0; u < n; ++u) {
      // a's sets all precede b's, so per-node ascending order is preserved
      // by plain concatenation.
      for (uint32_t j = a.offsets[u]; j < a.offsets[u + 1]; ++j) {
        merged.sets[pos++] = a.sets[j];
      }
      for (uint32_t j = b.offsets[u]; j < b.offsets[u + 1]; ++j) {
        merged.sets[pos++] = b.sets[j];
      }
      merged.offsets[u + 1] = pos;
    }
    a = std::move(merged);
    segments_.erase(segments_.begin() + best + 1);
  }
}

RrCollection::CoverageSnapshot RrCollection::Snapshot() const {
  HOLIM_CHECK(build_index_) << "constructed with build_index = false";
  HOLIM_CHECK(indexed_sets_ == num_sets());
  return CoverageSnapshot(this, epoch_, num_sets());
}

RrCollection::CoverageResult RrCollection::SelectMaxCoverage(
    uint32_t k) const {
  return Snapshot().SelectMaxCoverage(k);
}

namespace {

/// CELF heap entry: a stale upper bound on the node's marginal gain (gains
/// only shrink as sets get covered, so a stale value is always an upper
/// bound). Max-heap; ties prefer the smaller node id.
struct Candidate {
  uint32_t gain;
  NodeId node;
  bool operator<(const Candidate& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;
  }
};

}  // namespace

RrCollection::CoverageResult RrCollection::CoverageSnapshot::SelectMaxCoverage(
    uint32_t k, Deadline* deadline) const {
  HOLIM_CHECK(valid()) << "stale CoverageSnapshot: collection Cleared "
                       << "(snapshot epoch " << epoch_ << ", live epoch "
                       << rr_->epoch_ << ")";
  CoverageResult result;
  const std::size_t num = limit_;
  if (num == 0) return result;
  const NodeId n = rr_->graph_.num_nodes();

  // Re-counts a node's uncovered sets against the live segments, stopping
  // at this snapshot's pinned bound (per-node lists are ascending, and so
  // are segment ranges, so both cutoffs are early exits).
  std::vector<char> set_covered(num, 0);
  auto fresh_gain = [&](NodeId u) {
    uint32_t fresh = 0;
    for (const IndexSegment& seg : rr_->segments_) {
      if (seg.first_set >= num) break;
      for (uint32_t j = seg.offsets[u]; j < seg.offsets[u + 1]; ++j) {
        const uint32_t s = seg.sets[j];
        if (s >= num) break;
        if (!set_covered[s]) ++fresh;
      }
    }
    return fresh;
  };

  // CELF lazy greedy: take the candidate with the largest stale upper
  // bound, refresh its gain, and select only when the refreshed gain still
  // beats every remaining bound. cover_count_ counts every indexed set —
  // for a snapshot older than the latest append that is an over-estimate,
  // which CELF tolerates (upper bounds are refreshed before any selection).
  //
  // Instead of heapifying all candidates (the dominant cost of a round:
  // O(candidates) comparison-heavy sift-downs), candidates are counting-
  // sorted once by their exact initial bound — descending gain, ascending
  // node id within a gain level, i.e. exactly the Candidate heap order —
  // and consumed front to back. Only refreshed (re-inserted) nodes go
  // through a binary heap, and those are few: k=1 vs k=50 selections on the
  // same collection differ by well under a millisecond.
  uint32_t max_count = 0;
  std::size_t num_candidates = 0;
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t c = rr_->cover_count_[u];
    if (c > 0) ++num_candidates;
    max_count = std::max(max_count, c);
  }
  if (num_candidates == 0) max_count = 0;
  // Gain histogram, turned into suffix sums: after the loop, ge[c] is the
  // number of candidates with bound >= c, so gain level c occupies slots
  // [ge[c + 1], ge[c]) — levels descending, and the ascending node-id scan
  // below keeps ids ascending within each level (the Candidate heap order).
  std::vector<std::size_t> ge(max_count + 2, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (rr_->cover_count_[u] > 0) ++ge[rr_->cover_count_[u]];
  }
  for (uint32_t c = max_count; c >= 1; --c) ge[c] += ge[c + 1];
  std::vector<NodeId> sorted(num_candidates);
  {
    std::vector<std::size_t> cursor(ge.begin() + 1, ge.end());  // [c] = ge[c+1]
    for (NodeId u = 0; u < n; ++u) {
      const uint32_t c = rr_->cover_count_[u];
      if (c > 0) sorted[cursor[c]++] = u;
    }
  }

  std::priority_queue<Candidate> refreshed;
  std::size_t next_sorted = 0;
  std::vector<char> selected(n, 0);
  std::size_t covered = 0;
  while (result.seeds.size() < k &&
         (next_sorted < sorted.size() || !refreshed.empty())) {
    // Best remaining bound across the two pools (Candidate order: larger
    // gain first, then smaller node id).
    Candidate top;
    bool from_heap;
    if (next_sorted < sorted.size()) {
      top = {rr_->cover_count_[sorted[next_sorted]], sorted[next_sorted]};
      from_heap = !refreshed.empty() && top < refreshed.top();
      if (from_heap) top = refreshed.top();
    } else {
      top = refreshed.top();
      from_heap = true;
    }
    if (from_heap) {
      refreshed.pop();
    } else {
      ++next_sorted;
    }
    if (selected[top.node]) continue;
    const uint32_t fresh = fresh_gain(top.node);
    if (fresh == 0) continue;  // nothing uncovered left under this node
    Candidate next{0, 0};
    bool have_next = false;
    if (next_sorted < sorted.size()) {
      next = {rr_->cover_count_[sorted[next_sorted]], sorted[next_sorted]};
      have_next = true;
    }
    if (!refreshed.empty() && (!have_next || next < refreshed.top())) {
      next = refreshed.top();
      have_next = true;
    }
    if (have_next && Candidate{fresh, top.node} < next) {
      refreshed.push({fresh, top.node});
      continue;
    }
    if (deadline && !deadline->Check().ok()) {
      // Prefix seeds are valid greedy output; skip the padding below too.
      result.deadline_hit = true;
      return result;
    }
    result.seeds.push_back(top.node);
    selected[top.node] = 1;
    for (const IndexSegment& seg : rr_->segments_) {
      if (seg.first_set >= num) break;
      for (uint32_t j = seg.offsets[top.node]; j < seg.offsets[top.node + 1];
           ++j) {
        const uint32_t s = seg.sets[j];
        if (s >= num) break;
        if (!set_covered[s]) {
          set_covered[s] = 1;
          ++covered;
        }
      }
    }
  }
  // All sets covered (or no positive-gain node left): pad with arbitrary
  // distinct nodes, as the legacy selector did.
  for (NodeId u = 0; u < n && result.seeds.size() < k; ++u) {
    if (!selected[u]) {
      result.seeds.push_back(u);
      selected[u] = 1;
    }
  }
  result.covered_fraction = static_cast<double>(covered) / num;
  return result;
}

double RrCollection::CoveredFraction(const std::vector<NodeId>& seeds) const {
  const std::size_t num = num_sets();
  if (num == 0) return 0.0;
  std::vector<char> is_seed(graph_.num_nodes(), 0);
  for (NodeId s : seeds) is_seed[s] = 1;
  std::size_t covered = 0;
  for (std::size_t s = 0; s < num; ++s) {
    for (std::size_t j = offsets_[s]; j < offsets_[s + 1]; ++j) {
      if (is_seed[entries_[j]]) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / num;
}

std::size_t RrCollection::MemoryBytes() const {
  return entries_.capacity() * sizeof(NodeId) +
         offsets_.capacity() * sizeof(std::size_t) +
         widths_.capacity() * sizeof(uint64_t);
}

std::size_t RrCollection::RowTableMemoryBytes() const {
  return rows_.capacity() * sizeof(RowSampler);
}

std::size_t RrCollection::IndexMemoryBytes() const {
  std::size_t bytes = cover_count_.capacity() * sizeof(uint32_t);
  for (const IndexSegment& seg : segments_) {
    bytes += seg.offsets.capacity() * sizeof(uint32_t) +
             seg.sets.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace holim
