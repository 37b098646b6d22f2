#include "algo/lazy_greedy.h"

#include <limits>
#include <numeric>
#include <queue>

namespace holim {

namespace {

// Entry::round of a candidate keyed on its empty-set bound, not yet
// scored: it never equals a round, so the driver scores it on its first
// pop. A never-scored entry carries no look-ahead cache (`with` is set
// only beside a Gain call, which also sets a real round).
constexpr uint32_t kNeverScored = std::numeric_limits<uint32_t>::max();

struct Entry {
  NodeId node;
  uint32_t round;  // seed-set size when `gain` was scored, or kNeverScored
  double key;      // gain, or gain / cost when budgeted
  double gain;     // the bound while never scored
  // CELF++ cache: the gain w.r.t. S + `with` at `round` (kInvalidNode:
  // no cache).
  NodeId with = kInvalidNode;
  double gain_with = 0.0;
};

// A round-top checkpoint: on expiry records the stop on `out` and returns
// true.
bool CheckpointExpired(Deadline* deadline, SeedSelection& out) {
  if (deadline == nullptr || deadline->Check().ok()) return false;
  out.degraded = true;
  out.stop_status = deadline->status();
  return true;
}

// Expiry mid-round (wall clock or cancellation): a gain scored after it
// may rest on a partial evaluation, so the round is discarded. A work
// budget only expires at a round-top checkpoint.
bool StopRequestedMidRound(Deadline* deadline, SeedSelection& out) {
  if (deadline == nullptr || !deadline->StopRequested()) return false;
  out.degraded = true;
  out.stop_status = deadline->Check();
  return true;
}

// std::priority_queue pops the "largest" element: the larger key, and on
// equal keys the smaller node id.
struct PopsAfter {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.node > b.node;
  }
};

}  // namespace

LazyGreedyRun LazyGreedy(GainOracle& oracle,
                         std::span<const NodeId> candidates,
                         uint32_t max_seeds, std::span<const double> costs,
                         double budget, Deadline* deadline) {
  LazyGreedyRun run;
  SeedSelection& out = run.selection;
  const bool budgeted = !costs.empty();
  auto key_of = [&](NodeId u, double gain) {
    return budgeted ? gain / costs[u] : gain;
  };
  if (CheckpointExpired(deadline, out)) return run;
  std::vector<Entry> entries;
  entries.reserve(candidates.size());
  std::vector<double> bounds;
  if (oracle.EmptySetGainBounds(candidates, &bounds)) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const NodeId u = candidates[i];
      entries.push_back({u, kNeverScored, key_of(u, bounds[i]), bounds[i]});
    }
  } else {
    for (const NodeId u : candidates) {
      ++run.evaluations;
      const double gain = oracle.Gain(u);
      entries.push_back({u, 0, key_of(u, gain), gain});
    }
  }
  std::priority_queue<Entry, std::vector<Entry>, PopsAfter> heap(
      PopsAfter{}, std::move(entries));

  double remaining = budget;
  uint32_t checked_round = 0;  // the pre-pass check covers round 0
  while (out.seeds.size() < max_seeds && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(out.seeds.size());
    if (round != checked_round) {
      checked_round = round;
      if (CheckpointExpired(deadline, out)) break;
    }
    if (StopRequestedMidRound(deadline, out)) break;
    Entry top = heap.top();
    heap.pop();
    if (budgeted && costs[top.node] > remaining) continue;  // never fits
    if (top.round == round) {
      oracle.Commit(top.node, top.gain);
      if (budgeted) remaining -= costs[top.node];
      out.seeds.push_back(top.node);
      out.seed_scores.push_back(top.gain);
      continue;
    }
    const bool cached = top.with != kInvalidNode &&
                        top.round + 1 == round && out.seeds.back() == top.with;
    top.with = kInvalidNode;
    if (cached) {
      // CELF++: the gain w.r.t. the old S + `with` is the gain w.r.t. the
      // new S.
      top.gain = top.gain_with;
    } else {
      ++run.evaluations;
      top.gain = oracle.Gain(top.node);
      if (!budgeted && !heap.empty() &&
          oracle.GainWith(heap.top().node, top.node, &top.gain_with)) {
        run.evaluations += 2;
        top.with = heap.top().node;
      }
    }
    top.key = key_of(top.node, top.gain);
    top.round = round;
    heap.push(top);
  }
  return run;
}

LazyGreedyRun EagerGreedy(GainOracle& oracle,
                          std::span<const NodeId> candidates,
                          uint32_t max_seeds, std::span<const double> costs,
                          double budget, Deadline* deadline) {
  LazyGreedyRun run;
  SeedSelection& out = run.selection;
  const bool budgeted = !costs.empty();
  std::vector<NodeId> left(candidates.begin(), candidates.end());
  double remaining = budget;
  while (out.seeds.size() < max_seeds) {
    if (CheckpointExpired(deadline, out)) break;
    std::size_t best = left.size();
    double best_key = -std::numeric_limits<double>::infinity();
    double best_gain = 0.0;
    for (std::size_t i = 0; i < left.size(); ++i) {
      const NodeId u = left[i];
      if (budgeted && costs[u] > remaining) continue;
      ++run.evaluations;
      const double gain = oracle.Gain(u);
      const double key = budgeted ? gain / costs[u] : gain;
      if (key > best_key ||
          (key == best_key && best < left.size() && u < left[best])) {
        best = i;
        best_key = key;
        best_gain = gain;
      }
    }
    if (StopRequestedMidRound(deadline, out)) break;
    if (best == left.size()) break;  // nothing left that fits
    const NodeId u = left[best];
    oracle.Commit(u, best_gain);
    if (budgeted) remaining -= costs[u];
    out.seeds.push_back(u);
    out.seed_scores.push_back(best_gain);
    left.erase(left.begin() + static_cast<std::ptrdiff_t>(best));
  }
  return run;
}

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

}  // namespace holim
