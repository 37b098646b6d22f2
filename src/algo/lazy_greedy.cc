#include "algo/lazy_greedy.h"

#include <numeric>
#include <queue>

namespace holim {

namespace {

struct Entry {
  NodeId node;
  uint32_t round;  // seed-set size when `gain` was scored
  double key;      // gain, or gain / cost when budgeted
  double gain;
  // CELF++ cache: the gain w.r.t. S + `with` at `round` (kInvalidNode:
  // no cache).
  NodeId with = kInvalidNode;
  double gain_with = 0.0;
};

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
  if (deadline && !deadline->Check().ok()) {
    out.degraded = true;
    out.stop_status = deadline->status();
    return run;
  }
  std::vector<Entry> entries;
  entries.reserve(candidates.size());
  for (const NodeId u : candidates) {
    ++run.evaluations;
    const double gain = oracle.Gain(u);
    entries.push_back({u, 0, key_of(u, gain), gain});
  }
  std::priority_queue<Entry, std::vector<Entry>, PopsAfter> heap(
      PopsAfter{}, std::move(entries));

  double remaining = budget;
  uint32_t checked_round = 0;  // the pre-pass check covers round 0
  while (out.seeds.size() < max_seeds && !heap.empty()) {
    const uint32_t round = static_cast<uint32_t>(out.seeds.size());
    if (deadline) {
      if (round != checked_round) {
        checked_round = round;
        if (!deadline->Check().ok()) {
          out.degraded = true;
          out.stop_status = deadline->status();
          break;
        }
      }
      if (deadline->StopRequested()) {
        // Expiry mid-round (wall clock or cancellation): a gain scored
        // after it may rest on a partial evaluation. A work budget only
        // expires at the round-top Check.
        out.degraded = true;
        out.stop_status = deadline->Check();
        break;
      }
    }
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

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

}  // namespace holim
