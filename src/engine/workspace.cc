#include "engine/workspace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/content_hash.h"
#include "util/fault_injection.h"

namespace holim {

uint64_t FingerprintParams(const InfluenceParams& params) {
  const auto& p = params.probability;
  return ContentHash()
      .Word(static_cast<uint64_t>(params.model))
      .Bytes(p.data(), p.size() * sizeof(double))
      .value();
}

uint64_t FingerprintOpinions(const OpinionParams& opinions) {
  const auto& o = opinions.opinion;
  const auto& phi = opinions.interaction;
  return ContentHash()
      .Bytes(o.data(), o.size() * sizeof(double))
      .Bytes(phi.data(), phi.size() * sizeof(double))
      .value();
}

uint64_t FingerprintDoubles(const std::vector<double>& values) {
  return ContentHash()
      .Bytes(values.data(), values.size() * sizeof(double))
      .value();
}

uint64_t FingerprintNodes(const std::vector<NodeId>& nodes) {
  return ContentHash()
      .Bytes(nodes.data(), nodes.size() * sizeof(NodeId))
      .value();
}

SeedSelection PrefixMemo::Prefix(uint32_t want) const {
  SeedSelection selection;
  const std::size_t length = std::min<std::size_t>(want, seeds.size());
  selection.seeds.assign(seeds.begin(), seeds.begin() + length);
  selection.seed_scores.assign(
      seed_scores.begin(),
      seed_scores.begin() + std::min(length, seed_scores.size()));
  return selection;
}

void PrefixMemo::Record(uint32_t run_k, const SeedSelection& selection) {
  // The new run extends the old one (prefix_nested), so the spreads stored
  // for the old prefixes still hold.
  k = run_k;
  seeds = selection.seeds;
  seed_scores = selection.seed_scores;
  spreads.resize(seeds.size());
}

std::size_t PrefixMemo::Bytes() const {
  return seeds.capacity() * sizeof(NodeId) +
         seed_scores.capacity() * sizeof(double) +
         spreads.capacity() * sizeof(std::optional<double>);
}

Workspace::Entry* Workspace::Touch(const ArtifactKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++tick_;
  it->second.heat = DecayedHeat(it->second, tick_) + 1.0;
  it->second.heat_tick = tick_;
  return &it->second;
}

double Workspace::DecayedHeat(const Entry& entry, uint64_t now) const {
  const uint64_t halvings = (now - entry.heat_tick) / heat_half_life_;
  // Past ~1074 halvings even DBL_MAX underflows to exactly 0; clamping
  // keeps the ldexp exponent in int range.
  if (halvings > 1074) return 0.0;
  return std::ldexp(entry.heat, -static_cast<int>(halvings));
}

double Workspace::HeatOf(const ArtifactKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0.0 : DecayedHeat(it->second, tick_);
}

double Workspace::BenefitPerByte(const ArtifactKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0.0;
  const double bytes = static_cast<double>(
      std::max<std::size_t>(it->second.FootprintBytes(), 1));
  return DecayedHeat(it->second, tick_) * it->second.rebuild_cost / bytes;
}

Result<std::shared_ptr<const SketchOracle>> Workspace::GetSketchOracle(
    const Graph& graph, const InfluenceParams& params, const SketchKey& key,
    ThreadPool* pool, Deadline* deadline) {
  if (Entry* entry = Touch(key)) {
    ++hits_;
    return std::shared_ptr<const SketchOracle>(entry->sketch);
  }
  ++misses_;
  HOLIM_RETURN_NOT_OK(FaultInjection::Hit("workspace/sketch"));
  SketchOptions options;
  options.num_snapshots = key.snapshots;
  options.seed = key.seed;
  options.record_edge_offsets = key.edge_offsets;
  options.pool = pool;
  options.deadline = deadline;
  Entry entry;
  entry.sketch = std::make_shared<SketchOracle>(graph, params, options);
  if (!entry.sketch->build_status().ok()) {
    // Deadline-aborted sample: the partial arena must never be cached.
    return entry.sketch->build_status();
  }
  HOLIM_RETURN_NOT_OK(AdmitBytes(entry.sketch->ArenaBytes()));
  entry.last_used = ++tick_;
  entry.heat = 1.0;
  entry.heat_tick = tick_;
  // Deterministic sampling-work proxy (NOT wall time, which would make
  // eviction order — and the serving bench's exactly-gated counters —
  // machine-dependent): R forward simulations over the whole graph.
  entry.rebuild_cost =
      static_cast<double>(key.snapshots) *
      static_cast<double>(graph.num_nodes() + graph.num_edges());
  std::shared_ptr<const SketchOracle> sketch = entry.sketch;
  entries_[key] = std::move(entry);
  return sketch;
}

std::shared_ptr<const SketchOracle> Workspace::PeekSketchOracle(
    const SketchKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.sketch;
}

Result<SeedSelector*> Workspace::GetSelector(
    const std::string& key,
    const std::function<Result<std::unique_ptr<SeedSelector>>()>& build,
    bool* reused) {
  if (Entry* entry = Touch(key)) {
    ++hits_;
    if (reused) *reused = true;
    return entry->selector.get();
  }
  ++misses_;
  if (reused) *reused = false;
  HOLIM_RETURN_NOT_OK(FaultInjection::Hit("workspace/selector"));
  HOLIM_ASSIGN_OR_RETURN(std::unique_ptr<SeedSelector> selector, build());
  Entry entry;
  entry.selector = std::move(selector);
  HOLIM_RETURN_NOT_OK(AdmitBytes(entry.selector->MemoryFootprintBytes()));
  entry.last_used = ++tick_;
  entry.heat = 1.0;
  entry.heat_tick = tick_;
  // Footprint bytes as the rebuild-cost proxy: deterministic, and it
  // ranks selectors below same-heat sketch arenas (whose R*(n+m) work
  // units dwarf their byte counts), matching their actual rebuild cost.
  entry.rebuild_cost =
      static_cast<double>(entry.selector->MemoryFootprintBytes());
  SeedSelector* raw = entry.selector.get();
  entries_[key] = std::move(entry);
  return raw;
}

SeedSelector* Workspace::PeekSelector(const std::string& key) {
  Entry* entry = Touch(key);
  return entry ? entry->selector.get() : nullptr;
}

PrefixMemo* Workspace::SelectorMemo(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.selector == nullptr) return nullptr;
  return &it->second.memo;
}

bool Workspace::Evict(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  entries_.erase(it);
  ++evictions_;
  return true;
}

void Workspace::Clear() { entries_.clear(); }

Status Workspace::AdmitBytes(std::size_t incoming_bytes) {
  if (!hard_budget_ || max_bytes_ == 0) return Status::OK();
  if (MemoryFootprintBytes() + incoming_bytes <= max_bytes_) {
    return Status::OK();
  }
  EnforceBudget();  // one evict-and-retry before giving up
  const std::size_t resident = MemoryFootprintBytes();
  if (resident + incoming_bytes <= max_bytes_) return Status::OK();
  return Status::ResourceExhausted(
      "workspace byte budget exhausted: artifact of " +
      std::to_string(incoming_bytes) + " bytes does not fit in " +
      std::to_string(max_bytes_) + " (resident " + std::to_string(resident) +
      ")");
}

Workspace::DeltaPatchStats Workspace::ApplyGraphDelta(
    uint64_t old_params_fp, uint64_t new_params_fp,
    const std::function<Status(SketchOracle&)>& patch) {
  DeltaPatchStats stats;
  std::map<ArtifactKey, Entry> patched;
  while (!entries_.empty()) {
    auto node = entries_.extract(entries_.begin());
    SketchKey* key = std::get_if<SketchKey>(&node.key());
    if (key == nullptr || key->params_fp != old_params_fp ||
        !patch(*node.mapped().sketch).ok()) {
      // Selectors hold graph-shaped internals (RR arenas, sweep tables,
      // sketch sessions) with no patch path; mismatched-fingerprint
      // sketches were built for params that no longer map onto the new
      // EdgeIds; failed patches are stale. All must go.
      ++stats.evicted;
      ++evictions_;
      continue;
    }
    key->params_fp = new_params_fp;
    patched.insert(std::move(node));
    ++stats.patched;
  }
  entries_ = std::move(patched);
  return stats;
}

std::size_t Workspace::MemoryFootprintBytes() const {
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) total += entry.FootprintBytes();
  return total;
}

std::size_t Workspace::EnforceBudget(uint64_t pin_newer_than) {
  if (max_bytes_ == 0) return 0;
  std::size_t evicted = 0;
  while (entries_.size() > 1 && MemoryFootprintBytes() > max_bytes_) {
    auto eligible = [pin_newer_than](const Entry& e) {
      return e.last_used <= pin_newer_than;
    };
    auto victim = entries_.end();
    if (policy_ == EvictionPolicy::kLru) {
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (!eligible(it->second)) continue;
        if (victim == entries_.end() ||
            it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
    } else {
      auto score_of = [this](const Entry& e) {
        const double bytes = static_cast<double>(
            std::max<std::size_t>(e.FootprintBytes(), 1));
        return DecayedHeat(e, tick_) * e.rebuild_cost / bytes;
      };
      // Ascending key order + strict "<" breaks equal-benefit ties
      // toward the smallest ArtifactKey: selectors (by key string), then
      // sketch arenas (by SketchKey field order).
      double victim_score = 0.0;
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (!eligible(it->second)) continue;
        const double score = score_of(it->second);
        if (victim == entries_.end() || score < victim_score) {
          victim = it;
          victim_score = score;
        }
      }
    }
    if (victim == entries_.end()) break;  // only pinned entries left
    entries_.erase(victim);
    ++evictions_;
    ++evicted;
  }
  // A single over-budget artifact is kept: evicting the only copy of the
  // thing the next solve needs would just thrash rebuild/evict.
  return evicted;
}

}  // namespace holim
