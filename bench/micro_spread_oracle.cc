// Spread-oracle microbenchmark: the sketch oracle (presampled live-edge
// snapshots in a 64-lane bit-parallel arena + incremental marginal-gain
// session) versus the per-candidate Monte-Carlo spread path, on the
// 100k-node WC benchmark graph. Emits BENCH_spread.json; the CI bench-gate
// (tools/check_bench_regression.py) fails the job when the deterministic
// metrics (arena bytes/snapshot, session work ratio, sketch-vs-MC spread
// parity) or the timing ratios (CELF speedup vs MC, incremental-session
// speedup vs one-shot sketch) regress against the committed baseline.
//
// All numbers are single-thread on purpose (explicit ThreadPool(1) for the
// MC path, serial sampling/evaluation for the sketch path): the reference
// bench host is single-core, and ratios of single-thread times transfer
// across machines where raw seconds would not.
//
// The CELF comparison restricts candidates to the top-degree pool so the
// MC path finishes in CI time; all three paths (MC, one-shot sketch,
// incremental session) hill-climb the same candidates through the same
// LazyGreedy driver (gain, then smaller node id), so the comparison is
// apples-to-apples. The incremental session's per-round spread is
// HOLIM_CHECKed bitwise-equal to one-shot Estimate on the same prefix.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "algo/lazy_greedy.h"
#include "common.h"
#include "diffusion/sketch_oracle.h"
#include "graph/generators.h"

using namespace holim;

namespace {

// Top `count` nodes by out-degree, ties toward the smaller id — the
// deterministic candidate pool every CELF variant hill-climbs.
std::vector<NodeId> TopDegreeNodes(const Graph& g, std::size_t count) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    if (g.OutDegree(a) != g.OutDegree(b)) {
      return g.OutDegree(a) > g.OutDegree(b);
    }
    return a < b;
  });
  nodes.resize(std::min(count, nodes.size()));
  return nodes;
}

struct CelfRun {
  std::vector<NodeId> seeds;
  double seconds = 0.0;
  uint64_t evaluations = 0;
};

// Lazy-forward greedy over `candidates` with pluggable marginal-gain and
// commit hooks — the shared loop of the three compared paths.
template <typename GainFn, typename CommitFn>
CelfRun RunCelf(const std::vector<NodeId>& candidates, uint32_t k,
                const GainFn& gain, const CommitFn& commit) {
  struct Hooks : GainOracle {
    Hooks(const GainFn& g, const CommitFn& c) : gain(g), commit(c) {}
    double Gain(NodeId u) override { return gain(u); }
    void Commit(NodeId u, double g) override { commit(u, g); }
    const GainFn& gain;
    const CommitFn& commit;
  };
  Hooks hooks(gain, commit);
  Timer timer;
  LazyGreedyRun lazy = LazyGreedy(hooks, candidates, k);
  CelfRun run;
  run.seconds = timer.ElapsedSeconds();
  run.seeds = std::move(lazy.selection.seeds);
  run.evaluations = lazy.evaluations;
  return run;
}

Status Run(const BenchArgs& args) {
  const NodeId nodes = static_cast<NodeId>(args.GetInt("nodes", 100000));
  const uint32_t snapshots =
      static_cast<uint32_t>(args.GetInt("snapshots", 200));
  const uint32_t mc = static_cast<uint32_t>(args.GetInt("mc", 200));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 50));
  const std::size_t candidates =
      static_cast<std::size_t>(args.GetInt("candidates", 200));
  const uint32_t evals = static_cast<uint32_t>(args.GetInt("evals", 10));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_spread.json");
  if (nodes == 0 || snapshots == 0 || mc == 0 || k == 0 || candidates < k ||
      evals == 0) {
    return Status::InvalidArgument(
        "--nodes/--snapshots/--mc/--k/--evals must be positive and "
        "--candidates >= --k");
  }

  HOLIM_ASSIGN_OR_RETURN(Graph graph, GenerateBarabasiAlbert(nodes, 4, seed));
  InfluenceParams params = MakeWeightedCascade(graph);
  std::printf("graph: n=%u m=%llu, WC weights, R=%u snapshots, mc=%u\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), snapshots,
              mc);

  ThreadPool single(1);
  McOptions mc_options;
  mc_options.num_simulations = mc;
  mc_options.seed = seed;
  mc_options.pool = &single;

  // ---- arena: sampling cost + deterministic memory -----------------------
  Timer sample_timer;
  SketchOptions sketch_options;
  sketch_options.num_snapshots = snapshots;
  sketch_options.seed = seed;
  SketchOracle oracle(graph, params, sketch_options);
  const double sample_seconds = sample_timer.ElapsedSeconds();
  const double arena_bytes_per_snapshot =
      static_cast<double>(oracle.ArenaBytes()) / snapshots;
  std::printf("arena: %.1f MiB total, %.0f bytes/snapshot, sampled in "
              "%.3fs\n",
              MemoryMeter::ToMiB(oracle.ArenaBytes()),
              arena_bytes_per_snapshot, sample_seconds);

  // ---- one-shot evaluation throughput: sketch vs MC ----------------------
  const std::vector<NodeId> eval_seeds = TopDegreeNodes(graph, k);
  double mc_oneshot_seconds = 0.0, sketch_oneshot_seconds = 0.0;
  double mc_value = 0.0, sketch_value = 0.0;
  {
    Timer t;
    for (uint32_t i = 0; i < evals; ++i) {
      mc_value = EstimateSpread(graph, params, eval_seeds, mc_options);
    }
    mc_oneshot_seconds = t.ElapsedSeconds();
  }
  {
    Timer t;
    for (uint32_t i = 0; i < evals; ++i) {
      sketch_value = oracle.Estimate(eval_seeds);
    }
    sketch_oneshot_seconds = t.ElapsedSeconds();
  }
  const double eval_throughput_ratio =
      mc_oneshot_seconds / sketch_oneshot_seconds;
  std::printf("\none_shot_eval (k=%u seeds, %u evals each):\n"
              "  MC          %.4fs (sigma %.1f)\n"
              "  sketch      %.4fs (sigma %.1f)  -> %.2fx throughput\n",
              k, evals, mc_oneshot_seconds, mc_value, sketch_oneshot_seconds,
              sketch_value, eval_throughput_ratio);

  // ---- CELF: MC vs one-shot sketch vs incremental session ----------------
  const std::vector<NodeId> pool = TopDegreeNodes(graph, candidates);
  std::vector<NodeId> trial;

  // The per-candidate MC path: every marginal gain re-simulates mc fresh
  // cascades from the whole trial set S + u. The committed value is
  // maintained CELF-style (sum of selected gains) — no extra evaluations.
  CelfRun mc_run;
  {
    std::vector<NodeId> committed;
    double committed_value = 0.0;
    mc_run = RunCelf(
        pool, k,
        [&](NodeId u) {
          trial = committed;
          trial.push_back(u);
          return EstimateSpread(graph, params, trial, mc_options) -
                 committed_value;
        },
        [&](NodeId u, double gain) {
          committed.push_back(u);
          committed_value += gain;
        });
  }

  // One-shot sketch: the frozen worlds remove estimator noise, but every
  // gain still re-walks reach(S + u) from scratch.
  CelfRun oneshot_run;
  {
    std::vector<NodeId> committed;
    double committed_value = 0.0;
    oneshot_run = RunCelf(
        pool, k,
        [&](NodeId u) {
          trial = committed;
          trial.push_back(u);
          return oracle.Estimate(trial) - committed_value;
        },
        [&](NodeId u, double gain) {
          committed.push_back(u);
          committed_value += gain;
        });
  }

  // Incremental session: activate-once across the whole k-round run.
  CelfRun session_run;
  {
    SketchOracle::Session session(oracle);
    session_run =
        RunCelf(pool, k, [&](NodeId u) { return session.MarginalGain(u); },
                [&](NodeId u, double) { session.Commit(u); });
  }
  // The acceptance contract, verified outside the timed loops: a session
  // replaying the selected seeds has, after every commit, a spread
  // bitwise equal to one-shot Estimate on the same prefix.
  {
    SketchOracle::Session replay(oracle);
    std::vector<NodeId> prefix;
    for (NodeId u : session_run.seeds) {
      replay.Commit(u);
      prefix.push_back(u);
      HOLIM_CHECK(replay.Spread() == oracle.Estimate(prefix))
          << "session/one-shot divergence at round " << prefix.size();
    }
  }
  HOLIM_CHECK(session_run.seeds == oneshot_run.seeds)
      << "incremental session CELF picked different seeds than one-shot "
         "sketch CELF";

  const double celf_speedup_vs_mc = mc_run.seconds / session_run.seconds;
  const double incremental_vs_oneshot_speedup =
      oneshot_run.seconds / session_run.seconds;
  std::printf(
      "\ncelf (k=%u over top-%zu-degree candidates):\n"
      "  MC oracle         %.4fs  (%llu evaluations)\n"
      "  one-shot sketch   %.4fs  (%llu evaluations)\n"
      "  session           %.4fs  (%llu evaluations)\n"
      "  session vs MC %.2fx, vs one-shot %.2fx\n",
      k, pool.size(), mc_run.seconds,
      static_cast<unsigned long long>(mc_run.evaluations),
      oneshot_run.seconds,
      static_cast<unsigned long long>(oneshot_run.evaluations),
      session_run.seconds,
      static_cast<unsigned long long>(session_run.evaluations),
      celf_speedup_vs_mc, incremental_vs_oneshot_speedup);

  // ---- spread parity vs MC (deterministic) -------------------------------
  // The old `seeds_match_mc` flag was misleading: the seed LISTS routinely
  // differ (the MC oracle hill-climbs noisy estimates), which says nothing
  // about seed QUALITY. Judge both seed sets under the same fixed-seed MC
  // estimator instead: parity = MC-spread(sketch seeds) / MC-spread(MC
  // seeds). ~1.0 means the sketch oracle picks seeds as good as the
  // MC-driven greedy; deterministic because mc_options.seed is fixed.
  const double mc_sigma_sketch_seeds =
      EstimateSpread(graph, params, session_run.seeds, mc_options);
  const double mc_sigma_mc_seeds =
      EstimateSpread(graph, params, mc_run.seeds, mc_options);
  const double spread_parity_vs_mc = mc_sigma_sketch_seeds / mc_sigma_mc_seeds;
  std::printf("\nspread_parity_vs_mc: MC-sigma(sketch seeds) %.1f / "
              "MC-sigma(MC seeds) %.1f = %.4f\n",
              mc_sigma_sketch_seeds, mc_sigma_mc_seeds, spread_parity_vs_mc);

  // ---- session work ratio (deterministic) --------------------------------
  // Nodes touched when evaluating the k growing prefixes of the session's
  // seeds one-shot (re-walking reach(S_j) per prefix) versus the
  // activate-once session (every (snapshot, node) pair at most once).
  // Derived from integer reach counts, so it is exactly reproducible.
  int64_t oneshot_prefix_touched = 0;
  int64_t session_touched = 0;
  {
    std::vector<NodeId> prefix;
    for (uint32_t j = 0; j < k; ++j) {
      prefix.push_back(session_run.seeds[j]);
      const double sigma = oracle.Estimate(prefix);
      oneshot_prefix_touched +=
          std::llround(sigma * snapshots) +
          static_cast<int64_t>(snapshots) * static_cast<int64_t>(prefix.size());
    }
    SketchOracle::Session session(oracle);
    for (NodeId u : session_run.seeds) session.Commit(u);
    session_touched = session.total_activated();
  }
  const double session_work_ratio =
      static_cast<double>(oneshot_prefix_touched) /
      static_cast<double>(session_touched);
  std::printf("\nsession_work_ratio: %lld one-shot prefix touches vs %lld "
              "session touches = %.2fx less exploration\n",
              static_cast<long long>(oneshot_prefix_touched),
              static_cast<long long>(session_touched), session_work_ratio);

  // ---- JSON --------------------------------------------------------------
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + json_path);
  std::fprintf(
      f,
      "{\n  \"bench\": \"spread_oracle\",\n  \"nodes\": %u,\n"
      "  \"edges\": %llu,\n  \"model\": \"WC\",\n  \"snapshots\": %u,\n"
      "  \"mc\": %u,\n  \"k\": %u,\n  \"candidates\": %zu,\n"
      "  \"seed\": %llu,\n"
      "  \"arena\": {\n    \"bytes\": %zu,\n"
      "    \"bytes_per_snapshot\": %.1f,\n    \"sample_seconds\": %.6f\n"
      "  },\n"
      "  \"one_shot_eval\": {\n    \"evals\": %u,\n"
      "    \"mc_seconds\": %.6f,\n    \"sketch_seconds\": %.6f,\n"
      "    \"eval_throughput_ratio\": %.4f\n  },\n"
      "  \"session\": {\n    \"oneshot_prefix_touched\": %lld,\n"
      "    \"session_touched\": %lld,\n"
      "    \"session_work_ratio\": %.4f\n  },\n"
      "  \"celf\": {\n    \"mc_seconds\": %.6f,\n"
      "    \"oneshot_seconds\": %.6f,\n"
      "    \"incremental_seconds\": %.6f,\n"
      "    \"celf_speedup_vs_mc\": %.4f,\n"
      "    \"incremental_vs_oneshot_speedup\": %.4f,\n"
      "    \"spread_parity_vs_mc\": %.4f\n  }\n}\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      snapshots, mc, k, pool.size(), static_cast<unsigned long long>(seed),
      oracle.ArenaBytes(), arena_bytes_per_snapshot, sample_seconds, evals,
      mc_oneshot_seconds, sketch_oneshot_seconds, eval_throughput_ratio,
      static_cast<long long>(oneshot_prefix_touched),
      static_cast<long long>(session_touched), session_work_ratio,
      mc_run.seconds, oneshot_run.seconds, session_run.seconds,
      celf_speedup_vs_mc, incremental_vs_oneshot_speedup,
      spread_parity_vs_mc);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(
      argc, argv,
      "Spread-oracle microbenchmark (sketch vs Monte-Carlo, single-thread)",
      Run, [](BenchArgs* args) {
        args->Declare("nodes", "graph size (default 100000)");
        args->Declare("snapshots",
                      "sketch-oracle live-edge worlds R (default 200)");
        args->Declare("k", "CELF seeds (default 50)");
        args->Declare("candidates",
                      "top-degree CELF candidate pool (default 200; the "
                      "per-candidate MC leg dominates the bench runtime)");
        args->Declare("evals",
                      "repetitions of the one-shot evaluation timing "
                      "(default 10)");
        args->Declare("json",
                      "output JSON path (default BENCH_spread.json)");
      });
}
