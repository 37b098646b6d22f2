// Streaming-delta microbenchmark: a churn sequence of random 64-op edge
// batches on a Barabasi-Albert graph, served two ways per batch —
// INCREMENTAL (HolimEngine::ApplyDelta patches the cached sketch arena in
// place, then a warm re-solve) versus REBUILD (a fresh engine on the
// mutated graph pays full sampling before the same solve). Emits
// BENCH_streaming.json; the CI bench-gate
// (tools/check_bench_regression.py, "streaming" dispatch) fails the job
// when the incremental speedup drops below the absolute floor or
// regresses against the committed baseline.
//
// Per-step parity is HOLIM_CHECKed: the warm post-delta solve must pick
// bitwise-identical seeds and spread to the cold rebuild — the streaming
// layer's correctness contract, enforced in the timing harness itself.
//
// The solve uses a cheap selector (degreediscount) on purpose: selector
// state is evicted on every delta either way, so a heavyweight selector
// would just dilute the artifact-maintenance comparison this bench
// isolates (sketch resampling is the dominant rebuild cost in the
// many-queries-per-epoch serving shape; see micro_engine.cc).
//
// The model is sparse uniform IC on purpose. The sketch patch is
// row-granular (only touched sources resample), so it absorbs bulk 64-op
// batches; under IC sampling pays the full m * R RNG draws but the live
// arenas stay thin (under WC the live-edge mass is ~n per snapshot by
// construction, so arena splicing would shadow the sampling saving).
//
// Single-thread on purpose: both engines run at threads=0, which samples
// and patches sketch arenas serially, so the speedup is a ratio of
// single-thread times.

#include <cstdio>
#include <string>

#include "bench_support/engine_support.h"
#include "common.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "util/timer.h"

using namespace holim;

namespace {

Status Run(const BenchArgs& args) {
  const NodeId nodes = static_cast<NodeId>(args.GetInt("nodes", 30000));
  const uint32_t snapshots =
      static_cast<uint32_t>(args.GetInt("snapshots", 256));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 50));
  const std::size_t batches =
      static_cast<std::size_t>(args.GetInt("batches", 8));
  const std::size_t ops = static_cast<std::size_t>(args.GetInt("ops", 64));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path =
      args.GetString("json", "BENCH_streaming.json");
  if (nodes == 0 || snapshots == 0 || k == 0 || batches == 0 || ops == 0) {
    return Status::InvalidArgument(
        "--nodes/--snapshots/--k/--batches/--ops must be positive");
  }

  const double p = args.GetDouble("p", 0.005);
  HOLIM_ASSIGN_OR_RETURN(Graph base, GenerateBarabasiAlbert(nodes, 16, seed));
  InfluenceParams current = MakeUniformIc(base, p);
  std::printf("graph: n=%u m=%llu, R=%u snapshots, %zu batches x %zu ops "
              "IC(p=%g), k=%u\n",
              base.num_nodes(),
              static_cast<unsigned long long>(base.num_edges()), snapshots,
              batches, ops, p, k);

  HolimEngine engine(base);
  auto make_request = [&](const InfluenceParams& params) {
    SolveRequest request;
    request.algorithm = "degreediscount";
    request.k = k;
    request.params = &params;
    request.mc = snapshots;
    request.seed = seed;
    request.oracle = SpreadOracle::kSketch;
    request.num_sketches = snapshots;
    request.evaluate_spread = true;
    return request;
  };

  // Prime the warm engine: the initial solve builds the sketch arena the
  // incremental leg will keep patching (untimed — both legs start from a
  // served epoch-0 state).
  {
    const SolveRequest request = make_request(current);
    HOLIM_ASSIGN_OR_RETURN(SolveResult primed, engine.Solve(request));
    std::printf("epoch 0 primed: spread %.2f, workspace %zu artifact(s)\n",
                primed.spread, engine.workspace().num_artifacts());
  }

  Rng churn(seed + 0x5EEDC0DEULL);
  double inc_solve_seconds = 0.0, rebuild_solve_seconds = 0.0;
  std::size_t patched_total = 0, evicted_total = 0;
  for (std::size_t step = 0; step < batches; ++step) {
    const GraphDelta delta = MakeRandomDelta(engine.graph(), ops, churn);

    // Incremental: patch artifacts, re-solve warm.
    Timer inc_timer;
    HOLIM_ASSIGN_OR_RETURN(HolimEngine::DeltaReport report,
                           engine.ApplyDelta(delta, current));
    current = std::move(report.params);
    const SolveRequest request = make_request(current);
    HOLIM_ASSIGN_OR_RETURN(SolveResult warm, engine.Solve(request));
    const double inc_step = inc_timer.ElapsedSeconds();
    inc_solve_seconds += inc_step;
    patched_total += report.patched_sketches;
    evicted_total += report.evicted_artifacts;

    // Rebuild: fresh engine on the same mutated graph, full sampling.
    Timer rebuild_timer;
    HolimEngine cold_engine(engine.graph());
    HOLIM_ASSIGN_OR_RETURN(SolveResult cold, cold_engine.Solve(request));
    const double rebuild_step = rebuild_timer.ElapsedSeconds();
    rebuild_solve_seconds += rebuild_step;

    HOLIM_CHECK(warm.seeds == cold.seeds)
        << "warm/cold seed divergence at step " << step;
    HOLIM_CHECK(warm.spread == cold.spread)
        << "warm/cold spread divergence at step " << step;
    HOLIM_CHECK(warm.sketch_arena_bytes == cold.sketch_arena_bytes)
        << "warm/cold arena-bytes divergence at step " << step;

    std::printf("step %zu: epoch=%llu +%zu/-%zu/~%zu  solve %.3fs inc vs "
                "%.3fs rebuild (warm artifact %.3fs select %.3fs eval "
                "%.3fs)\n",
                step, static_cast<unsigned long long>(report.epoch),
                report.inserted, report.removed, report.reweighted, inc_step,
                rebuild_step, warm.artifact_seconds, warm.select_seconds,
                warm.spread_seconds);
  }

  const double solve_speedup = rebuild_solve_seconds / inc_solve_seconds;
  std::printf("\nchurn totals (%zu batches):\n"
              "  solve: incremental %.3fs, rebuild %.3fs -> %.2fx\n"
              "  artifacts: %zu patched, %zu evicted\n",
              batches, inc_solve_seconds, rebuild_solve_seconds,
              solve_speedup, patched_total, evicted_total);

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + json_path);
  std::fprintf(
      f,
      "{\n  \"bench\": \"streaming\",\n  \"nodes\": %u,\n"
      "  \"edges\": %llu,\n  \"model\": \"IC\",\n  \"p\": %g,\n"
      "  \"snapshots\": %u,\n"
      "  \"k\": %u,\n  \"batches\": %zu,\n  \"ops_per_batch\": %zu,\n"
      "  \"seed\": %llu,\n  \"algorithm\": \"degreediscount\",\n"
      "  \"solve\": {\n    \"incremental_seconds\": %.6f,\n"
      "    \"rebuild_seconds\": %.6f,\n    \"speedup\": %.4f,\n"
      "    \"parity\": true\n  },\n"
      "  \"artifacts\": {\n    \"patched\": %zu,\n    \"evicted\": %zu\n"
      "  }\n}\n",
      base.num_nodes(), static_cast<unsigned long long>(base.num_edges()), p,
      snapshots, k, batches, ops, static_cast<unsigned long long>(seed),
      inc_solve_seconds, rebuild_solve_seconds, solve_speedup, patched_total,
      evicted_total);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(
      argc, argv,
      "Streaming-delta microbenchmark (incremental artifacts vs rebuild)",
      Run, [](BenchArgs* args) {
        args->Declare("nodes", "graph size (default 30000)");
        args->Declare("p",
                      "uniform IC probability of the solve leg (default "
                      "0.005; sparse on purpose — see header comment)");
        args->Declare("snapshots",
                      "sketch-oracle live-edge worlds R (default 256)");
        args->Declare("k", "seeds per re-solve (default 50)");
        args->Declare("batches", "churn batches (default 8)");
        args->Declare("ops", "edge ops per batch (default 64)");
        args->Declare("json",
                      "output JSON path (default BENCH_streaming.json)");
      });
}
