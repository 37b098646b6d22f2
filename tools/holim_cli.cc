// holim_cli — run any registered seed-selection algorithm on any dataset
// (synthetic stand-in or a real SNAP edge list) and report seeds, spread,
// time, memory. All dispatch goes through HolimEngine: `--algo` accepts
// any registry name or alias, and `--list-algorithms` prints the registry.
//
// Examples:
//   holim_cli --list-algorithms
//   holim_cli --algo=easyim --dataset=NetHEPT --scale=0.2 --model=IC --k=50
//   holim_cli --algo=osim --dataset=HepPh --opinions=normal --lambda=1 --k=25
//   holim_cli --algo=tim+ --edge_list=/data/soc-LiveJournal1.txt --k=100
//   holim_cli --algo=celf++ --dataset=NetHEPT --scale=0.01 --mc=100 --k=10
//
// Query family (--query; default topk is byte-identical to the old CLI):
//   holim_cli --algo=celf --oracle=sketch --query=budgeted --budget=12 \
//             --costs=degree --k=20
//   holim_cli --algo=celf --oracle=sketch --query=targeted \
//             --targets=twitter-topic:2 --k=10
//   holim_cli --algo=celf --oracle=sketch --query=evaluate --seeds=3,17,42
//   holim_cli --algo=celf --oracle=sketch --query=explain --seeds=3,17,42

#include <cstdio>
#include <limits>

#include "bench_support/bench_main.h"
#include "bench_support/engine_support.h"
#include "bench_support/query_support.h"
#include "data/datasets.h"
#include "diffusion/spread_estimator.h"
#include "engine/holim_engine.h"
#include "graph/edge_list_io.h"
#include "graph/stats.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace holim {
namespace {

Result<InfluenceParams> MakeParams(const Graph& graph,
                                   const std::string& model, double p) {
  if (model == "IC") return MakeUniformIc(graph, p);
  if (model == "WC") return MakeWeightedCascade(graph);
  if (model == "LT") return MakeLinearThreshold(graph);
  return Status::InvalidArgument("unknown --model (IC|WC|LT): " + model);
}

void PrintRegistry() {
  std::printf("%-16s %-13s %-36s %-38s %-12s %s\n", "name", "aliases",
              "models", "queries", "prefix-memo", "cached artifacts");
  for (const AlgorithmInfo* info : HolimEngine::Registry().List()) {
    std::string aliases;
    for (const std::string& alias : info->aliases) {
      if (!aliases.empty()) aliases += ",";
      aliases += alias;
    }
    if (aliases.empty()) aliases = "-";
    std::printf("%-16s %-13s %-36s %-38s %-12s %s\n", info->name.c_str(),
                aliases.c_str(), info->models.c_str(),
                QueryMaskNames(info->supported_queries).c_str(),
                info->prefix_nested ? "yes" : "-", info->artifacts.c_str());
  }
}

Status Run(const BenchArgs& args) {
  if (args.GetBool("list-algorithms", false)) {
    PrintRegistry();
    return Status::OK();
  }
  auto config = ReadCommonConfig(args);
  const int64_t simulations = args.GetInt("mc", config.mc);
  if (simulations < 0 ||
      simulations > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "--mc must be a non-negative simulation count, got: " +
        std::to_string(simulations));
  }
  const int64_t path_length = args.GetInt("l", 3);
  if (path_length < 1 ||
      path_length > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "--l must be a path length in [1, 2^32 - 1], got: " +
        std::to_string(path_length));
  }
  const CommonOptionsSpec spec{/*oracle=*/true,
                               /*rescore_default=*/"incremental",
                               /*threads=*/true, /*query=*/true};
  HOLIM_ASSIGN_OR_RETURN(CommonOptions common,
                         ParseCommonOptions(args, spec));
  const std::string algo = args.GetString("algo", "easyim");
  const std::string model_name = args.GetString("model", "IC");
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 50));
  const double lambda = args.GetDouble("lambda", 1.0);

  // Load the graph: real edge list beats synthetic stand-in when given.
  // load_seconds covers the load, the influence params and the stats line.
  const Timer load_timer;
  Graph graph;
  const std::string edge_list = args.GetString("edge_list", "");
  if (!edge_list.empty()) {
    EdgeListOptions io;
    io.undirected = args.GetBool("undirected", false);
    HOLIM_ASSIGN_OR_RETURN(graph, ReadEdgeList(edge_list, io));
  } else {
    HOLIM_ASSIGN_OR_RETURN(
        graph, LoadSyntheticDataset(args.GetString("dataset", "NetHEPT"),
                                    config.scale));
  }
  HOLIM_ASSIGN_OR_RETURN(InfluenceParams params,
                         MakeParams(graph, model_name,
                                    args.GetDouble("p", 0.1)));
  auto stats = ComputeGraphStats(graph, 8, config.seed);
  const double load_seconds = load_timer.ElapsedSeconds();
  std::printf("graph: n=%u m=%llu avg_deg=%.2f eff_diam90=%.1f model=%s\n",
              stats.num_nodes,
              static_cast<unsigned long long>(stats.num_edges),
              stats.avg_out_degree, stats.effective_diameter_90,
              model_name.c_str());

  // Optional opinion layer.
  const std::string opinions_kind = args.GetString("opinions", "");
  OpinionParams opinions;
  const bool opinion_aware = !opinions_kind.empty();
  if (opinion_aware) {
    if (opinions_kind == "uniform") {
      opinions = MakeRandomOpinions(graph, OpinionDistribution::kUniform,
                                    config.seed);
    } else if (opinions_kind == "normal") {
      opinions = MakeRandomOpinions(
          graph, OpinionDistribution::kStandardNormal, config.seed);
    } else {
      return Status::InvalidArgument(
          "unknown --opinions (uniform|normal): " + opinions_kind);
    }
  }

  const int64_t sketches = args.GetInt("sketches", 0);
  if (sketches < 0 || sketches > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "--sketches must be a positive snapshot count, got: " +
        std::to_string(sketches));
  }
  const double cache_mib = args.GetDouble("max-cache-mib", 0.0);
  if (cache_mib < 0) {
    return Status::InvalidArgument("--max-cache-mib must be >= 0");
  }

  // Deadline knobs. With none of them set the request carries no deadline
  // and the solve path (and output) is byte-identical to the old CLI.
  const double deadline_ms = args.GetDouble("deadline-ms", 0.0);
  const int64_t work_budget = args.GetInt("work-budget", 0);
  if (work_budget < 0) {
    return Status::InvalidArgument("--work-budget must be >= 0");
  }
  const std::string on_deadline = args.GetString("on-deadline", "degrade");
  OnDeadline deadline_policy;
  if (on_deadline == "degrade") {
    deadline_policy = OnDeadline::kDegrade;
  } else if (on_deadline == "fail") {
    deadline_policy = OnDeadline::kFail;
  } else {
    return Status::InvalidArgument(
        "unknown --on-deadline (fail|degrade): " + on_deadline);
  }

  EngineOptions engine_options;
  engine_options.max_cache_bytes =
      static_cast<std::size_t>(cache_mib * 1024.0 * 1024.0);
  HolimEngine engine(graph, engine_options);

  SolveRequest request = MakeSolveRequest(algo, k, params, config, common);
  request.opinions = opinion_aware ? &opinions : nullptr;
  request.oi_base = model_name == "LT" ? OiBase::kLinearThreshold
                                       : OiBase::kIndependentCascade;
  request.lambda = lambda;
  request.l = static_cast<uint32_t>(path_length);
  request.epsilon = args.GetDouble("epsilon", 0.1);
  request.max_theta =
      static_cast<std::size_t>(args.GetInt("max_theta", 2'000'000));
  request.p = args.GetDouble("p", 0.1);
  request.num_sketches = static_cast<uint32_t>(sketches);
  // StaticGreedy's worlds are the same arena: an explicit R sets both.
  if (sketches != 0) request.num_snapshots = request.num_sketches;
  request.evaluate_spread = request.oracle == SpreadOracle::kSketch;
  request.deadline_ms = deadline_ms;
  request.work_budget = static_cast<uint64_t>(work_budget);
  request.on_deadline = deadline_policy;

  // Query-family materialization: graph-dependent vectors from the raw
  // --costs/--targets/--seeds specs.
  HOLIM_ASSIGN_OR_RETURN(request.node_costs,
                         MaterializeCosts(common.costs_spec, graph));
  HOLIM_ASSIGN_OR_RETURN(
      request.target_weights,
      MaterializeTargets(common.targets_spec, graph, config.seed));
  if (!common.seeds_spec.empty()) {
    HOLIM_ASSIGN_OR_RETURN(request.given_seeds,
                           ParseSeedList(common.seeds_spec, graph));
  }

  HOLIM_ASSIGN_OR_RETURN(SolveResult result, engine.Solve(request));
  if (args.GetBool("stats-json", false)) {
    // One machine-readable line, then exit: harnesses and CI smokes parse
    // this instead of sed-normalizing the human report. Keys with
    // nondeterministic values (the *_seconds timings) are grouped last so
    // a determinism check can split on "artifact_seconds".
    std::string seeds;
    for (std::size_t i = 0; i < result.seeds.size(); ++i) {
      if (i) seeds += ",";
      seeds += std::to_string(result.seeds[i]);
    }
    // The selector's own counters (SolveResult::stats), e.g. EaSyIM/OSIM
    // sweep work or TIM+/IMM theta: deterministic, so before the timings.
    std::string stats;
    for (const auto& [name, value] : result.stats) {
      char number[32];
      std::snprintf(number, sizeof(number), "%.17g", value);
      stats += (stats.empty() ? "\"" : ",\"") + name + "\":" + number;
    }
    std::printf(
        "{\"algorithm\":\"%s\",\"query\":\"%s\",\"k\":%u,"
        "\"seeds\":[%s],\"spread\":%.6f,\"tier\":\"%s\","
        "\"degraded\":%s,\"rounds_completed\":%u,"
        "\"warm_sketch\":%s,\"warm_selector\":%s,\"warm_answer\":%s,"
        "\"sketch_arena_bytes\":%zu,\"workspace_bytes\":%zu,"
        "\"stats\":{%s},"
        "\"artifact_seconds\":%.6f,\"select_seconds\":%.6f,"
        "\"spread_seconds\":%.6f,\"total_seconds\":%.6f,"
        "\"load_seconds\":%.6f}\n",
        result.algorithm.c_str(), QueryKindName(result.query), request.k,
        seeds.c_str(), result.spread, ResultTierName(result.tier),
        result.degraded ? "true" : "false", result.rounds_completed,
        result.warm_sketch ? "true" : "false",
        result.warm_selector ? "true" : "false",
        result.warm_answer ? "true" : "false", result.sketch_arena_bytes,
        result.workspace_bytes, stats.c_str(), result.artifact_seconds,
        result.select_seconds, result.spread_seconds, result.total_seconds,
        load_seconds);
    return Status::OK();
  }
  if (deadline_ms > 0.0 || work_budget > 0) {
    // One machine-greppable line whenever a deadline was requested (its
    // absence keeps the default output byte-identical).
    std::printf("deadline: degraded=%s tier=%s rounds_completed=%u%s%s\n",
                result.degraded ? "true" : "false",
                ResultTierName(result.tier), result.rounds_completed,
                result.degraded ? " reason=" : "",
                result.degraded ? result.degradation_reason.c_str() : "");
  }
  if (result.sketch_arena_bytes != 0) {
    std::printf("sketch oracle: %u live-edge snapshots, arena %s "
                "(capacity-based)\n",
                request.EffectiveSketchCount(),
                HumanBytes(result.sketch_arena_bytes).c_str());
  }

  if (request.query == QueryKind::kEvaluate ||
      request.query == QueryKind::kExplain) {
    std::printf("\n%s: scored %zu given seeds in %s\n",
                result.algorithm.c_str(), result.seeds.size(),
                HumanSeconds(result.spread_seconds).c_str());
  } else {
    std::printf("\n%s selected %zu seeds in %s (exec memory %s, scorer "
                "scratch %s)\n",
                result.algorithm.c_str(), result.seeds.size(),
                HumanSeconds(result.select_seconds).c_str(),
                HumanBytes(result.overhead_bytes).c_str(),
                HumanBytes(result.scratch_bytes).c_str());
  }
  std::printf("seeds:");
  for (std::size_t i = 0; i < result.seeds.size() && i < 20; ++i) {
    std::printf(" %u", result.seeds[i]);
  }
  if (result.seeds.size() > 20) std::printf(" ...");
  std::printf("\n");
  if (request.query == QueryKind::kBudgeted) {
    std::printf("budget: spent %.4g of %.4g (%s costs)\n",
                result.total_cost, request.budget,
                common.costs_spec.empty() ? "uniform"
                                          : common.costs_spec.c_str());
  }
  std::printf("\n");

  McOptions mc;
  mc.num_simulations = config.mc;
  mc.seed = config.seed;
  const double spread = EstimateSpread(graph, params, result.seeds, mc);
  std::printf("expected spread sigma(S): %.2f (%u MC simulations)\n", spread,
              mc.num_simulations);
  if (result.sketch_arena_bytes != 0) {
    std::printf("sketch spread estimate:   %.2f (%u snapshots)\n",
                result.spread, request.EffectiveSketchCount());
  }
  const bool weighted_query =
      !request.target_weights.empty() &&
      (request.query == QueryKind::kTargeted ||
       request.query == QueryKind::kEvaluate ||
       request.query == QueryKind::kExplain);
  if (weighted_query) {
    std::size_t members = 0;
    for (const double w : request.target_weights) {
      if (w != 0.0) ++members;
    }
    std::printf("targeted spread sigma_w(S): %.2f (%zu weighted targets)\n",
                result.targeted_spread, members);
  }
  if (request.query == QueryKind::kExplain) {
    std::printf("per-seed marginal contributions (given preceding seeds):\n");
    for (std::size_t i = 0; i < result.seeds.size(); ++i) {
      std::printf("  seed %-8u %+.4f\n", result.seeds[i],
                  result.seed_contributions[i]);
    }
  }
  if (opinion_aware) {
    const OiBase base = request.oi_base;
    auto estimate = EstimateOpinionSpread(graph, params, opinions, base,
                                          result.seeds, lambda, mc);
    std::printf("opinion spread:            %.2f\n",
                estimate.opinion_spread);
    std::printf("effective opinion spread:  %.2f (lambda=%.2f)\n",
                estimate.effective_opinion_spread, lambda);
  }
  std::printf("\nworkspace: %zu artifact(s), %s held (capacity-based)\n",
              engine.workspace().num_artifacts(),
              HumanBytes(engine.workspace().MemoryFootprintBytes()).c_str());

  // Streaming churn replay: N seeded random delta batches, re-solving the
  // same request warm after each. Deterministic for a fixed flag set — the
  // batches come from MakeRandomDelta under a seed-derived stream, and a
  // warm post-delta solve is pinned bitwise to a cold rebuild.
  const int64_t churn = args.GetInt("churn", 0);
  if (churn > 0) {
    if (opinion_aware) {
      return Status::InvalidArgument(
          "--churn replays the first-layer params only; drop --opinions");
    }
    constexpr std::size_t kOpsPerBatch = 64;
    std::printf("\nchurn replay: %lld batches x %zu ops\n",
                static_cast<long long>(churn), kOpsPerBatch);
    Rng churn_rng(config.seed + 0x5EEDC0DEULL);
    InfluenceParams current = std::move(params);
    for (int64_t step = 0; step < churn; ++step) {
      const GraphDelta delta =
          MakeRandomDelta(engine.graph(), kOpsPerBatch, churn_rng);
      HOLIM_ASSIGN_OR_RETURN(HolimEngine::DeltaReport report,
                             engine.ApplyDelta(delta, current));
      current = std::move(report.params);
      request.params = &current;
      HOLIM_ASSIGN_OR_RETURN(SolveResult step_result, engine.Solve(request));
      std::printf(
          "churn[%lld]: epoch=%llu +%zu/-%zu/~%zu patched=%zu evicted=%zu "
          "n=%u m=%llu seed0=%u spread=%.4f\n",
          static_cast<long long>(step),
          static_cast<unsigned long long>(report.epoch), report.inserted,
          report.removed, report.reweighted, report.patched_sketches,
          report.evicted_artifacts, engine.graph().num_nodes(),
          static_cast<unsigned long long>(engine.graph().num_edges()),
          step_result.seeds.empty() ? kInvalidNode : step_result.seeds[0],
          step_result.spread);
    }
    std::printf("post-churn workspace: %zu artifact(s), %s held\n",
                engine.workspace().num_artifacts(),
                HumanBytes(engine.workspace().MemoryFootprintBytes()).c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace holim

int main(int argc, char** argv) {
  return holim::BenchMain(
      argc, argv, "holim_cli — influence maximization toolbox", holim::Run,
      [](holim::BenchArgs* args) {
        args->Declare("algo",
                      "registered algorithm name or alias (default easyim; "
                      "see --list-algorithms)");
        args->Declare("list-algorithms",
                      "print the algorithm registry (name, aliases, models, "
                      "supported queries, cached artifacts) and exit");
        args->Declare("dataset",
                      "synthetic stand-in name (Table 2; default NetHEPT)");
        args->Declare("edge_list",
                      "path to a SNAP edge-list file (overrides --dataset)");
        args->Declare("undirected", "treat edge list rows as undirected");
        args->Declare("model", "diffusion model: IC | WC | LT (default IC)");
        args->Declare("p",
                      "uniform IC probability, also DegreeDiscount's p "
                      "(default 0.1)");
        args->Declare("k", "number of seeds (default 50)");
        args->Declare("l",
                      "EaSyIM/OSIM/ASIM/path-union path-length horizon "
                      "(default 3)");
        args->Declare("opinions",
                      "opinion layer: uniform | normal (required for osim; "
                      "switches greedy/celf to the opinion objective)");
        args->Declare("lambda", "negative-opinion penalty (default 1)");
        args->Declare("epsilon",
                      "TIM+/IMM approximation slack (default 0.1)");
        args->Declare("max_theta", "TIM+/IMM RR-set cap (default 2000000)");
        args->Declare("sketches",
                      "sketch-oracle snapshot count R (default: the --mc "
                      "value; only used with --oracle=sketch) and, when "
                      "given, static-greedy's world count (default 100)");
        args->Declare("churn",
                      "after the initial solve, apply N random 64-op delta "
                      "batches (seeded from --seed) and re-solve warm after "
                      "each, printing one deterministic line per step");
        args->Declare("max-cache-mib",
                      "engine Workspace artifact budget in MiB; LRU "
                      "eviction above it (default 0 = unlimited)");
        args->Declare("stats-json",
                      "after the solve, print ONE machine-readable JSON "
                      "result line (seeds, spread, tier, warm flags, "
                      "algorithm counters, timings) and exit — for "
                      "harnesses/CI instead of scraping the human output");
        args->Declare("deadline-ms",
                      "wall-clock solve deadline in milliseconds (default 0 "
                      "= none); see --on-deadline for what expiry does");
        args->Declare("work-budget",
                      "deterministic deadline in checkpoint ticks (default 0 "
                      "= none; overrides --deadline-ms): the solve stops at "
                      "the Nth cooperative checkpoint, reproducibly");
        args->Declare("on-deadline",
                      "deadline expiry policy: degrade (default; return "
                      "best-so-far prefix seeds or a heuristic tier, exit 0) "
                      "| fail (typed error, exit 9/10)");
        holim::DeclareCommonOptions(
            args, {/*oracle=*/true, /*rescore_default=*/"incremental",
                   /*threads=*/true, /*query=*/true});
      });
}
