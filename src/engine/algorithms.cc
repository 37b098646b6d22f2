// Built-in algorithm registrations for HolimEngine — the one place that
// maps registry names onto selector constructions. Every factory uses the
// same options the historical per-binary dispatch code used, so an engine
// solve is bitwise-identical to the direct construction it replaced (the
// parity suite in tests/engine_test.cc pins this per entry).
//
// NOTE for tools/check_docs.py: registrations follow the fixed
//   info.name = "<canonical>";  info.aliases = {"<alias>", ...};
// shape — the docs gate greps these to keep README's registry table in
// sync. Keep the shape when adding algorithms.

#include <memory>
#include <utility>

#include "algo/asim.h"
#include "algo/celf.h"
#include "algo/greedy.h"
#include "algo/heuristics.h"
#include "algo/imm.h"
#include "algo/imrank.h"
#include "algo/irie.h"
#include "algo/path_union.h"
#include "algo/score_greedy.h"
#include "algo/simpath.h"
#include "algo/static_greedy.h"
#include "algo/tim_plus.h"
#include "engine/registry.h"

namespace holim {

namespace {

ScoreGreedyOptions MakeScoreGreedyOptions(const SolveContext& ctx) {
  ScoreGreedyOptions options;
  options.incremental_rescore = ctx.request.incremental_rescore;
  options.pool = ctx.pool;
  return options;
}

/// The objective GREEDY/CELF/CELF++ hill-climb, chosen exactly as
/// holim_cli's legacy dispatch did: sketch oracle (plain spread only) >
/// effective-opinion > plain Monte-Carlo spread.
Result<std::shared_ptr<McObjective>> MakeMcObjective(const SolveContext& ctx) {
  const SolveRequest& r = ctx.request;
  if (r.oracle == SpreadOracle::kSketch) {
    if (r.opinions != nullptr) {
      return Status::InvalidArgument(
          "oracle=sketch supports the plain spread objective only; drop the "
          "opinion layer or use oracle=mc");
    }
    SketchOptions options;
    options.num_snapshots = r.EffectiveSketchCount();
    options.seed = r.seed;
    options.pool = ctx.pool;
    options.deadline = ctx.deadline;
    HOLIM_ASSIGN_OR_RETURN(
        std::shared_ptr<const SketchOracle> sketch,
        ctx.workspace.GetSketchOracleChecked(ctx.graph, *r.params, options,
                                             ctx.graph_token));
    // Targeted queries hill-climb the weighted objective sigma_w; the
    // objective copies the weights so the cached selector never dangles
    // into a caller-owned request vector.
    std::vector<double> weights =
        r.query == QueryKind::kTargeted ? r.target_weights
                                        : std::vector<double>{};
    return std::shared_ptr<McObjective>(std::make_shared<SketchSpreadObjective>(
        std::move(sketch), /*use_session=*/true, std::move(weights)));
  }
  McOptions mc;
  mc.num_simulations = r.mc;
  mc.seed = r.seed;
  mc.deadline = ctx.deadline;
  if (r.opinions != nullptr) {
    return std::shared_ptr<McObjective>(
        std::make_shared<EffectiveOpinionObjective>(
            ctx.graph, *r.params, *r.opinions, r.oi_base, r.lambda, mc));
  }
  return std::shared_ptr<McObjective>(
      std::make_shared<SpreadObjective>(ctx.graph, *r.params, mc));
}

using SelectorResult = Result<std::unique_ptr<SeedSelector>>;

/// Capability mask of the hill-climbing selectors: on top of the base
/// kinds they answer budgeted queries (benefit-per-cost lazy greedy) and
/// targeted queries (weighted sketch objective).
constexpr uint32_t kHillClimbQueries = kBaseQueries |
                                       QueryBit(QueryKind::kBudgeted) |
                                       QueryBit(QueryKind::kTargeted);

}  // namespace

void RegisterBuiltinAlgorithms(AlgorithmRegistry& registry) {
  {
    AlgorithmInfo info;
    info.name = "easyim";
    info.models = "IC, WC, LT";
    info.artifacts = "score-sweep scratch + incremental level table";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(std::make_unique<EasyImSelector>(
          ctx.graph, *ctx.request.params, ctx.request.l,
          MakeScoreGreedyOptions(ctx)));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "osim";
    info.models = "OI over IC or LT base";
    info.artifacts = "score-sweep scratch + incremental level table";
    info.needs_opinions = true;
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(std::make_unique<OsimSelector>(
          ctx.graph, *ctx.request.params, *ctx.request.opinions,
          ctx.request.oi_base, ctx.request.l, MakeScoreGreedyOptions(ctx)));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "greedy";
    info.models = "IC, WC, LT (+ opinion objective)";
    info.artifacts = "sketch-oracle arena (oracle=sketch)";
    info.supported_queries = kHillClimbQueries;
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      HOLIM_ASSIGN_OR_RETURN(std::shared_ptr<McObjective> objective,
                             MakeMcObjective(ctx));
      return std::unique_ptr<SeedSelector>(
          std::make_unique<GreedySelector>(ctx.graph, std::move(objective)));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "celf";
    info.models = "IC, WC, LT (+ opinion objective)";
    info.artifacts = "sketch-oracle arena (oracle=sketch)";
    info.supported_queries = kHillClimbQueries;
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      HOLIM_ASSIGN_OR_RETURN(std::shared_ptr<McObjective> objective,
                             MakeMcObjective(ctx));
      return std::unique_ptr<SeedSelector>(std::make_unique<CelfSelector>(
          ctx.graph, std::move(objective), /*plus_plus=*/false, "CELF"));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "celf++";
    info.aliases = {"celfpp"};
    info.models = "IC, WC, LT (+ opinion objective)";
    info.artifacts = "sketch-oracle arena (oracle=sketch)";
    info.supported_queries = kHillClimbQueries;
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      HOLIM_ASSIGN_OR_RETURN(std::shared_ptr<McObjective> objective,
                             MakeMcObjective(ctx));
      return std::unique_ptr<SeedSelector>(std::make_unique<CelfSelector>(
          ctx.graph, std::move(objective), /*plus_plus=*/true, "CELF++"));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "tim+";
    info.aliases = {"tim"};
    info.models = "IC, WC, LT";
    info.artifacts = "RR arena (transient per solve)";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      TimPlusOptions options;
      options.epsilon = ctx.request.epsilon;
      options.max_theta = ctx.request.max_theta;
      options.pool = ctx.pool;
      return std::unique_ptr<SeedSelector>(std::make_unique<TimPlusSelector>(
          ctx.graph, *ctx.request.params, options));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "imm";
    info.models = "IC, WC, LT";
    info.artifacts = "RR arena (transient per solve)";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      ImmOptions options;
      options.epsilon = ctx.request.epsilon;
      options.max_theta = ctx.request.max_theta;
      options.pool = ctx.pool;
      return std::unique_ptr<SeedSelector>(std::make_unique<ImmSelector>(
          ctx.graph, *ctx.request.params, options));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "irie";
    info.models = "IC, WC";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<IrieSelector>(ctx.graph, *ctx.request.params));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "simpath";
    info.models = "LT";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<SimpathSelector>(ctx.graph, *ctx.request.params));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "imrank";
    info.models = "IC, WC";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<ImRankSelector>(ctx.graph, *ctx.request.params));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "static-greedy";
    info.aliases = {"staticgreedy"};
    info.models = "IC, WC, LT";
    info.artifacts = "live-edge snapshot sample";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      StaticGreedyOptions options;
      options.num_snapshots = ctx.request.num_snapshots;
      return std::unique_ptr<SeedSelector>(
          std::make_unique<StaticGreedySelector>(ctx.graph,
                                                 *ctx.request.params,
                                                 options));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "asim";
    info.models = "IC, WC, LT (probability-blind)";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      AsimOptions options;
      options.l = ctx.request.l;
      return std::unique_ptr<SeedSelector>(std::make_unique<AsimSelector>(
          ctx.graph, *ctx.request.params, options));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "path-union";
    info.aliases = {"pathunion"};
    info.models = "IC, WC, LT (dense; n <= 4096)";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<PathUnionSelector>(ctx.graph, *ctx.request.params,
                                              ctx.request.l));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "degree";
    info.models = "model-free";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<DegreeSelector>(ctx.graph));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "singlediscount";
    info.models = "model-free";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<SingleDiscountSelector>(ctx.graph));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "degreediscount";
    info.models = "IC (uniform p)";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<DegreeDiscountSelector>(ctx.graph,
                                                   ctx.request.p));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "pagerank";
    info.models = "model-free";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<PageRankSelector>(ctx.graph));
    };
    registry.Register(std::move(info));
  }
  {
    AlgorithmInfo info;
    info.name = "random";
    info.models = "model-free";
    info.artifacts = "none";
    info.factory = [](const SolveContext& ctx) -> SelectorResult {
      return std::unique_ptr<SeedSelector>(
          std::make_unique<RandomSelector>(ctx.graph, ctx.request.seed));
    };
    registry.Register(std::move(info));
  }
}

}  // namespace holim
