// Figure 5c: opinion spread vs seeds on the Twitter background graph for
// seeds selected under OI (OSIM), OC, and IC (EaSyIM).

#include <memory>

#include "bench_support/engine_support.h"
#include "common.h"
#include "data/twitter.h"

using namespace holim;
using namespace holim::bench;

namespace {

constexpr CommonOptionsSpec kSpec{/*oracle=*/true};

Status Run(const BenchArgs& args) {
  auto config = ReadCommonConfig(args);
  HOLIM_ASSIGN_OR_RETURN(CommonOptions common,
                         ParseCommonOptions(args, kSpec));
  TwitterCorpusOptions options;
  options.num_users =
      static_cast<NodeId>(std::max(3000.0, 1'600'000 * config.scale * 0.1));
  options.num_topics = 6;
  options.seed = config.seed;
  HOLIM_ASSIGN_OR_RETURN(TwitterCorpus corpus, BuildTwitterCorpus(options));
  const Graph& bg = corpus.background;
  InfluenceParams influence = MakeUniformIc(bg, 0.12);
  InfluenceParams lt = MakeLinearThreshold(bg);

  // All three selections run through one engine on the background graph.
  // phi_one precedes the engine: cached selectors reference it, so it
  // must outlive the Workspace.
  OpinionParams phi_one = corpus.estimated;
  std::fill(phi_one.interaction.begin(), phi_one.interaction.end(), 1.0);
  HolimEngine engine(bg);
  const uint32_t max_k = std::min<uint32_t>(config.max_k, bg.num_nodes() / 2);

  SolveRequest oi = MakeSolveRequest("osim", max_k, influence, config);
  oi.opinions = &corpus.estimated;
  SolveRequest oc = MakeSolveRequest("osim", max_k, lt, config);
  oc.opinions = &phi_one;
  oc.oi_base = OiBase::kLinearThreshold;
  SolveRequest ic = MakeSolveRequest("easyim", max_k, influence, config);

  HOLIM_ASSIGN_OR_RETURN(SolveResult oi_seeds, engine.Solve(oi));
  HOLIM_ASSIGN_OR_RETURN(SolveResult oc_seeds, engine.Solve(oc));
  HOLIM_ASSIGN_OR_RETURN(SolveResult ic_seeds, engine.Solve(ic));

  ResultTable table("Figure 5c — opinion spread vs seeds (Twitter)",
                    {"k", "OI", "OC", "IC"}, CsvPath("fig5c_twitter_spread"));
  auto grid = SeedGrid(max_k);
  // --oracle=sketch: one snapshot set over the background graph, reused by
  // all three selectors' prefix sweeps (opinion replay needs per-edge phi).
  std::shared_ptr<const SketchOracle> sketch;
  if (common.oracle == SpreadOracle::kSketch) {
    HOLIM_ASSIGN_OR_RETURN(
        sketch, GetBenchSketchOracle(engine, bg, influence, config,
                                     /*seed_offset=*/0,
                                     /*record_edge_offsets=*/true));
  }
  auto evaluate = [&](const std::vector<NodeId>& seeds) {
    return sketch ? OpinionSpreadAtPrefixesSketch(*sketch, corpus.estimated,
                                                  seeds, grid, 1.0)
                  : OpinionSpreadAtPrefixes(bg, influence, corpus.estimated,
                                            OiBase::kIndependentCascade,
                                            seeds, grid, 1.0, config.mc,
                                            config.seed);
  };
  auto oi_values = evaluate(oi_seeds.seeds);
  auto oc_values = evaluate(oc_seeds.seeds);
  auto ic_values = evaluate(ic_seeds.seeds);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.AddRow({std::to_string(grid[i]), CsvWriter::Num(oi_values[i]),
                  CsvWriter::Num(oc_values[i]), CsvWriter::Num(ic_values[i])});
  }
  table.Print();
  std::printf("\nExpected shape (paper Fig. 5c): OI > OC > IC.\n");
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(argc, argv,
                   "Figure 5c — opinion spread of OI/OC/IC-selected seeds on "
                   "the Twitter background graph",
                   Run, [](BenchArgs* args) {
                     DeclareCommonOptions(args, kSpec);
                   });
}
