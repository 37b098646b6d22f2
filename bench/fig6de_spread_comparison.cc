// Figures 6d-6e: spread of EaSyIM(l=3) vs TIM+ (epsilon sweep) vs CELF++
// on HepPh and DBLP under IC.

#include <memory>

#include "bench_support/engine_support.h"
#include "common.h"

using namespace holim;
using namespace holim::bench;

namespace {

constexpr CommonOptionsSpec kSpec{/*oracle=*/true};

Status Run(const BenchArgs& args) {
  auto config = ReadCommonConfig(args);
  HOLIM_ASSIGN_OR_RETURN(CommonOptions common,
                         ParseCommonOptions(args, kSpec));
  // CELF++ evaluates every node once: keep instances small by default.
  const double scale = args.GetDouble("scale", 0.05);
  ResultTable table("Figures 6d-6e — spread comparison (IC)",
                    {"dataset", "algorithm", "k", "spread"},
                    CsvPath("fig6de_spread_comparison"));
  for (const std::string& dataset : {std::string("HepPh"),
                                     std::string("DBLP")}) {
    const double shrink = dataset == "DBLP" ? 0.05 : 1.0;
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload(dataset, scale * shrink,
                                 DiffusionModel::kIndependentCascade));
    const uint32_t max_k =
        std::min<uint32_t>(config.max_k / 2, w.graph.num_nodes() / 4);
    auto grid = SeedGrid(max_k);

    // One engine per dataset; with --oracle=sketch the CELF++ selection
    // worlds (seeded config.seed) become a Workspace artifact, and ALL
    // algorithms are judged on an independently seeded set (config.seed +
    // 1, the same convention as the ablation benches) — otherwise CELF++
    // would be trained and evaluated on the same sample and gain an
    // in-sample advantage over EaSyIM/TIM+, whose selection never saw the
    // worlds.
    HolimEngine engine(w.graph);
    std::shared_ptr<const SketchOracle> eval_sketch;
    if (common.oracle == SpreadOracle::kSketch) {
      eval_sketch = GetBenchSketchOracle(engine, w.graph, w.params, config,
                                         /*seed_offset=*/1);
    }

    auto report = [&](const std::string& name,
                      const std::vector<NodeId>& seeds) {
      auto values = eval_sketch
                        ? SpreadAtPrefixesSketch(*eval_sketch, seeds, grid)
                        : SpreadAtPrefixes(w.graph, w.params, seeds, grid,
                                           config.mc, config.seed);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        table.AddRow({dataset, name, std::to_string(grid[i]),
                      CsvWriter::Num(values[i])});
      }
    };

    SolveRequest easy = MakeSolveRequest("easyim", max_k, w.params, config);
    HOLIM_ASSIGN_OR_RETURN(SolveResult easy_sel, engine.Solve(easy));
    report(easy_sel.algorithm, easy_sel.seeds);

    for (double eps : {0.1, 0.15, 0.2}) {
      SolveRequest tim = MakeSolveRequest("tim+", max_k, w.params, config);
      tim.epsilon = eps;
      tim.max_theta = 400000;  // memory safety valve
      HOLIM_ASSIGN_OR_RETURN(SolveResult tim_sel, engine.Solve(tim));
      report(tim_sel.algorithm, tim_sel.seeds);
    }

    SolveRequest celf = MakeSolveRequest("celf++", max_k, w.params, config,
                                         common);
    // MC path: the historical CELF++ simulation budget; sketch path: the
    // selection worlds R = config.mc.
    celf.mc = std::min<uint32_t>(config.mc, 100);
    celf.num_sketches = config.mc;
    HOLIM_ASSIGN_OR_RETURN(SolveResult celf_sel, engine.Solve(celf));
    report("CELF++", celf_sel.seeds);
  }
  table.Print();
  std::printf("\nExpected shape (paper Figs. 6d-6e): all methods within a few\n"
              "percent of each other; EaSyIM mirrors the state of the art.\n");
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(argc, argv,
                   "Figures 6d-6e — EaSyIM vs TIM+ vs CELF++ spread", Run,
                   [](BenchArgs* args) {
                     DeclareCommonOptions(args, kSpec);
                   });
}
