// Figures 7d-7e (appendix): spread of EaSyIM(l=3) vs SIMPATH (NetHEPT, LT)
// and vs IRIE (YouTube, WC).

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
  const double scale = args.GetDouble("scale", 0.01);
  ResultTable table("Figures 7d-7e — EaSyIM vs SIMPATH/IRIE spread",
                    {"figure", "dataset", "algorithm", "k", "spread"},
                    CsvPath("fig7de_heuristic_spread"));

  // With --oracle=sketch the per-workload snapshot set is a Workspace
  // artifact, sampled once and reused for both algorithms' prefix sweeps
  // (incremental sessions).
  auto evaluate = [&](const Workload& w, const std::vector<NodeId>& seeds,
                      const std::vector<uint32_t>& grid,
                      const SketchOracle* sketch) {
    return sketch ? SpreadAtPrefixesSketch(*sketch, seeds, grid)
                  : SpreadAtPrefixes(w.graph, w.params, seeds, grid,
                                     config.mc, config.seed);
  };
  auto make_sketch = [&](HolimEngine& engine, const Workload& w) {
    if (common.oracle != SpreadOracle::kSketch) {
      return std::shared_ptr<const SketchOracle>();
    }
    return GetBenchSketchOracle(engine, w.graph, w.params, config);
  };
  auto run_panel = [&](const char* figure, const Workload& w,
                       const char* easy_label, const std::string& rival,
                       const char* rival_label) -> Status {
    HolimEngine engine(w.graph);
    const uint32_t max_k =
        std::min<uint32_t>(config.max_k / 2, w.graph.num_nodes() / 4);
    auto grid = SeedGrid(max_k);
    HOLIM_ASSIGN_OR_RETURN(
        SolveResult easy_sel,
        engine.Solve(MakeSolveRequest("easyim", max_k, w.params, config)));
    HOLIM_ASSIGN_OR_RETURN(
        SolveResult rival_sel,
        engine.Solve(MakeSolveRequest(rival, max_k, w.params, config)));
    auto sketch = make_sketch(engine, w);
    auto easy_values = evaluate(w, easy_sel.seeds, grid, sketch.get());
    auto rival_values = evaluate(w, rival_sel.seeds, grid, sketch.get());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      table.AddRow({figure, w.dataset, easy_label, std::to_string(grid[i]),
                    CsvWriter::Num(easy_values[i])});
      table.AddRow({figure, w.dataset, rival_label, std::to_string(grid[i]),
                    CsvWriter::Num(rival_values[i])});
    }
    return Status::OK();
  };

  // 7d: NetHEPT under LT — EaSyIM vs SIMPATH.
  {
    HOLIM_ASSIGN_OR_RETURN(
        Workload w,
        LoadWorkload("NetHEPT", scale, DiffusionModel::kLinearThreshold));
    HOLIM_RETURN_NOT_OK(run_panel("7d", w, "EaSyIM,l=3", "simpath",
                                  "SIMPATH"));
  }

  // 7e: YouTube under WC — EaSyIM vs IRIE.
  {
    HOLIM_ASSIGN_OR_RETURN(
        Workload w, LoadWorkload("YouTube", scale * 0.05,
                                 DiffusionModel::kWeightedCascade));
    HOLIM_RETURN_NOT_OK(run_panel("7e", w, "EaSyIM,l=3", "irie", "IRIE"));
  }
  table.Print();
  std::printf("\nExpected shape (paper Figs. 7d-7e): EaSyIM matches the\n"
              "specialist heuristics' spread on their home models.\n");
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(argc, argv,
                   "Figures 7d-7e — spread vs SIMPATH/IRIE (appendix)", Run,
                   [](BenchArgs* args) {
                     DeclareCommonOptions(args, kSpec);
                   });
}
