// Ablation: the ScoreGREEDY activated-set strategy. Algorithm 1 line 11
// leaves the V(a) estimator open; this bench compares the three
// implementations on quality and cost (README.md, "Figure & table
// reproduction binaries", lists it with the figure binaries).

#include "algo/score_greedy.h"
#include "common.h"

using namespace holim;
using namespace holim::bench;

namespace {

Status Run(const BenchArgs& args) {
  auto config = ReadCommonConfig(args);
  HOLIM_ASSIGN_OR_RETURN(
      Workload w, LoadWorkload("NetHEPT", config.scale,
                               DiffusionModel::kIndependentCascade));
  const uint32_t k = std::min<uint32_t>(50, w.graph.num_nodes() / 10);
  ResultTable table("Ablation — ScoreGREEDY activated-set strategy",
                    {"strategy", "spread@k", "seconds"},
                    CsvPath("ablation_activation"));
  McOptions mc;
  mc.num_simulations = config.mc;
  mc.seed = config.seed;
  for (auto strategy :
       {ActivationStrategy::kSeedsOnly, ActivationStrategy::kMonteCarloMajority,
        ActivationStrategy::kExpectedReach}) {
    ScoreGreedyOptions options;
    options.activation = strategy;
    options.seed = config.seed;
    EasyImSelector selector(w.graph, w.params, 3, options);
    HOLIM_ASSIGN_OR_RETURN(SeedSelection sel, selector.Select(k));
    const double spread = EstimateSpread(w.graph, w.params, sel.seeds, mc);
    table.AddRow({ActivationStrategyName(strategy), CsvWriter::Num(spread),
                  CsvWriter::Num(sel.elapsed_seconds)});
  }
  table.Print();
  std::printf("\nReading: seeds-only is fastest but risks redundant seeds in\n"
              "one region; mc-majority (default) trades a little time for\n"
              "better dispersion; expected-reach is the deterministic mid.\n");
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(argc, argv, "Ablation — activated-set strategies", Run);
}
