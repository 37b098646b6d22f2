// Google-benchmark microbenchmarks for the hot kernels: EaSyIM / OSIM score
// assignment, one IC simulation, and RR-set sampling. These support the
// complexity contracts asserted in DESIGN.md (O(l(m+n)) score passes,
// O(m+n) simulation).

#include <benchmark/benchmark.h>

#include "algo/easyim.h"
#include "algo/osim.h"
#include "algo/rr_sets.h"
#include "diffusion/independent_cascade.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "model/opinion_params.h"

namespace holim {
namespace {

struct Fixture {
  Graph graph;
  InfluenceParams params;
  OpinionParams opinions;
};

const Fixture& GetFixture(int64_t n) {
  static std::map<int64_t, Fixture>* cache = new std::map<int64_t, Fixture>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Fixture f;
    f.graph = GenerateBarabasiAlbert(static_cast<NodeId>(n), 4, 99)
                  .ValueOrDie();
    f.params = MakeUniformIc(f.graph, 0.1);
    f.opinions =
        MakeRandomOpinions(f.graph, OpinionDistribution::kUniform, 7);
    it = cache->emplace(n, std::move(f)).first;
  }
  return it->second;
}

void BM_EasyImScorePass(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  EasyImScorer scorer(f.graph, f.params, 3);
  EpochSet excluded(f.graph.num_nodes());
  excluded.Reset(f.graph.num_nodes());
  std::vector<double> scores;
  for (auto _ : state) {
    scorer.AssignScores(excluded, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          (f.graph.num_edges() + f.graph.num_nodes()));
}
BENCHMARK(BM_EasyImScorePass)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_OsimScorePass(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  OsimScorer scorer(f.graph, f.params, f.opinions, 3);
  EpochSet excluded(f.graph.num_nodes());
  excluded.Reset(f.graph.num_nodes());
  std::vector<double> scores;
  for (auto _ : state) {
    scorer.AssignScores(excluded, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          (f.graph.num_edges() + f.graph.num_nodes()));
}
BENCHMARK(BM_OsimScorePass)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EasyImScorePassParallel(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  EasyImScorer scorer(f.graph, f.params, 3);
  EpochSet excluded(f.graph.num_nodes());
  excluded.Reset(f.graph.num_nodes());
  std::vector<double> scores;
  for (auto _ : state) {
    scorer.AssignScores(excluded, &scores, &pool);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          (f.graph.num_edges() + f.graph.num_nodes()));
}
BENCHMARK(BM_EasyImScorePassParallel)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 8});

void BM_OsimScorePassParallel(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  OsimScorer scorer(f.graph, f.params, f.opinions, 3);
  EpochSet excluded(f.graph.num_nodes());
  excluded.Reset(f.graph.num_nodes());
  std::vector<double> scores;
  for (auto _ : state) {
    scorer.AssignScores(excluded, &scores, &pool);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          (f.graph.num_edges() + f.graph.num_nodes()));
}
BENCHMARK(BM_OsimScorePassParallel)
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 8});

// One-seed-per-round dirty-frontier rescore against the level table (an
// early ScoreGREEDY round; compare with BM_*ScorePass). The exclusion set
// is rebuilt (outside the timed region) whenever it reaches 1% of the
// graph so iterations keep measuring sparse-exclusion rescores instead of
// drifting toward an almost-empty graph.
template <typename Scorer>
void RunIncrementalRescore(benchmark::State& state, const Graph& graph,
                           Scorer& scorer) {
  const NodeId n = graph.num_nodes();
  const NodeId reset_at = std::max<NodeId>(1, n / 100);
  EpochSet excluded(n);
  excluded.Reset(n);
  std::vector<double> scores;
  scorer.AssignScoresIncremental(excluded, nullptr, &scores, nullptr);
  NodeId next = 1, excluded_count = 0;
  std::vector<NodeId> newly(1);
  for (auto _ : state) {
    if (excluded_count == reset_at) {
      state.PauseTiming();
      excluded.Reset(n);
      excluded_count = 0;
      scorer.AssignScoresIncremental(excluded, nullptr, &scores, nullptr);
      state.ResumeTiming();
    }
    newly[0] = next;
    excluded.Insert(next);
    ++excluded_count;
    scorer.AssignScoresIncremental(excluded, &newly, &scores, nullptr);
    benchmark::DoNotOptimize(scores.data());
    next = (next + 7919) % n;  // stride; re-picks impossible before reset
  }
}

void BM_EasyImIncrementalRescore(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  EasyImScorer scorer(f.graph, f.params, 3);
  RunIncrementalRescore(state, f.graph, scorer);
}
BENCHMARK(BM_EasyImIncrementalRescore)->Arg(10000)->Arg(100000);

void BM_OsimIncrementalRescore(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  OsimScorer scorer(f.graph, f.params, f.opinions, 3);
  RunIncrementalRescore(state, f.graph, scorer);
}
BENCHMARK(BM_OsimIncrementalRescore)->Arg(10000)->Arg(100000);

void BM_IcSimulation(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  IcSimulator sim(f.graph, f.params);
  Rng rng(1);
  const NodeId seeds[] = {0, 1, 2, 3, 4};
  std::size_t total = 0;
  for (auto _ : state) {
    total += sim.Run(seeds, rng).order.size();
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_IcSimulation)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RrSetSampling(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  ThreadPool serial(1);
  RrCollection rr(f.graph, f.params);
  uint64_t seed = 2;
  for (auto _ : state) {
    rr.Clear();
    rr.GenerateParallel(100, seed++, &serial);
    benchmark::DoNotOptimize(rr.num_sets());
  }
}
BENCHMARK(BM_RrSetSampling)->Arg(1000)->Arg(10000);

void BM_RrSetSamplingParallel(benchmark::State& state) {
  const Fixture& f = GetFixture(state.range(0));
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  RrCollection rr(f.graph, f.params);
  uint64_t seed = 2;
  for (auto _ : state) {
    rr.Clear();
    rr.GenerateParallel(2048, seed++, &pool);
    benchmark::DoNotOptimize(rr.num_sets());
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_RrSetSamplingParallel)
    ->Args({10000, 1})
    ->Args({10000, 4})
    ->Args({100000, 1})
    ->Args({100000, 4});

void BM_RrSelectMaxCoverage(benchmark::State& state) {
  // CELF against the persistent incremental index (built once at generate).
  const Fixture& f = GetFixture(state.range(0));
  RrCollection rr(f.graph, f.params);
  rr.GenerateParallel(static_cast<std::size_t>(state.range(1)), 3, nullptr);
  for (auto _ : state) {
    auto coverage = rr.SelectMaxCoverage(50);
    benchmark::DoNotOptimize(coverage.seeds.data());
  }
}
BENCHMARK(BM_RrSelectMaxCoverage)->Args({10000, 20000})->Args({100000, 50000});

}  // namespace
}  // namespace holim

BENCHMARK_MAIN();
