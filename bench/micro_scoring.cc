// Scoring-kernel microbenchmark: full-sweep throughput across thread counts
// plus the incremental_rescore section — a k-seed ScoreGREEDY run comparing
// the legacy full-recompute-every-round path against the dirty-frontier
// incremental rescore (algo/score_sweep.h), for both EaSyIM and OSIM. Seed
// sets must be identical; only the cost may differ. Emits BENCH_scoring.json;
// the CI bench-gate (tools/check_bench_regression.py) fails the job when the
// deterministic work_ratio or the rescore_speedup regresses against the
// committed baseline (see .github/workflows/ci.yml).
//
// Note: wall-clock thread scaling only shows on multi-core runners; the
// work_ratio and rescore_speedup metrics are meaningful on any machine.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/score_greedy.h"
#include "common.h"
#include "graph/generators.h"

using namespace holim;

namespace {

struct SweepRow {
  std::string scorer;
  std::string mode;  // "serial" or "parallel"
  std::size_t threads;
  double seconds;
  double mitems_per_sec;  // l*(m+n) items per sweep
};

struct RescoreRow {
  std::string scorer;
  double full_seconds = 0.0;
  double incremental_seconds = 0.0;
  double rescore_speedup = 0.0;
  // (node-level Delta evaluations on the full-recompute path) / (same on
  // the incremental path, initial rebuild included). Deterministic given
  // the graph seed and config — gated exactly, unlike the timing ratio.
  double work_ratio = 0.0;
  std::size_t scratch_bytes = 0;
};

template <typename Scorer>
double TimeSweeps(Scorer& scorer, const EpochSet& excluded, std::size_t reps,
                  ThreadPool* pool) {
  std::vector<double> scores;
  Timer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    scorer.AssignScores(excluded, &scores, pool);
  }
  return timer.ElapsedSeconds();
}

Status Run(const BenchArgs& args) {
  const NodeId nodes = static_cast<NodeId>(args.GetInt("nodes", 50000));
  const uint32_t l = static_cast<uint32_t>(args.GetInt("l", 3));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 50));
  const std::size_t reps = static_cast<std::size_t>(args.GetInt("reps", 5));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_scoring.json");
  const std::string graph_kind = args.GetString("graph", "er");
  if (nodes == 0 || l == 0 || k == 0 || reps == 0) {
    return Status::InvalidArgument("--nodes/--l/--k/--reps must be positive");
  }

  // er (default): bounded-degree graph, small l-hop reverse balls — the
  // regime the dirty-frontier rescore targets (co-authorship-like). ba:
  // hub-heavy scale-free graph, the adversarial case where the reverse
  // ball of any node covers most of the graph within l hops.
  Graph graph;
  if (graph_kind == "er") {
    HOLIM_ASSIGN_OR_RETURN(graph, GenerateErdosRenyi(nodes, 8.0, seed));
  } else if (graph_kind == "ba") {
    HOLIM_ASSIGN_OR_RETURN(graph, GenerateBarabasiAlbert(nodes, 4, seed));
  } else {
    return Status::InvalidArgument("unknown --graph (er|ba): " + graph_kind);
  }
  InfluenceParams wc = MakeWeightedCascade(graph);
  InfluenceParams ic = MakeUniformIc(graph, 0.1);
  OpinionParams opinions =
      MakeRandomOpinions(graph, OpinionDistribution::kUniform, seed + 1);
  const double sweep_items =
      static_cast<double>(l) * (graph.num_edges() + graph.num_nodes());
  std::printf("graph: n=%u m=%llu, l=%u, k=%u, %zu sweep reps\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), l, k, reps);

  EpochSet no_excluded(graph.num_nodes());
  no_excluded.Reset(graph.num_nodes());

  // --- full-sweep throughput across thread counts -----------------------
  std::vector<SweepRow> sweep_rows;
  auto add_sweep_rows = [&](const std::string& name, auto& scorer) {
    {
      const double secs = TimeSweeps(scorer, no_excluded, reps, nullptr);
      sweep_rows.push_back(
          {name, "serial", 1, secs, reps * sweep_items / secs / 1e6});
    }
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      ThreadPool pool(threads);
      const double secs = TimeSweeps(scorer, no_excluded, reps, &pool);
      sweep_rows.push_back({name, "parallel", threads, secs,
                            reps * sweep_items / secs / 1e6});
    }
  };
  {
    EasyImScorer scorer(graph, wc, l);
    add_sweep_rows("easyim", scorer);
  }
  {
    OsimScorer scorer(graph, ic, opinions, l);
    add_sweep_rows("osim", scorer);
  }
  ResultTable sweep_table(
      "Score sweep — full-pass throughput",
      {"scorer", "mode", "threads", "seconds", "mitems_per_sec"},
      bench::CsvPath("micro_scoring_sweep"));
  for (const SweepRow& r : sweep_rows) {
    sweep_table.AddRow({r.scorer, r.mode, std::to_string(r.threads),
                        CsvWriter::Num(r.seconds),
                        CsvWriter::Num(r.mitems_per_sec)});
  }
  sweep_table.Print();

  // --- incremental rescore vs full recompute over a greedy run ----------
  // seeds-only activation keeps the comparison a pure score-assignment
  // cost (no Monte-Carlo time shared by both paths) and deterministic.
  std::vector<RescoreRow> rescore_rows;
  auto run_rescore = [&](const std::string& name, const auto& make_selector) {
    RescoreRow row;
    row.scorer = name;
    uint64_t full_work = 0, incremental_work = 0;
    std::vector<NodeId> full_seeds, inc_seeds;
    for (const bool incremental : {false, true}) {
      ScoreGreedyOptions options;
      options.activation = ActivationStrategy::kSeedsOnly;
      options.incremental_rescore = incremental;
      auto selector = make_selector(options);
      Timer timer;
      SeedSelection s = selector->Select(k).ValueOrDie();
      const double secs = timer.ElapsedSeconds();
      const ScoreSweepStats& st = selector->scorer().stats();
      if (incremental) {
        row.incremental_seconds = secs;
        incremental_work = st.nodes_full + st.nodes_incremental;
        row.scratch_bytes = s.scratch_bytes;
        inc_seeds = s.seeds;
      } else {
        row.full_seconds = secs;
        full_work = st.nodes_full + st.nodes_incremental;
        full_seeds = s.seeds;
      }
    }
    HOLIM_CHECK(full_seeds == inc_seeds)
        << name << ": incremental/full seed divergence";
    row.rescore_speedup = row.full_seconds / row.incremental_seconds;
    row.work_ratio = static_cast<double>(full_work) /
                     static_cast<double>(incremental_work);
    rescore_rows.push_back(row);
  };
  run_rescore("easyim", [&](const ScoreGreedyOptions& options) {
    return std::make_unique<EasyImSelector>(graph, wc, l, options);
  });
  run_rescore("osim", [&](const ScoreGreedyOptions& options) {
    return std::make_unique<OsimSelector>(
        graph, ic, opinions, OiBase::kIndependentCascade, l, options);
  });

  ResultTable rescore_table(
      "Incremental rescore vs full recompute (ScoreGREEDY, k seeds)",
      {"scorer", "full_s", "incremental_s", "speedup", "work_ratio",
       "scratch_bytes"},
      bench::CsvPath("micro_scoring_rescore"));
  for (const RescoreRow& r : rescore_rows) {
    rescore_table.AddRow(
        {r.scorer, CsvWriter::Num(r.full_seconds),
         CsvWriter::Num(r.incremental_seconds),
         CsvWriter::Num(r.rescore_speedup), CsvWriter::Num(r.work_ratio),
         std::to_string(r.scratch_bytes)});
  }
  rescore_table.Print();
  for (const RescoreRow& r : rescore_rows) {
    std::printf("%s: incremental rescore %.2fx faster, %.1fx less node "
                "work, %.1f MiB scorer scratch\n",
                r.scorer.c_str(), r.rescore_speedup, r.work_ratio,
                MemoryMeter::ToMiB(r.scratch_bytes));
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + json_path);
  std::fprintf(f,
               "{\n  \"bench\": \"scoring\",\n  \"graph\": \"%s\",\n"
               "  \"nodes\": %u,\n"
               "  \"edges\": %llu,\n  \"l\": %u,\n  \"k\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"sweep\": [\n",
               graph_kind.c_str(), graph.num_nodes(),
               static_cast<unsigned long long>(graph.num_edges()), l, k,
               static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
    const SweepRow& r = sweep_rows[i];
    std::fprintf(f,
                 "    {\"scorer\": \"%s\", \"mode\": \"%s\", "
                 "\"threads\": %zu, \"seconds\": %.6f, "
                 "\"mitems_per_sec\": %.2f}%s\n",
                 r.scorer.c_str(), r.mode.c_str(), r.threads, r.seconds,
                 r.mitems_per_sec, i + 1 < sweep_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"incremental_rescore\": {\n"
                  "    \"activation\": \"seeds-only\",\n");
  for (std::size_t i = 0; i < rescore_rows.size(); ++i) {
    const RescoreRow& r = rescore_rows[i];
    std::fprintf(f,
                 "    \"%s\": {\"full_seconds\": %.6f, "
                 "\"incremental_seconds\": %.6f, "
                 "\"rescore_speedup\": %.4f, \"work_ratio\": %.4f, "
                 "\"scratch_bytes\": %zu}%s\n",
                 r.scorer.c_str(), r.full_seconds, r.incremental_seconds,
                 r.rescore_speedup, r.work_ratio, r.scratch_bytes,
                 i + 1 < rescore_rows.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(argc, argv,
                   "Scoring-kernel microbenchmark (sweep throughput, "
                   "incremental rescore)",
                   Run, [](BenchArgs* args) {
                     args->Declare("nodes", "graph size (default 50000)");
                     args->Declare("graph",
                                   "topology: er (bounded-degree, default) "
                                   "| ba (hub-heavy adversarial)");
                     args->Declare("l", "path-length horizon (default 3)");
                     args->Declare("k", "greedy seeds (default 50)");
                     args->Declare("reps", "sweep repetitions (default 5)");
                     args->Declare("json",
                                   "output JSON path "
                                   "(default BENCH_scoring.json)");
                   });
}
