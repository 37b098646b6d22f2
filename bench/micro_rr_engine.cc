// RR-engine microbenchmark: sets/sec and bytes/set for the flat-arena
// sketch engine versus the legacy nested-vector serial path, across thread
// counts, plus the incremental_select section — IMM-style append-then-select
// rounds with the persistent incremental index versus the from-scratch
// reference of tests/coverage_reference.h, which rebuilds the index every
// round. Emits BENCH_rr_engine.json; the CI bench-gate
// (tools/check_bench_regression.py) fails the job when bytes_per_set or the
// incremental_select speedup regresses against the committed baseline (see
// .github/workflows/ci.yml).

#include <cstdio>
#include <string>
#include <vector>

#include "algo/rr_sets.h"
#include "common.h"
#include "graph/generators.h"
#include "tests/coverage_reference.h"

using namespace holim;

namespace {

// The seed's RR sampler: one heap-allocated std::vector per set, sampled
// sequentially. Kept here as the throughput/memory baseline the arena
// engine is measured against.
struct NestedBaseline {
  std::vector<std::vector<NodeId>> sets;

  void Generate(const Graph& g, const InfluenceParams& params,
                std::size_t count, Rng& rng) {
    EpochSet visited(g.num_nodes());
    std::vector<NodeId> stack;
    const bool lt = params.model == DiffusionModel::kLinearThreshold;
    sets.reserve(sets.size() + count);
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId root =
          static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      visited.Reset(g.num_nodes());
      stack.clear();
      std::vector<NodeId> rr{root};
      visited.Insert(root);
      stack.push_back(root);
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        auto in_neighbors = g.InNeighbors(v);
        auto in_edges = g.InEdgeIds(v);
        if (lt) {
          double r = rng.NextDouble();
          for (std::size_t j = 0; j < in_neighbors.size(); ++j) {
            const double w = params.p(in_edges[j]);
            if (r < w) {
              const NodeId u = in_neighbors[j];
              if (!visited.Contains(u)) {
                visited.Insert(u);
                stack.push_back(u);
                rr.push_back(u);
              }
              break;
            }
            r -= w;
          }
        } else {
          for (std::size_t j = 0; j < in_neighbors.size(); ++j) {
            const NodeId u = in_neighbors[j];
            if (visited.Contains(u)) continue;
            if (rng.NextBernoulli(params.p(in_edges[j]))) {
              visited.Insert(u);
              stack.push_back(u);
              rr.push_back(u);
            }
          }
        }
      }
      sets.push_back(std::move(rr));
    }
  }

  std::size_t MemoryBytes() const {
    std::size_t bytes = sets.capacity() * sizeof(std::vector<NodeId>);
    for (const auto& rr : sets) bytes += rr.capacity() * sizeof(NodeId);
    return bytes;
  }
};

struct Row {
  std::string engine;
  std::size_t threads;
  double seconds;
  double sets_per_sec;
  double bytes_per_set;
};

// One append-then-select path of the incremental_select comparison.
struct SelectPathStats {
  double generate_seconds = 0.0;
  double select_seconds = 0.0;
  std::vector<RrCollection::CoverageResult> per_round;
};

// Runs `rounds` IMM-style doubling rounds — append `round_sets` sets, then
// select k — timing generation and selection separately. `select` is
// invoked with the collection after each append.
template <typename SelectFn>
SelectPathStats RunSelectRounds(RrCollection& rr, std::size_t rounds,
                                std::size_t round_sets, uint64_t seed,
                                const SelectFn& select) {
  SelectPathStats stats;
  for (std::size_t r = 0; r < rounds; ++r) {
    Timer generate_timer;
    rr.GenerateParallel(round_sets, seed + 1000 * (r + 1), nullptr);
    stats.generate_seconds += generate_timer.ElapsedSeconds();
    Timer select_timer;
    stats.per_round.push_back(select(rr));
    stats.select_seconds += select_timer.ElapsedSeconds();
  }
  return stats;
}

Status Run(const BenchArgs& args) {
  const NodeId nodes =
      static_cast<NodeId>(args.GetInt("nodes", 100000));
  const std::size_t num_sets =
      static_cast<std::size_t>(args.GetInt("sets", 20000));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path =
      args.GetString("json", "BENCH_rr_engine.json");
  if (nodes == 0 || num_sets == 0) {
    return Status::InvalidArgument("--nodes and --sets must be positive");
  }

  HOLIM_ASSIGN_OR_RETURN(Graph graph,
                         GenerateBarabasiAlbert(nodes, 4, seed));
  InfluenceParams params = MakeWeightedCascade(graph);
  std::printf("graph: n=%u m=%llu, WC weights, %zu RR sets per run\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), num_sets);

  std::vector<Row> rows;
  {
    NestedBaseline nested;
    Rng rng(seed);
    Timer timer;
    nested.Generate(graph, params, num_sets, rng);
    const double secs = timer.ElapsedSeconds();
    rows.push_back({"nested_serial_seed", 1, secs, num_sets / secs,
                    static_cast<double>(nested.MemoryBytes()) / num_sets});
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    ThreadPool pool(threads);
    RrCollection rr(graph, params);
    Timer timer;
    rr.GenerateParallel(num_sets, seed, &pool);
    const double secs = timer.ElapsedSeconds();
    char name[32];
    std::snprintf(name, sizeof(name), "arena_parallel_%zut", threads);
    rows.push_back({name, threads, secs, num_sets / secs,
                    static_cast<double>(rr.MemoryBytes()) / num_sets});
  }

  ResultTable table(
      "RR engine — generation throughput and memory",
      {"engine", "threads", "seconds", "sets_per_sec", "bytes_per_set"},
      bench::CsvPath("micro_rr_engine"));
  for (const Row& r : rows) {
    table.AddRow({r.engine, std::to_string(r.threads), CsvWriter::Num(r.seconds),
                  CsvWriter::Num(r.sets_per_sec),
                  CsvWriter::Num(r.bytes_per_set)});
  }
  table.Print();
  const double speedup_8t = rows.back().sets_per_sec / rows[0].sets_per_sec;
  std::printf("\narena 8-thread vs nested serial seed: %.2fx sets/sec, "
              "%.0f vs %.0f bytes/set\n",
              speedup_8t, rows.back().bytes_per_set, rows[0].bytes_per_set);

  // incremental_select: rounds x (append round_sets, select k), comparing
  // the rebuild-every-round reference against the persistent incremental
  // index. Selection output must be identical; only the cost may differ.
  const std::size_t rounds =
      static_cast<std::size_t>(args.GetInt("rounds", 8));
  const std::size_t round_sets =
      static_cast<std::size_t>(args.GetInt("round_sets", 5000));
  const uint32_t select_k = static_cast<uint32_t>(args.GetInt("k", 50));
  if (rounds == 0 || round_sets == 0 || select_k == 0) {
    return Status::InvalidArgument("--rounds/--round_sets/--k must be positive");
  }
  SelectPathStats rebuild_path;
  {
    RrCollection rr(graph, params, /*track_widths=*/false,
                    /*build_index=*/false);
    rebuild_path = RunSelectRounds(
        rr, rounds, round_sets, seed,
        [&graph, select_k](RrCollection& c) {
          return coverage_reference::SelectMaxCoverageRebuild(
              c, graph.num_nodes(), select_k);
        });
  }
  SelectPathStats incremental_path;
  double index_bytes_per_set = 0.0;
  {
    RrCollection rr(graph, params);
    incremental_path = RunSelectRounds(
        rr, rounds, round_sets, seed,
        [select_k](RrCollection& c) {
          return c.SelectMaxCoverage(select_k);
        });
    index_bytes_per_set =
        static_cast<double>(rr.IndexMemoryBytes()) / rr.num_sets();
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    HOLIM_CHECK(rebuild_path.per_round[r].seeds ==
                incremental_path.per_round[r].seeds)
        << "incremental/rebuild seed divergence in round " << r;
    HOLIM_CHECK(rebuild_path.per_round[r].covered_fraction ==
                incremental_path.per_round[r].covered_fraction)
        << "incremental/rebuild coverage divergence in round " << r;
  }
  const double select_speedup =
      rebuild_path.select_seconds / incremental_path.select_seconds;
  const double end_to_end_speedup =
      (rebuild_path.generate_seconds + rebuild_path.select_seconds) /
      (incremental_path.generate_seconds + incremental_path.select_seconds);
  std::printf(
      "\nincremental_select (%zu rounds x %zu sets, k=%u):\n"
      "  rebuild     generate %.4fs  select %.4fs\n"
      "  incremental generate %.4fs  select %.4fs  (index %.1f B/set)\n"
      "  select speedup %.2fx, end-to-end %.2fx\n",
      rounds, round_sets, select_k, rebuild_path.generate_seconds,
      rebuild_path.select_seconds, incremental_path.generate_seconds,
      incremental_path.select_seconds, index_bytes_per_set, select_speedup,
      end_to_end_speedup);

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + json_path);
  std::fprintf(f,
               "{\n  \"bench\": \"rr_engine\",\n  \"nodes\": %u,\n"
               "  \"edges\": %llu,\n  \"model\": \"WC\",\n  \"sets\": %zu,\n"
               "  \"speedup_8t_vs_seed\": %.4f,\n  \"results\": [\n",
               graph.num_nodes(),
               static_cast<unsigned long long>(graph.num_edges()), num_sets,
               speedup_8t);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"threads\": %zu, "
                 "\"seconds\": %.6f, \"sets_per_sec\": %.1f, "
                 "\"bytes_per_set\": %.1f}%s\n",
                 r.engine.c_str(), r.threads, r.seconds, r.sets_per_sec,
                 r.bytes_per_set, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"incremental_select\": {\n"
               "    \"rounds\": %zu,\n    \"sets_per_round\": %zu,\n"
               "    \"k\": %u,\n"
               "    \"rebuild_generate_seconds\": %.6f,\n"
               "    \"rebuild_select_seconds\": %.6f,\n"
               "    \"incremental_generate_seconds\": %.6f,\n"
               "    \"incremental_select_seconds\": %.6f,\n"
               "    \"index_bytes_per_set\": %.1f,\n"
               "    \"select_speedup\": %.4f,\n"
               "    \"end_to_end_speedup\": %.4f\n  }\n}\n",
               rounds, round_sets, select_k, rebuild_path.generate_seconds,
               rebuild_path.select_seconds,
               incremental_path.generate_seconds,
               incremental_path.select_seconds, index_bytes_per_set,
               select_speedup, end_to_end_speedup);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(argc, argv,
                   "RR-engine microbenchmark (sets/sec, bytes/set)", Run,
                   [](BenchArgs* args) {
                     args->Declare("nodes", "graph size (default 100000)");
                     args->Declare("sets", "RR sets per run (default 20000)");
                     args->Declare("rounds",
                                   "incremental_select append/select rounds "
                                   "(default 8)");
                     args->Declare("round_sets",
                                   "sets appended per round (default 5000)");
                     args->Declare("k",
                                   "seeds selected per round (default 50)");
                     args->Declare("json",
                                   "output JSON path "
                                   "(default BENCH_rr_engine.json)");
                   });
}
