// Serving-loop microbenchmark: a skewed multi-tenant traffic stream
// played closed-loop through HolimServer twice with the SAME binary and
// workload — once as the BASELINE configuration (FIFO dispatch + plain
// LRU workspaces) and once as the HEAT configuration (artifact-affinity
// scheduling + benefit-per-byte eviction).
// Emits BENCH_serving.json; the CI bench-gate ("serving" dispatch) pins
// the build / warm-hit / coalesced-build counters exactly and gates
// the QPS ratio (with an absolute 2x floor) and the p99 ratio as
// timing metrics.
//
// The workload is Zipf-skewed over tenants and models (serving/workload),
// so a bounded queue holds several requests per hot sketch-arena key.
// Per-tenant byte budgets are sized from a probe arena to fit ONE model's
// artifact group — the regime where eviction quality and dispatch order
// decide how often sampling is re-paid. Scheduling must not change
// answers: per-request seeds are HOLIM_CHECKed identical across legs.
//
// Single-thread on purpose: both legs run serial dispatch on one core,
// so the QPS ratio is pure work-reduction (hit rate, coalescing,
// eviction quality) and transfers across machines.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_support/bench_main.h"
#include "diffusion/sketch_oracle.h"
#include "graph/generators.h"
#include "model/influence_params.h"
#include "serving/holim_server.h"
#include "serving/workload.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace holim;

namespace {

struct LegOutcome {
  std::vector<std::string> seeds_by_id;
  ServerStats stats;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index =
      static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[index];
}

Status RunLeg(bool optimized, const WorkloadSpec& spec,
              const std::vector<WorkloadItem>& items, NodeId tenant_nodes,
              uint32_t snapshots, std::size_t queue_depth,
              std::size_t budget_bytes, const std::string& algo,
              LegOutcome* out) {
  ServerOptions options;
  options.queue_depth = queue_depth;
  options.affinity = optimized;
  options.cache_policy = optimized ? Workspace::EvictionPolicy::kHeatBenefit
                                   : Workspace::EvictionPolicy::kLru;
  options.num_sketches = snapshots;
  options.seed = spec.seed;
  options.max_cache_bytes = budget_bytes;
  HolimServer server(options);
  for (uint32_t t = 0; t < spec.num_tenants; ++t) {
    HOLIM_ASSIGN_OR_RETURN(
        Graph graph, GenerateSocialGraph(tenant_nodes, 6.0, spec.seed + t));
    HOLIM_RETURN_NOT_OK(server.AddTenant(std::move(graph)));
  }

  out->seeds_by_id.assign(items.size(), "");
  std::vector<double> submit_ms(items.size(), 0.0);
  std::vector<double> latency_ms(items.size(), 0.0);
  std::size_t next = 0;
  Timer timer;
  auto submit_next = [&]() -> Status {
    const WorkloadItem& item = items[next++];
    ProtocolRequest request;
    request.verb = RequestVerb::kSolve;
    request.id = item.id;
    request.tenant = item.tenant;
    request.model = item.model;
    request.algo = algo;
    request.k = item.k;
    submit_ms[item.id] = timer.ElapsedMillis();
    return server.Submit(request);
  };
  // Closed loop: fill the admission queue to capacity, then keep it full
  // — dispatch one, submit one. The interleaving (and so every counter)
  // is a pure function of the workload, never of wall time.
  while (next < items.size() && !server.queue_full()) {
    HOLIM_RETURN_NOT_OK(submit_next());
  }
  while (server.queue_size() > 0) {
    HOLIM_ASSIGN_OR_RETURN(ProtocolReply reply, server.DispatchNext());
    if (std::getenv("HOLIM_SERVING_TRACE") != nullptr) {
      std::printf("[trace %s] id=%llu t%u/%s warm=%d\n",
                  optimized ? "heat" : "base",
                  static_cast<unsigned long long>(reply.id),
                  items[reply.id].tenant, items[reply.id].model.c_str(),
                  reply.warm_sketch ? 1 : 0);
    }
    latency_ms[reply.id] = timer.ElapsedMillis() - submit_ms[reply.id];
    out->seeds_by_id[reply.id] = reply.seeds_csv;
    if (next < items.size()) HOLIM_RETURN_NOT_OK(submit_next());
  }
  out->seconds = timer.ElapsedSeconds();
  out->qps = static_cast<double>(items.size()) / out->seconds;
  out->p50_ms = Percentile(latency_ms, 0.50);
  out->p99_ms = Percentile(latency_ms, 0.99);
  out->stats = server.stats();
  return Status::OK();
}

void PrintLeg(const char* name, const LegOutcome& leg, std::size_t requests) {
  std::printf(
      "  %-8s %7.1f q/s  p50 %7.2f ms  p99 %7.2f ms  (%.3fs)  "
      "builds=%llu warm=%llu coalesced=%llu\n",
      name, leg.qps, leg.p50_ms, leg.p99_ms, leg.seconds,
      static_cast<unsigned long long>(leg.stats.sketch_builds),
      static_cast<unsigned long long>(leg.stats.warm_sketch_hits),
      static_cast<unsigned long long>(leg.stats.coalesced));
  (void)requests;
}

Status Run(const BenchArgs& args) {
  const NodeId tenant_nodes =
      static_cast<NodeId>(args.GetInt("tenant-nodes", 2000));
  const uint32_t tenants = static_cast<uint32_t>(args.GetInt("tenants", 3));
  const uint32_t snapshots =
      static_cast<uint32_t>(args.GetInt("snapshots", 128));
  const std::size_t requests =
      static_cast<std::size_t>(args.GetInt("requests", 192));
  const std::size_t queue_depth =
      static_cast<std::size_t>(args.GetInt("queue-depth", 32));
  const double budget_factor = args.GetDouble("budget-factor", 1.3);
  // A cheap deterministic selector by default: per-request cost is then
  // dominated by the sketch-arena build behind spread evaluation, which
  // is exactly the work the serving layer (affinity + heat cache) can
  // avoid. A sweep-heavy selector (celf) pays its full selection cost on
  // every request in BOTH legs, which only dilutes the comparison.
  const std::string algo = args.GetString("algo", "degreediscount");
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_serving.json");
  if (tenant_nodes < 2 || tenants == 0 || snapshots == 0 || requests == 0 ||
      queue_depth == 0 || budget_factor <= 0.0) {
    return Status::InvalidArgument("all geometry flags must be positive");
  }

  WorkloadSpec spec;
  spec.num_tenants = tenants;
  spec.seed = seed;
  // Steeper skew than the generator defaults: serving wins come from
  // grouping repeat traffic, so the bench models a hot tenant/model pair
  // with a long tail rather than near-uniform load.
  spec.tenant_exponent = 1.4;
  spec.model_exponent = 1.2;
  WorkloadGenerator generator(spec);
  std::vector<WorkloadItem> items;
  items.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) items.push_back(generator.Next());

  // Size the per-tenant budget from a probe arena on tenant 0's topology:
  // budget-factor arenas' worth fits one model group (arena + selector)
  // but never two arenas — the contended regime the bench is about.
  HOLIM_ASSIGN_OR_RETURN(Graph probe_graph,
                         GenerateSocialGraph(tenant_nodes, 6.0, seed));
  InfluenceParams probe_params = MakeUniformIc(probe_graph);
  SketchOptions probe_options;
  probe_options.num_snapshots = snapshots;
  probe_options.seed = seed;
  const SketchOracle probe(probe_graph, probe_params, probe_options);
  const std::size_t arena_bytes = probe.ArenaBytes();
  const std::size_t budget_bytes =
      static_cast<std::size_t>(budget_factor *
                               static_cast<double>(arena_bytes));

  std::printf(
      "serving: %u tenants x %u nodes, R=%u, %zu requests, queue %zu, "
      "budget %.2f arenas (%zu bytes each)\n",
      tenants, tenant_nodes, snapshots, requests, queue_depth, budget_factor,
      arena_bytes);

  LegOutcome baseline;
  HOLIM_RETURN_NOT_OK(RunLeg(/*optimized=*/false, spec, items, tenant_nodes,
                             snapshots, queue_depth, budget_bytes, algo,
                             &baseline));
  LegOutcome heat;
  HOLIM_RETURN_NOT_OK(RunLeg(/*optimized=*/true, spec, items, tenant_nodes,
                             snapshots, queue_depth, budget_bytes, algo,
                             &heat));

  // Scheduling and eviction policy must never change answers: the same
  // request id picks the same seeds in both legs, bitwise.
  for (std::size_t id = 0; id < requests; ++id) {
    HOLIM_CHECK(heat.seeds_by_id[id] == baseline.seeds_by_id[id])
        << "request " << id << " seed divergence between legs: baseline ["
        << baseline.seeds_by_id[id] << "] heat [" << heat.seeds_by_id[id]
        << "]";
  }

  const double qps_ratio = heat.qps / baseline.qps;
  const double p99_ratio = baseline.p99_ms / heat.p99_ms;
  std::printf("\nclosed-loop legs (%zu requests):\n", requests);
  PrintLeg("baseline", baseline, requests);
  PrintLeg("heat", heat, requests);
  std::printf("  -> %.2fx QPS, %.2fx p99, warm-hit %.0f%% vs %.0f%%\n",
              qps_ratio, p99_ratio,
              100.0 * static_cast<double>(heat.stats.warm_sketch_hits) /
                  static_cast<double>(requests),
              100.0 * static_cast<double>(baseline.stats.warm_sketch_hits) /
                  static_cast<double>(requests));

  auto leg_json = [&](const LegOutcome& leg) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\n    \"seconds\": %.6f,\n    \"qps\": %.4f,\n"
        "    \"p50_ms\": %.4f,\n    \"p99_ms\": %.4f,\n"
        "    \"served\": %llu,\n    \"builds\": %llu,\n"
        "    \"warm_sketch_hits\": %llu,\n    \"coalesced\": %llu,\n"
        "    \"expired_in_queue\": %llu,\n"
        "    \"warm_hit_rate\": %.4f\n  }",
        leg.seconds, leg.qps, leg.p50_ms, leg.p99_ms,
        static_cast<unsigned long long>(leg.stats.served),
        static_cast<unsigned long long>(leg.stats.sketch_builds),
        static_cast<unsigned long long>(leg.stats.warm_sketch_hits),
        static_cast<unsigned long long>(leg.stats.coalesced),
        static_cast<unsigned long long>(leg.stats.expired_in_queue),
        static_cast<double>(leg.stats.warm_sketch_hits) /
            static_cast<double>(requests));
    return std::string(buf);
  };

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) return Status::IOError("cannot write " + json_path);
  std::fprintf(
      f,
      "{\n  \"bench\": \"serving\",\n  \"tenants\": %u,\n"
      "  \"tenant_nodes\": %u,\n  \"snapshots\": %u,\n"
      "  \"requests\": %zu,\n  \"queue_depth\": %zu,\n"
      "  \"budget_factor\": %.4f,\n  \"algo\": \"%s\",\n"
      "  \"seed\": %llu,\n"
      "  \"baseline\": %s,\n  \"heat\": %s,\n"
      "  \"speedup\": {\n    \"qps_ratio\": %.4f,\n"
      "    \"p99_ratio\": %.4f,\n    \"seeds_match_baseline\": true\n  }\n}\n",
      tenants, tenant_nodes, snapshots, requests, queue_depth, budget_factor,
      algo.c_str(), static_cast<unsigned long long>(seed),
      leg_json(baseline).c_str(),
      leg_json(heat).c_str(), qps_ratio, p99_ratio);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  return BenchMain(
      argc, argv,
      "Serving-loop microbenchmark (heat+affinity vs FIFO+LRU, same binary)",
      Run, [](BenchArgs* args) {
        args->Declare("tenants", "tenant graphs (default 3)");
        args->Declare("tenant-nodes",
                      "nodes per tenant graph (default 2000)");
        args->Declare("snapshots",
                      "sketch-arena live-edge worlds R (default 128)");
        args->Declare("requests", "workload length (default 192)");
        args->Declare("queue-depth",
                      "bounded admission queue depth (default 32)");
        args->Declare("budget-factor",
                      "per-tenant byte budget in probe-arena units "
                      "(default 2.2)");
        args->Declare("algo",
                      "selection algorithm for every request (default "
                      "degreediscount)");
        args->Declare("json",
                      "output JSON path (default BENCH_serving.json)");
      });
}
