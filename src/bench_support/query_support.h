#ifndef HOLIM_BENCH_SUPPORT_QUERY_SUPPORT_H_
#define HOLIM_BENCH_SUPPORT_QUERY_SUPPORT_H_

// Materializers behind holim_cli's --query flag family: turn the spec
// strings (--costs=, --targets=, --seeds=) into the per-node vectors a
// SolveRequest carries. Kept out of the CLI so the query-family bench and
// tests drive the exact same parsing/materialization code path.

#include <string>
#include <vector>

#include "engine/solve_request.h"
#include "graph/graph.h"
#include "util/status.h"

namespace holim {

/// Parses a `--query=` value against the canonical QueryKindName spelling
/// of every kind (the one list in kAllQueryKinds). InvalidArgument names
/// the accepted spellings.
Result<QueryKind> ParseQueryKind(const std::string& name);

/// The accepted `--query=` spellings, "topk|budgeted|..." — derived from
/// kAllQueryKinds so CLI help text cannot drift from the enum.
std::string QueryKindChoices();

/// Materializes a `--costs=` spec into SolveRequest::node_costs:
///   "" / "uniform"  -> empty vector (the engine's uniform-1.0 contract)
///   "degree"        -> cost(u) = 1 + out_degree(u) (hubs cost more)
///   <path>          -> whitespace-separated doubles, one per node, all > 0
Result<std::vector<double>> MaterializeCosts(const std::string& spec,
                                             const Graph& graph);

/// Materializes a `--targets=` spec into SolveRequest::target_weights:
///   ""                    -> empty vector (untargeted)
///   "twitter-topic[:i]"   -> 0/1 weights marking the members of topic i of
///                            a Twitter corpus (src/data/twitter.*) built
///                            deterministically over this graph's node
///                            universe (num_users = n, seeded by `seed`) —
///                            the "users who engaged with hashtag i" target
///                            set of the paper's Twitter experiment.
///   <path>                -> whitespace-separated target node ids; weight
///                            1.0 on listed nodes, 0 elsewhere.
Result<std::vector<double>> MaterializeTargets(const std::string& spec,
                                               const Graph& graph,
                                               uint64_t seed);

/// Parses a `--seeds=` comma-separated node-id list into
/// SolveRequest::given_seeds. Each id must be a whole unsigned decimal
/// token below the node count; anything else is InvalidArgument.
Result<std::vector<NodeId>> ParseSeedList(const std::string& spec,
                                          const Graph& graph);

}  // namespace holim

#endif  // HOLIM_BENCH_SUPPORT_QUERY_SUPPORT_H_
