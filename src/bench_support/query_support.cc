#include "bench_support/query_support.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "data/twitter.h"
#include "util/string_util.h"

namespace holim {

namespace {

constexpr const char* kTwitterTopicPrefix = "twitter-topic";

Result<std::vector<double>> ReadDoublesFile(const std::string& path,
                                            uint32_t expected) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open cost file: " + path);
  std::vector<double> values;
  values.reserve(expected);
  double v = 0.0;
  while (in >> v) values.push_back(v);
  if (values.size() != expected) {
    return Status::InvalidArgument(
        path + ": expected one cost per node (" + std::to_string(expected) +
        "), got " + std::to_string(values.size()));
  }
  return values;
}

}  // namespace

Result<QueryKind> ParseQueryKind(const std::string& name) {
  for (const QueryKind kind : kAllQueryKinds) {
    if (name == QueryKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown --query (" + QueryKindChoices() +
                                 "): " + name);
}

std::string QueryKindChoices() {
  std::string choices;
  for (const QueryKind kind : kAllQueryKinds) {
    if (!choices.empty()) choices += "|";
    choices += QueryKindName(kind);
  }
  return choices;
}

Result<std::vector<double>> MaterializeCosts(const std::string& spec,
                                             const Graph& graph) {
  if (spec.empty() || spec == "uniform") return std::vector<double>{};
  if (spec == "degree") {
    std::vector<double> costs(graph.num_nodes());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      costs[u] = 1.0 + static_cast<double>(graph.OutDegree(u));
    }
    return costs;
  }
  HOLIM_ASSIGN_OR_RETURN(std::vector<double> costs,
                         ReadDoublesFile(spec, graph.num_nodes()));
  for (const double c : costs) {
    if (!std::isfinite(c) || !(c > 0.0)) {
      return Status::InvalidArgument(spec +
                                     ": costs must be finite and > 0");
    }
  }
  return costs;
}

Result<std::vector<double>> MaterializeTargets(const std::string& spec,
                                               const Graph& graph,
                                               uint64_t seed) {
  if (spec.empty()) return std::vector<double>{};
  if (StartsWith(spec, kTwitterTopicPrefix)) {
    uint32_t topic_index = 0;
    const std::string rest = spec.substr(std::string(kTwitterTopicPrefix).size());
    if (!rest.empty()) {
      if (rest[0] != ':') {
        return Status::InvalidArgument("bad --targets spec (want " +
                                       std::string(kTwitterTopicPrefix) +
                                       "[:i]): " + spec);
      }
      try {
        topic_index = static_cast<uint32_t>(std::stoul(rest.substr(1)));
      } catch (const std::exception&) {
        return Status::InvalidArgument("bad topic index in --targets: " +
                                       spec);
      }
    }
    TwitterCorpusOptions options;
    options.num_users = graph.num_nodes();
    options.num_topics = std::max(topic_index + 1, 5u);
    options.seed = seed;
    HOLIM_ASSIGN_OR_RETURN(TwitterCorpus corpus, BuildTwitterCorpus(options));
    const TopicData& topic = corpus.topics.at(topic_index);
    std::vector<double> weights(graph.num_nodes(), 0.0);
    for (const NodeId original : topic.subgraph.to_original) {
      weights[original] = 1.0;
    }
    return weights;
  }
  // A file of target node ids: weight 1.0 on listed nodes, 0 elsewhere.
  std::ifstream in(spec);
  if (!in) return Status::IOError("cannot open target file: " + spec);
  std::vector<double> weights(graph.num_nodes(), 0.0);
  long long id = 0;
  while (in >> id) {
    if (id < 0 || static_cast<uint64_t>(id) >= graph.num_nodes()) {
      return Status::InvalidArgument(spec + ": target node id " +
                                     std::to_string(id) + " out of range");
    }
    weights[static_cast<NodeId>(id)] = 1.0;
  }
  return weights;
}

Result<std::vector<NodeId>> ParseSeedList(const std::string& spec,
                                          const Graph& graph) {
  std::vector<NodeId> seeds;
  for (const std::string_view token : SplitTokens(spec, ", \t")) {
    uint64_t id = 0;
    if (!ParseNumber(token, id)) {
      return Status::InvalidArgument("bad --seeds node id: " +
                                     std::string(token));
    }
    if (id >= graph.num_nodes()) {
      return Status::InvalidArgument("--seeds node id " +
                                     std::string(token) + " out of range");
    }
    seeds.push_back(static_cast<NodeId>(id));
  }
  if (seeds.empty()) {
    return Status::InvalidArgument("--seeds must list at least one node id");
  }
  return seeds;
}

}  // namespace holim
