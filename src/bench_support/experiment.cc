#include "bench_support/experiment.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "util/string_util.h"

namespace holim {

Status BenchArgs::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("expected --flag, got: " + arg);
    }
    arg = arg.substr(2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    bool known = name == "help";
    for (const auto& [declared, _] : declared_) {
      if (declared == name) {
        known = true;
        break;
      }
    }
    if (!known) return Status::InvalidArgument("unknown flag: --" + name);
    values_[name] = value;
  }
  return Status::OK();
}

double BenchArgs::GetDouble(const std::string& name,
                            double default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::stod(it->second);
}

int64_t BenchArgs::GetInt(const std::string& name,
                          int64_t default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::stoll(it->second);
}

std::string BenchArgs::GetString(const std::string& name,
                                 const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

bool BenchArgs::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1";
}

void BenchArgs::Declare(const std::string& name, const std::string& help) {
  declared_.emplace_back(name, help);
}

std::string BenchArgs::HelpText(const std::string& binary) const {
  std::string out = "Usage: " + binary + " [flags]\n";
  for (const auto& [name, help] : declared_) {
    out += "  --" + name + ": " + help + "\n";
  }
  return out;
}

ResultTable::ResultTable(std::string title, std::vector<std::string> columns,
                         const std::string& csv_path)
    : title_(std::move(title)), columns_(std::move(columns)) {
  if (!csv_path.empty()) {
    csv_ = std::make_unique<CsvWriter>(csv_path);
    csv_->WriteHeader(columns_);
  }
}

void ResultTable::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
  if (csv_) csv_->WriteRow(cells);
}

void ResultTable::AddNumericRow(const std::string& label,
                                const std::vector<double>& values) {
  std::vector<std::string> cells = {label};
  for (double v : values) cells.push_back(CsvWriter::Num(v));
  AddRow(cells);
}

void ResultTable::Print() const {
  std::vector<std::size_t> widths(columns_.size(), 0);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

std::string ResultsDir() {
  const std::string dir = "results";
  ::mkdir(dir.c_str(), 0755);  // idempotent
  return dir;
}

void DeclareCommonFlags(BenchArgs* args) {
  args->Declare("scale", "dataset scale factor vs paper size (default 0.2)");
  args->Declare("mc", "Monte-Carlo simulations per estimate (default 200)");
  args->Declare("max_k", "largest seed-set size (default 100)");
  args->Declare("seed", "global RNG seed (default 42)");
}

void DeclareCommonOptions(BenchArgs* args, const CommonOptionsSpec& spec) {
  if (spec.oracle) {
    args->Declare("oracle",
                  "spread oracle for MC-objective selectors and spread "
                  "evaluation: mc | sketch (default mc, the paper's "
                  "methodology; sketch reuses presampled live-edge "
                  "snapshots)");
  }
  if (spec.rescore_default != nullptr) {
    args->Declare("rescore",
                  std::string("EaSyIM/OSIM/ASIM score path between greedy "
                              "rounds: incremental | full (default ") +
                      spec.rescore_default + ")");
  }
  if (spec.threads) {
    args->Declare("threads",
                  "worker threads for the sharded kernels (0: score "
                  "sweeps and sketch sampling run serially, RR sampling "
                  "and Monte-Carlo estimation on a shared pool of "
                  "hardware-concurrency threads; results are bitwise "
                  "thread-count-invariant)");
  }
  if (spec.query) {
    std::string choices;
    for (const QueryKind kind : kAllQueryKinds) {
      if (!choices.empty()) choices += " | ";
      choices += QueryKindName(kind);
    }
    args->Declare("query",
                  "query kind: " + choices +
                      " (default topk — byte-identical to the "
                      "pre-query-vocabulary invocation)");
    args->Declare("budget",
                  "[--query=budgeted] total cost budget (> 0 required)");
    args->Declare("costs",
                  "[--query=budgeted] per-node cost source: uniform | "
                  "degree | <file with one cost per node> (default "
                  "uniform 1.0)");
    args->Declare("targets",
                  "[--query=targeted] target set: twitter-topic[:i] "
                  "(topic i of a Twitter corpus over this graph) | <file "
                  "of node ids> — weight 1.0 on members, 0 elsewhere");
    args->Declare("seeds",
                  "[--query=evaluate|explain] comma-separated node ids "
                  "of the seed set to score");
  }
}

Result<CommonOptions> ParseCommonOptions(const BenchArgs& args,
                                         const CommonOptionsSpec& spec) {
  CommonOptions options;
  if (spec.oracle) {
    const std::string oracle = args.GetString("oracle", "mc");
    if (oracle == "sketch") {
      options.oracle = SpreadOracle::kSketch;
    } else if (oracle != "mc") {
      return Status::InvalidArgument("unknown --oracle (mc|sketch): " +
                                     oracle);
    }
  }
  if (spec.rescore_default != nullptr) {
    const std::string rescore =
        args.GetString("rescore", spec.rescore_default);
    if (rescore == "incremental") {
      options.incremental_rescore = true;
    } else if (rescore != "full") {
      return Status::InvalidArgument(
          "unknown --rescore (incremental|full): " + rescore);
    }
  }
  if (spec.threads) {
    const int64_t threads = args.GetInt("threads", 0);
    if (threads < 0) {
      return Status::InvalidArgument("--threads must be >= 0");
    }
    options.threads = static_cast<uint32_t>(threads);
  }
  if (spec.query) {
    const std::string query = args.GetString("query", "topk");
    bool known = false;
    for (const QueryKind kind : kAllQueryKinds) {
      if (query == QueryKindName(kind)) {
        options.query = kind;
        known = true;
        break;
      }
    }
    if (!known) {
      std::string choices;
      for (const QueryKind kind : kAllQueryKinds) {
        if (!choices.empty()) choices += "|";
        choices += QueryKindName(kind);
      }
      return Status::InvalidArgument("unknown --query (" + choices +
                                     "): " + query);
    }
    options.budget = args.GetDouble("budget", 0.0);
    options.costs_spec = args.GetString("costs", "");
    options.targets_spec = args.GetString("targets", "");
    options.seeds_spec = args.GetString("seeds", "");
  }
  return options;
}

CommonBenchConfig ReadCommonConfig(const BenchArgs& args) {
  CommonBenchConfig config;
  config.scale = args.GetDouble("scale", config.scale);
  config.mc = static_cast<uint32_t>(args.GetInt("mc", config.mc));
  config.max_k = static_cast<uint32_t>(args.GetInt("max_k", config.max_k));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", config.seed));
  return config;
}

}  // namespace holim
