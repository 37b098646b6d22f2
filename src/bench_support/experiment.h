#ifndef HOLIM_BENCH_SUPPORT_EXPERIMENT_H_
#define HOLIM_BENCH_SUPPORT_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/solve_request.h"  // SpreadOracle
#include "util/csv_writer.h"
#include "util/status.h"

namespace holim {

/// \brief Tiny CLI flag parser shared by all bench binaries.
///
/// Supported syntax: --name=value or --name value. Unknown flags error out
/// so typos are caught.
class BenchArgs {
 public:
  Status Parse(int argc, char** argv);

  double GetDouble(const std::string& name, double default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Declares a flag (for --help and unknown-flag detection).
  void Declare(const std::string& name, const std::string& help);
  std::string HelpText(const std::string& binary) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> declared_;
};

/// \brief Fixed-width console table + CSV sink, the uniform output format
/// of every figure/table reproduction binary.
class ResultTable {
 public:
  /// `csv_path` empty disables the CSV copy.
  ResultTable(std::string title, std::vector<std::string> columns,
              const std::string& csv_path = "");

  void AddRow(const std::vector<std::string>& cells);
  /// Convenience for numeric rows.
  void AddNumericRow(const std::string& label, const std::vector<double>& values);

  /// Prints the whole table to stdout.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::unique_ptr<CsvWriter> csv_;
};

/// Canonical output directory for bench CSVs ("results/", created lazily).
std::string ResultsDir();

/// Standard bench preamble: scale + mc + seeds flags every binary shares.
struct CommonBenchConfig {
  double scale = 0.2;         // dataset scale factor vs paper size
  uint32_t mc = 200;          // Monte-Carlo simulations per estimate
  uint32_t max_k = 100;       // largest seed-set size
  uint64_t seed = 42;
};
CommonBenchConfig ReadCommonConfig(const BenchArgs& args);
void DeclareCommonFlags(BenchArgs* args);

/// \brief The shared `--oracle` / `--rescore` / `--threads` flag family
/// of the bench binaries and holim_cli, declared and parsed from ONE spec
/// so a binary's help text can never drift from the default its parser
/// enforces (each binary used to pass the default separately to the
/// Declare and Parse calls).
///
/// - `--oracle`: spread backend of the MC-objective selectors and the
///   spread-evaluation helpers — "mc" (the paper's methodology, default
///   everywhere; output unchanged) or "sketch" (presampled live-edge
///   snapshots, reused across evaluations and — through the engine
///   Workspace — across solves).
/// - `--rescore`: EaSyIM/OSIM score path between greedy rounds,
///   "incremental" or "full". Seeds are bitwise identical either way. The
///   default differs by binary on purpose: figure benches default "full"
///   (the paper's O(l(m+n)) recompute is the methodology reproduced),
///   holim_cli defaults "incremental" (production path).
/// - `--threads`: worker threads of the sharded kernels (0 = serial);
///   results are bitwise thread-count-invariant everywhere.
/// - `--query` (plus its per-query flag group `--budget`, `--costs`,
///   `--targets`, `--seeds`; declared when `spec.query`): which QueryKind
///   the solve asks. The choice list and help text are generated from
///   kAllQueryKinds, so they cannot drift from the engine's vocabulary.
///   Old invocations are unchanged: the default is "topk", whose output is
///   byte-identical to the pre-query-vocabulary CLI. The spec strings of
///   `--costs`/`--targets`/`--seeds` are kept verbatim here (materializing
///   them needs the graph — see bench_support/query_support.h).
struct CommonOptionsSpec {
  bool oracle = false;
  /// "incremental"/"full" to declare --rescore with that default; nullptr
  /// omits the flag.
  const char* rescore_default = nullptr;
  bool threads = false;
  /// Declares the --query flag family.
  bool query = false;
};

struct CommonOptions {
  SpreadOracle oracle = SpreadOracle::kMonteCarlo;
  bool incremental_rescore = false;
  uint32_t threads = 0;
  QueryKind query = QueryKind::kTopK;
  double budget = 0.0;
  /// Raw --costs / --targets / --seeds specs (graph-dependent; materialize
  /// via query_support.h).
  std::string costs_spec;
  std::string targets_spec;
  std::string seeds_spec;
};

/// Declares exactly the flags `spec` enables (with help text derived from
/// the same spec the parser reads).
void DeclareCommonOptions(BenchArgs* args, const CommonOptionsSpec& spec);
/// Parses the flags `spec` enables; flags the spec omits keep their
/// CommonOptions defaults. Unknown values are InvalidArgument.
Result<CommonOptions> ParseCommonOptions(const BenchArgs& args,
                                         const CommonOptionsSpec& spec);

}  // namespace holim

#endif  // HOLIM_BENCH_SUPPORT_EXPERIMENT_H_
