// holimd protocol fuzz: seeded random request scripts through RunPipe.
//
// Each script mixes valid solves with hostile lines: NULs, bare '=',
// duplicate and unknown keys, 20-digit numbers, huge / inf / nan
// deadlines, CR endings, random bytes, and lines at and past the
// kMaxRequestLineBytes cap. The last line has no newline. The server must
// answer every solve and ping exactly once, every ok line must parse, and
// the stats counters must agree with the responses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "serving/holim_server.h"
#include "serving/protocol.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace holim {
namespace {

constexpr uint32_t kNodes = 200;

/// What one script line must get back.
enum class Expect {
  kNothing,     ///< blank or comment
  kParseError,  ///< one "err id=0 code=2" (malformed or over-long)
  kSolve,       ///< one "ok" or "err" carrying the request's id
  kPing,        ///< "pong"
  kStats,       ///< one stats line
};

/// The serving loop's reading of `line`, mirrored from HandleLine.
Expect Classify(const std::string& line, ProtocolRequest* request) {
  if (line.size() > kMaxRequestLineBytes) return Expect::kParseError;
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') {
    return Expect::kNothing;
  }
  Result<ProtocolRequest> parsed = ParseRequestLine(line);
  if (!parsed.ok()) return Expect::kParseError;
  *request = *parsed;
  switch (parsed->verb) {
    case RequestVerb::kPing:
      return Expect::kPing;
    case RequestVerb::kStats:
      return Expect::kStats;
    case RequestVerb::kSolve:
      return Expect::kSolve;
    case RequestVerb::kQuit:
      break;
  }
  ADD_FAILURE() << "the fuzz scripts never quit: " << line;
  return Expect::kNothing;
}

/// Seeded script lines. Lines built to be surely valid or surely
/// malformed say so; the rest (NULs, CRs, random bytes) are read by
/// Classify alone.
class ScriptGenerator {
 public:
  explicit ScriptGenerator(uint64_t seed) : rng_(seed) {}

  struct Line {
    std::string text;
    bool known = false;  ///< `expect` is what the line was built to get
    Expect expect = Expect::kNothing;
  };

  Line Next() {
    switch (rng_.NextBounded(16)) {
      case 0:
      case 1:
      case 2:
      case 3:
        return Known(SolveLine(ValidFields()), Expect::kSolve);
      case 4:
        return Known(SolveLine(ServedWithError()), Expect::kSolve);
      case 5:
        return Known(SolveLine(Malformed()), Expect::kParseError);
      case 6:
        return Known(Pick({"ping", " ping", "ping\t"}), Expect::kPing);
      case 7:
        return Known(Pick({"stats", "stats "}), Expect::kStats);
      case 8:
        return Known(Pick({"", "   ", "# comment", " \t# indented"}),
                     Expect::kNothing);
      case 9:
        return Known(Pick({"ping id=1", "stats x=1", "solv id=1", "SOLVE",
                           "=", "solve =", "solve id"}),
                     Expect::kParseError);
      case 10:
        return Unknown(WithNul(SolveLine(ValidFields())));
      case 11:
        return Unknown(SolveLine(ValidFields()) + "\r");
      case 12:
        return Unknown(RandomBytes());
      case 13:
        return CapLine();
      default:
        return Known(SolveLine(ValidFields()), Expect::kSolve);
    }
  }

  /// A valid solve, for the script's newline-free last line.
  Line LastLine() { return Known(SolveLine(ValidFields()), Expect::kSolve); }

 private:
  static Line Known(std::string text, Expect expect) {
    return {std::move(text), true, expect};
  }
  static Line Unknown(std::string text) { return {std::move(text), false}; }

  std::string Pick(std::initializer_list<const char*> options) {
    return *(options.begin() + rng_.NextBounded(options.size()));
  }

  /// A fresh id: small, or a 20-digit one that still fits in 64 bits.
  std::string FreshId() {
    const uint64_t id = next_id_++;
    return std::to_string(rng_.NextBounded(8) == 0
                              ? 10'000'000'000'000'000'000ULL + id
                              : id);
  }

  /// Fields of a solve that parses and is admitted. The deadlines never
  /// fire on the frozen clock, except 1e-300 ms (due at once), which the
  /// sketch-objective CELF is spared: its arena build would stop, and the
  /// build count below assumes every ok answer fetched its arena.
  std::vector<std::string> ValidFields() {
    std::vector<std::string> fields = {
        "id=" + FreshId(), "tenant=0", "model=" + Pick({"IC", "WC", "LT"}),
        "k=" + std::to_string(1 + rng_.NextBounded(8))};
    const std::string algo = Pick({"easyim", "degreediscount", "degree", ""});
    if (!algo.empty()) fields.push_back("algo=" + algo);  // default: celf
    if (rng_.NextBounded(2) == 0) {
      std::string deadline =
          Pick({"1e300", "9.3e12", "1e19", "18446744073709551616", "5000",
                "0.25", "1e-300"});
      if (algo.empty() && deadline == "1e-300") deadline = "1e300";
      fields.push_back("deadline_ms=" + deadline);
    }
    return fields;
  }

  /// `fields` with `token` in place of the field of the same key.
  static std::vector<std::string> With(std::vector<std::string> fields,
                                       const std::string& token) {
    const std::string key = token.substr(0, token.find('=') + 1);
    std::erase_if(fields,
                  [&key](const std::string& f) { return f.rfind(key, 0) == 0; });
    fields.push_back(token);
    return fields;
  }

  /// Fields that parse but whose solve is answered with an err line: an
  /// unknown tenant (refused at admission), or an engine-side error.
  std::vector<std::string> ServedWithError() {
    switch (rng_.NextBounded(3)) {
      case 0:
        return With(ValidFields(), "tenant=" + Pick({"1", "4294967295"}));
      case 1:
        return With(ValidFields(), "algo=" + Pick({"nosuchalgo", "celf\x01"}));
      default:
        return With(ValidFields(), "query=" + Pick({"evaluate", "explain",
                                                    "budgeted", "targeted"}));
    }
  }

  /// Valid fields with one token that must fail the parse.
  std::vector<std::string> Malformed() {
    std::vector<std::string> fields = ValidFields();
    switch (rng_.NextBounded(5)) {
      case 0:  // no key, or no '='
        fields.push_back(Pick({"=", "=5", "id", "k"}));
        return fields;
      case 1:  // a repeated key
        fields.push_back(fields[rng_.NextBounded(fields.size())]);
        return fields;
      case 2:
        fields.push_back(Pick({"foo=1", "ID=1", "seed=3", "k_=2"}));
        return fields;
      case 3:  // 20-digit numbers past uint64 or past the field's range
        return With(fields, Pick({"id=99999999999999999999",
                                  "id=18446744073709551616",
                                  "k=12345678901234567890",
                                  "tenant=12345678901234567890", "k=0",
                                  "k=-1", "k=", "model=XX", "tenant="}));
      default:
        return With(fields, "deadline_ms=" + Pick({"nan", "NaN", "-nan", "-1",
                                                   "inf", "infinity", "INF",
                                                   "-inf", "1e999", "0x",
                                                   "5ms", ""}));
    }
  }

  /// "solve" plus `fields`, shuffled and joined by spaces or tabs.
  std::string SolveLine(std::vector<std::string> fields) {
    for (std::size_t i = fields.size(); i > 1; --i) {
      std::swap(fields[i - 1], fields[rng_.NextBounded(i)]);
    }
    std::string line = "solve";
    for (const std::string& field : fields) {
      line += rng_.NextBounded(4) == 0 ? "\t" : " ";
      line += field;
    }
    return line;
  }

  std::string WithNul(std::string line) {
    line.insert(rng_.NextBounded(line.size() + 1), 1, '\0');
    return line;
  }

  std::string RandomBytes() {
    std::string line(1 + rng_.NextBounded(60), '\0');
    for (char& c : line) {
      do {
        c = static_cast<char>(rng_.NextBounded(256));
      } while (c == '\n');
    }
    return line;
  }

  /// Lines at the cap (served as usual) and past it (one typed error).
  Line CapLine() {
    switch (rng_.NextBounded(4)) {
      case 0: {
        std::string line = SolveLine(ValidFields());
        line.resize(kMaxRequestLineBytes, ' ');
        return Known(std::move(line), Expect::kSolve);
      }
      case 1:
        return Known("#" + std::string(kMaxRequestLineBytes - 1, 'c'),
                     Expect::kNothing);
      case 2: {
        std::string line = SolveLine(ValidFields());
        line.resize(kMaxRequestLineBytes + 1, ' ');
        return Known(std::move(line), Expect::kParseError);
      }
      default:
        return Known(std::string(kMaxRequestLineBytes + 1 +
                                     rng_.NextBounded(3 * kMaxRequestLineBytes),
                                 'x'),
                     Expect::kParseError);
    }
  }

  Rng rng_;
  uint64_t next_id_ = 1;
};

bool ParseU64Strict(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  std::size_t used = 0;
  try {
    *out = std::stoull(text, &used);
  } catch (...) {
    return false;
  }
  return used == text.size();
}

/// The fields of one ok line.
struct OkLine {
  uint64_t id = 0;
  bool warm_sketch = false;
  bool coalesced = false;
  bool degraded = false;
  std::string tier;
  std::vector<uint64_t> seeds;
  double spread = 0.0;
};

/// Parses an ok line against the protocol's exact field order.
testing::AssertionResult ParseOkLine(const std::string& line, OkLine* out) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  const char* const keys[] = {"id",        "tenant",   "warm_sketch",
                              "warm_selector", "coalesced", "degraded",
                              "tier",      "seeds",    "spread"};
  if (tokens.size() != 10 || tokens[0] != "ok") {
    return testing::AssertionFailure() << "bad shape: " << line;
  }
  std::map<std::string, std::string> value;
  for (int i = 0; i < 9; ++i) {
    const std::string prefix = std::string(keys[i]) + "=";
    if (tokens[i + 1].rfind(prefix, 0) != 0) {
      return testing::AssertionFailure() << "want " << prefix << ": " << line;
    }
    value[keys[i]] = tokens[i + 1].substr(prefix.size());
  }
  uint64_t tenant = 1;
  if (!ParseU64Strict(value["id"], &out->id) ||
      !ParseU64Strict(value["tenant"], &tenant) || tenant != 0) {
    return testing::AssertionFailure() << "bad id/tenant: " << line;
  }
  for (const char* flag :
       {"warm_sketch", "warm_selector", "coalesced", "degraded"}) {
    if (value[flag] != "0" && value[flag] != "1") {
      return testing::AssertionFailure() << "bad " << flag << ": " << line;
    }
  }
  out->warm_sketch = value["warm_sketch"] == "1";
  out->coalesced = value["coalesced"] == "1";
  out->degraded = value["degraded"] == "1";
  out->tier = value["tier"];
  if (out->tier != "full" && out->tier != "prefix" &&
      out->tier != "heuristic") {
    return testing::AssertionFailure() << "bad tier: " << line;
  }
  std::istringstream csv(value["seeds"]);
  for (std::string id; std::getline(csv, id, ',');) {
    uint64_t seed = 0;
    if (!ParseU64Strict(id, &seed) || seed >= kNodes) {
      return testing::AssertionFailure() << "bad seed '" << id << "': " << line;
    }
    out->seeds.push_back(seed);
  }
  std::size_t used = 0;
  try {
    out->spread = std::stod(value["spread"], &used);
  } catch (...) {
    used = 0;
  }
  if (used == 0 || used != value["spread"].size() ||
      !std::isfinite(out->spread) || out->spread < 0.0) {
    return testing::AssertionFailure() << "bad spread: " << line;
  }
  return testing::AssertionSuccess();
}

/// Running counters, in ServerStats' terms, as the responses imply them.
struct Tally {
  uint64_t admitted = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t builds = 0;
  uint64_t warm_sketch_hits = 0;
  uint64_t coalesced = 0;

  std::string StatsLine() const {
    return "stats tenants=1 admitted=" + std::to_string(admitted) +
           " rejected=0 served=" + std::to_string(served) +
           " failed=" + std::to_string(failed) +
           " builds=" + std::to_string(builds) +
           " warm_sketch_hits=" + std::to_string(warm_sketch_hits) +
           " coalesced=" + std::to_string(coalesced) + " expired_in_queue=0";
  }
};

/// One seeded script through a fresh 1-tenant, 200-node server; the raw
/// responses land in `*output`.
void RunScript(uint64_t seed, int num_lines, std::string* output) {
  ScriptGenerator generator(seed);
  std::vector<std::string> lines;
  std::vector<Expect> expects;
  std::map<uint64_t, ProtocolRequest> solves;  // by id
  std::vector<uint64_t> admitted_at_stats;     // per stats line
  uint64_t admitted = 0;
  std::size_t pings = 0;
  std::size_t parse_errors = 0;
  for (int i = 0; i < num_lines; ++i) {
    const ScriptGenerator::Line line =
        i + 1 < num_lines ? generator.Next() : generator.LastLine();
    ProtocolRequest request;
    const Expect expect = Classify(line.text, &request);
    if (line.known) {
      EXPECT_EQ(static_cast<int>(expect), static_cast<int>(line.expect))
          << "line " << i << ": " << line.text;
    }
    switch (expect) {
      case Expect::kNothing:
        break;
      case Expect::kParseError:
        ++parse_errors;
        break;
      case Expect::kPing:
        ++pings;
        break;
      case Expect::kStats:
        admitted_at_stats.push_back(admitted);
        break;
      case Expect::kSolve:
        // Every generated id is fresh; a repeat would hide a lost answer.
        EXPECT_TRUE(solves.emplace(request.id, request).second)
            << "line " << i << ": " << line.text;
        if (request.tenant == 0) ++admitted;
        break;
    }
    lines.push_back(line.text);
    expects.push_back(expect);
  }
  std::string script;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    script += lines[i];
    if (i + 1 < lines.size()) script += '\n';  // no final newline
  }

  // A frozen clock: queue waits are 0 and no deadline fires by time, so
  // the run is a pure function of the script.
  ManualClock clock;
  ServerOptions options;
  options.queue_depth = 4;
  options.num_sketches = 32;
  options.seed = 7;
  options.max_cache_bytes = 40 * 1024;  // tight: arenas evict and rebuild
  options.clock = &clock;
  HolimServer server(options);
  EXPECT_TRUE(
      server.AddTenant(GenerateSocialGraph(kNodes, 4.0, seed).ValueOrDie())
          .ok());
  std::istringstream in(script);
  std::ostringstream out;
  EXPECT_TRUE(server.RunPipe(in, out).ok());
  *output = out.str();

  Tally tally;
  std::map<uint64_t, int> answers;  // by id
  std::size_t pongs = 0;
  std::size_t id0_errors = 0;
  std::size_t stats_seen = 0;
  std::istringstream responses(*output);
  for (std::string response; std::getline(responses, response);) {
    if (response == "pong") {
      ++pongs;
    } else if (response.rfind("stats ", 0) == 0) {
      ASSERT_LT(stats_seen, admitted_at_stats.size()) << response;
      tally.admitted = admitted_at_stats[stats_seen++];
      EXPECT_EQ(response, tally.StatsLine());
    } else if (response.rfind("err id=", 0) == 0) {
      uint64_t id = 0;
      const std::size_t end = response.find(' ', 7);
      ASSERT_TRUE(ParseU64Strict(response.substr(7, end - 7), &id))
          << response;
      EXPECT_EQ(response.compare(end, 8, " code=2 "), 0) << response;
      if (id == 0) {
        ++id0_errors;
        continue;
      }
      ++answers[id];
      const auto solve = solves.find(id);
      ASSERT_NE(solve, solves.end()) << response;
      if (solve->second.tenant == 0) ++tally.failed;
    } else {
      OkLine ok;
      ASSERT_TRUE(ParseOkLine(response, &ok));
      ++answers[ok.id];
      const auto solve = solves.find(ok.id);
      ASSERT_NE(solve, solves.end()) << response;
      const uint64_t k = std::min<uint64_t>(solve->second.k, kNodes);
      EXPECT_EQ(ok.degraded, ok.tier != "full") << response;
      EXPECT_TRUE(!ok.coalesced || ok.warm_sketch) << response;
      EXPECT_FALSE(ok.seeds.empty()) << response;
      EXPECT_LE(ok.seeds.size(), k) << response;
      EXPECT_EQ(std::set<uint64_t>(ok.seeds.begin(), ok.seeds.end()).size(),
                ok.seeds.size())
          << response;
      // Degraded answers skip the evaluation; full ones count their seeds.
      if (ok.degraded) {
        EXPECT_EQ(ok.spread, 0.0) << response;
      } else {
        EXPECT_GE(ok.spread, static_cast<double>(ok.seeds.size())) << response;
      }
      ++tally.served;
      if (ok.warm_sketch) {
        ++tally.warm_sketch_hits;
      } else {
        ++tally.builds;
      }
      if (ok.coalesced) ++tally.coalesced;
    }
  }
  EXPECT_EQ(pongs, pings);
  EXPECT_EQ(stats_seen, admitted_at_stats.size());
  EXPECT_EQ(id0_errors, parse_errors);
  for (const auto& [id, request] : solves) {
    EXPECT_EQ(answers[id], 1) << "solve id=" << id;
  }
  EXPECT_EQ(answers.size(), solves.size());

  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.admitted, admitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.served, tally.served);
  EXPECT_EQ(stats.failed, tally.failed);
  EXPECT_EQ(stats.sketch_builds, tally.builds);
  EXPECT_EQ(stats.warm_sketch_hits, tally.warm_sketch_hits);
  EXPECT_EQ(stats.coalesced, tally.coalesced);
  EXPECT_EQ(stats.expired_in_queue, 0u);
  EXPECT_EQ(stats.admitted, stats.served + stats.failed);
}

TEST(ServingFuzzTest, EveryRequestIsAnsweredOnceAndCountersAgree) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string output;
    RunScript(seed, 240, &output);
    if (HasFatalFailure()) return;
  }
}

TEST(ServingFuzzTest, ScriptsReplayByteForByte) {
  std::string first;
  std::string second;
  RunScript(99, 160, &first);
  RunScript(99, 160, &second);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace holim
