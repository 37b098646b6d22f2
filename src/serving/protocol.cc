#include "serving/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_support/bench_main.h"

namespace holim {

namespace {

Status BadToken(const std::string& what, const std::string& token) {
  return Status::InvalidArgument("protocol: " + what + ": " + token);
}

Result<uint64_t> ParseU64(const std::string& key, const std::string& value) {
  if (value.empty()) return BadToken("empty value for " + key, value);
  uint64_t out = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return BadToken("bad number for " + key, value);
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10) {
      return BadToken("number overflows for " + key, value);
    }
    out = out * 10 + digit;
  }
  return out;
}

Result<double> ParseMillis(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &consumed);
  } catch (...) {
    return BadToken("bad number for " + key, value);
  }
  // isfinite also refuses nan, whose comparisons are all false.
  if (consumed != value.size() || !std::isfinite(out) || out < 0.0) {
    return BadToken("bad number for " + key, value);
  }
  return out;
}

}  // namespace

Result<ProtocolRequest> ParseRequestLine(const std::string& line) {
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) return BadToken("empty request line", line);

  ProtocolRequest request;
  if (verb == "solve") {
    request.verb = RequestVerb::kSolve;
  } else if (verb == "ping") {
    request.verb = RequestVerb::kPing;
  } else if (verb == "stats") {
    request.verb = RequestVerb::kStats;
  } else if (verb == "quit") {
    request.verb = RequestVerb::kQuit;
  } else {
    return BadToken("unknown verb", verb);
  }

  std::string token;
  std::vector<std::string> seen_keys;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return BadToken("expected key=value", token);
    }
    if (request.verb != RequestVerb::kSolve) {
      return BadToken("verb takes no fields", verb + " " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // A repeated key is an error, never "last one wins".
    if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
        seen_keys.end()) {
      return BadToken("duplicate key", key);
    }
    seen_keys.push_back(key);
    if (key == "id") {
      HOLIM_ASSIGN_OR_RETURN(request.id, ParseU64(key, value));
    } else if (key == "tenant") {
      HOLIM_ASSIGN_OR_RETURN(const uint64_t tenant, ParseU64(key, value));
      if (tenant > UINT32_MAX) return BadToken("tenant out of range", value);
      request.tenant = static_cast<uint32_t>(tenant);
    } else if (key == "model") {
      if (value != "IC" && value != "WC" && value != "LT") {
        return BadToken("unknown model (IC|WC|LT)", value);
      }
      request.model = value;
    } else if (key == "algo") {
      if (value.empty()) return BadToken("empty value for algo", token);
      request.algo = value;
    } else if (key == "k") {
      HOLIM_ASSIGN_OR_RETURN(const uint64_t k, ParseU64(key, value));
      if (k == 0 || k > UINT32_MAX) return BadToken("k out of range", value);
      request.k = static_cast<uint32_t>(k);
    } else if (key == "query") {
      bool known = false;
      for (const QueryKind kind : kAllQueryKinds) {
        if (value == QueryKindName(kind)) {
          request.query = kind;
          known = true;
          break;
        }
      }
      if (!known) return BadToken("unknown query kind", value);
    } else if (key == "deadline_ms") {
      HOLIM_ASSIGN_OR_RETURN(request.deadline_ms, ParseMillis(key, value));
    } else {
      return BadToken("unknown key", key);
    }
  }
  return request;
}

std::string FormatOkResponse(const ProtocolReply& reply, bool echo_timings) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ok id=%llu tenant=%u warm_sketch=%d warm_selector=%d "
                "coalesced=%d degraded=%d tier=%s",
                static_cast<unsigned long long>(reply.id), reply.tenant,
                reply.warm_sketch ? 1 : 0, reply.warm_selector ? 1 : 0,
                reply.coalesced ? 1 : 0, reply.degraded ? 1 : 0,
                ResultTierName(reply.tier));
  std::string out = buf;
  out += " seeds=" + (reply.seeds_csv.empty() ? "-" : reply.seeds_csv);
  std::snprintf(buf, sizeof(buf), " spread=%.4f", reply.spread);
  out += buf;
  if (echo_timings) {
    std::snprintf(buf, sizeof(buf), " wait_ms=%.3f solve_ms=%.3f",
                  reply.wait_ms, reply.solve_ms);
    out += buf;
  }
  return out;
}

std::string FormatErrorResponse(uint64_t id, const Status& status) {
  std::string msg = status.message();
  for (char& c : msg) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return "err id=" + std::to_string(id) +
         " code=" + std::to_string(ExitCodeForStatus(status)) +
         " msg=" + msg;
}

}  // namespace holim
