#ifndef HOLIM_SERVING_PROTOCOL_H_
#define HOLIM_SERVING_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/solve_request.h"
#include "util/status.h"

namespace holim {

/// \brief holimd's line-delimited request protocol.
///
/// One request per line, space-separated tokens: a verb followed by
/// key=value fields (order-free, no quoting — values may not contain
/// whitespace). Blank lines and lines starting with '#' are ignored by
/// the serving loop. The same grammar is spoken over the local socket and
/// over stdin/stdout pipe mode, so a request script exercises the exact
/// production parse path.
///
/// Verbs:
///   solve id=<n> tenant=<t> model=IC|WC|LT k=<n>
///         [algo=<name>] [query=topk|...] [deadline_ms=<ms>]
///   ping                      -> "pong"
///   stats                     -> drains the queue, then one counter line
///   quit                      -> drains the queue, replies "bye", exits
///
/// Responses (one line each):
///   ok id=<n> tenant=<t> warm_sketch=0|1 warm_selector=0|1 coalesced=0|1
///      degraded=0|1 tier=<full|prefix|heuristic> seeds=<a,b,c>
///      spread=<%.4f> [wait_ms=<ms> solve_ms=<ms>]
///   err id=<n> code=<exit-code> msg=<message-with-underscores>
///
/// Timing fields only appear when the server echoes timings (off by
/// default): responses are then a pure function of the request stream,
/// which is what the deterministic pipe-mode smoke diffs.
///
/// A request line may hold at most kMaxRequestLineBytes bytes before its
/// newline. A longer line is answered with one `err id=0 code=2` and
/// skipped through its newline; the lines after it are served as usual.
enum class RequestVerb { kSolve, kPing, kStats, kQuit };

/// The request-line cap: far above any real request (a solve line that
/// sets every field stays under 200 bytes).
inline constexpr std::size_t kMaxRequestLineBytes = 4096;

/// One parsed request line.
struct ProtocolRequest {
  RequestVerb verb = RequestVerb::kSolve;
  uint64_t id = 0;
  uint32_t tenant = 0;
  std::string model = "IC";
  std::string algo = "celf";
  uint32_t k = 10;
  QueryKind query = QueryKind::kTopK;
  double deadline_ms = 0.0;
};

/// Parses one protocol line (verb + key=value fields). InvalidArgument on
/// an unknown verb, unknown key, malformed number, or out-of-range value
/// (deadline_ms must be finite and >= 0); the message names the offending
/// token.
Result<ProtocolRequest> ParseRequestLine(const std::string& line);

/// What a dispatched solve answers with — the response-relevant slice of
/// the SolveResult plus the serving-side bookkeeping.
struct ProtocolReply {
  uint64_t id = 0;
  uint32_t tenant = 0;
  bool warm_sketch = false;
  bool warm_selector = false;
  /// This request missed its artifact at admission but found it built by
  /// the time it was dispatched — its build was coalesced away.
  bool coalesced = false;
  bool degraded = false;
  ResultTier tier = ResultTier::kFull;
  std::string seeds_csv;  ///< comma-joined seed ids
  double spread = 0.0;
  double wait_ms = 0.0;   ///< time spent queued
  double solve_ms = 0.0;  ///< engine Solve wall time
};

/// Renders the "ok ..." line. `echo_timings` appends wait_ms/solve_ms —
/// leave it off wherever byte-identical replay matters.
std::string FormatOkResponse(const ProtocolReply& reply, bool echo_timings);

/// Renders the "err ..." line for a failed request. The status message is
/// whitespace-mangled (spaces -> '_') to keep the one-line grammar.
std::string FormatErrorResponse(uint64_t id, const Status& status);

}  // namespace holim

#endif  // HOLIM_SERVING_PROTOCOL_H_
