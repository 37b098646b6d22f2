#include "serving/holim_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/workspace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace holim {
namespace {

/// Writes all of `data` to a connected socket. MSG_NOSIGNAL: a client
/// that disconnects mid-response must surface as a short write here,
/// not a process-killing SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t wrote =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) return false;
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

/// The one answer an over-long request line gets.
std::string OverLongLineResponse() {
  return FormatErrorResponse(
      0, Status::InvalidArgument("protocol: request line longer than " +
                                 std::to_string(kMaxRequestLineBytes) +
                                 " bytes"));
}

enum class LineRead { kLine, kOverLong, kEnd };

/// Reads one request line (newline stripped) into *line through a
/// kMaxRequestLineBytes + 1 byte `buffer`. A longer line is consumed
/// through its newline without being kept, and reads as kOverLong.
LineRead ReadCappedLine(std::istream& in, std::vector<char>& buffer,
                        std::string* line) {
  in.getline(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got == 0 && in.fail()) return LineRead::kEnd;
  if (in.fail() && !in.eof()) {
    // getline stopped at the cap with no newline in sight.
    in.clear();
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    return LineRead::kOverLong;
  }
  // gcount counts the newline when one ended the line.
  line->assign(buffer.data(), in.eof() ? got : got - 1);
  return LineRead::kLine;
}

}  // namespace

HolimServer::HolimServer(const ServerOptions& options) : options_(options) {
  HOLIM_CHECK(options_.queue_depth >= 1);
  HOLIM_CHECK(options_.num_sketches >= 1);
}

HolimServer::~HolimServer() = default;

Status HolimServer::AddTenant(Graph graph) {
  auto tenant = std::make_unique<Tenant>();
  tenant->graph = std::move(graph);
  if (tenant->graph.num_nodes() == 0) {
    return Status::InvalidArgument("tenant graph has no nodes");
  }
  // All three first-layer models up front: SolveRequest borrows params by
  // pointer, so they must live as long as the engine, and building them
  // here keeps Execute allocation-free on the model axis. Their
  // fingerprints wait for each model's first admission (SolveRequestFor),
  // so start-up pays no hashing.
  tenant->models.try_emplace("IC", MakeUniformIc(tenant->graph));
  tenant->models.try_emplace("WC", MakeWeightedCascade(tenant->graph));
  tenant->models.try_emplace("LT", MakeLinearThreshold(tenant->graph));
  EngineOptions engine_options;
  engine_options.max_cache_bytes = options_.max_cache_bytes;
  tenant->engine =
      std::make_unique<HolimEngine>(tenant->graph, engine_options);
  tenant->engine->workspace().set_eviction_policy(options_.cache_policy);
  tenants_.push_back(std::move(tenant));
  return Status::OK();
}

SolveRequest HolimServer::SolveRequestFor(Tenant& tenant,
                                          const ProtocolRequest& request) {
  // A tenant's params never change, so each model is hashed once per
  // process, and a served solve hashes no probabilities: the engine keys
  // its artifacts on this stored value.
  Model& model = tenant.models.at(request.model);
  if (!model.fingerprint) model.fingerprint = FingerprintParams(model.params);
  SolveRequest solve;
  solve.algorithm = request.algo;
  solve.k = std::min<uint32_t>(request.k, tenant.graph.num_nodes());
  solve.query = request.query;
  solve.params = &model.params;
  solve.params_fingerprint = model.fingerprint;
  solve.oracle = SpreadOracle::kSketch;
  solve.num_sketches = options_.num_sketches;
  solve.mc = options_.num_sketches;
  solve.seed = options_.seed;
  solve.evaluate_spread = true;
  solve.clock = options_.clock;
  return solve;
}

Status HolimServer::Submit(const ProtocolRequest& request) {
  if (request.verb != RequestVerb::kSolve) {
    return Status::InvalidArgument("only solve requests can be queued");
  }
  if (request.tenant >= tenants_.size()) {
    return Status::InvalidArgument("unknown tenant id " +
                                   std::to_string(request.tenant));
  }
  if (queue_full()) {
    ++stats_.rejected;
    return Status::ResourceExhausted(
        "admission queue full (depth " +
        std::to_string(options_.queue_depth) + ")");
  }
  Tenant& tenant = *tenants_[request.tenant];
  Pending pending;
  pending.request = request;
  pending.solve = SolveRequestFor(tenant, request);
  // The arena the engine will fetch: the affinity scheduler and the
  // coalescing counter key on it.
  pending.arena_key = HolimEngine::SketchKeyFor(
      pending.solve, *pending.solve.params_fingerprint);
  pending.enqueue_nanos = clock().NowNanos();
  pending.cold_at_admission =
      tenant.engine->workspace().PeekSketchOracle(pending.arena_key) ==
      nullptr;
  queue_.push_back(std::move(pending));
  ++stats_.admitted;
  return Status::OK();
}

Result<ProtocolReply> HolimServer::DispatchNext() {
  if (queue_.empty()) return Status::NotFound("serving queue is empty");
  Pending pending = PopNext();
  Result<ProtocolReply> reply = Execute(pending);
  if (!reply.ok()) ++stats_.failed;
  return reply;
}

HolimServer::Pending HolimServer::PopNext() {
  auto it = queue_.begin();
  if (options_.affinity && last_arena_key_.has_value()) {
    // Earliest queued request sharing the last-dispatched arena: the
    // whole same-key group runs back to back off one build. Falls back
    // to FIFO front, so no request can starve longer than one group.
    for (auto q = queue_.begin(); q != queue_.end(); ++q) {
      if (q->arena_key == last_arena_key_) {
        it = q;
        break;
      }
    }
  }
  Pending pending = std::move(*it);
  queue_.erase(it);
  return pending;
}

Result<ProtocolReply> HolimServer::Execute(const Pending& pending) {
  Tenant& tenant = *tenants_[pending.request.tenant];
  SolveRequest request = pending.solve;

  // Queue-wait deadline charging: the request's deadline budget started
  // at admission. Overstayed requests still get an answer — work_budget=1
  // expires at the first checkpoint, which lands them deterministically
  // in the heuristic degradation tier (the overload response).
  const double wait_ms = static_cast<double>(clock().NowNanos() -
                                             pending.enqueue_nanos) /
                         1e6;
  if (pending.request.deadline_ms > 0.0) {
    const double remaining = pending.request.deadline_ms - wait_ms;
    if (remaining <= 0.0) {
      request.work_budget = 1;
      ++stats_.expired_in_queue;
    } else {
      request.deadline_ms = remaining;
    }
  }

  Timer solve_timer;
  HOLIM_ASSIGN_OR_RETURN(SolveResult result, tenant.engine->Solve(request));

  ProtocolReply reply;
  reply.id = pending.request.id;
  reply.tenant = pending.request.tenant;
  reply.warm_sketch = result.warm_sketch;
  reply.warm_selector = result.warm_selector;
  reply.coalesced = pending.cold_at_admission && result.warm_sketch;
  reply.degraded = result.degraded;
  reply.tier = result.tier;
  reply.spread = result.spread;
  reply.wait_ms = wait_ms;
  reply.solve_ms = solve_timer.ElapsedMillis();
  for (std::size_t i = 0; i < result.seeds.size(); ++i) {
    if (i) reply.seeds_csv += ',';
    reply.seeds_csv += std::to_string(result.seeds[i]);
  }

  ++stats_.served;
  if (result.warm_answer) ++stats_.warm_answers;
  if (result.warm_sketch) {
    ++stats_.warm_sketch_hits;
    if (reply.coalesced) ++stats_.coalesced;
  } else if (result.sketch_arena_bytes != 0) {
    // A cold arena was actually built (an expired-in-queue heuristic
    // solve builds nothing and counts nowhere).
    ++stats_.sketch_builds;
  }
  last_arena_key_ = pending.arena_key;
  return reply;
}

std::string HolimServer::DispatchOneLine() {
  Pending pending = PopNext();
  Result<ProtocolReply> reply = Execute(pending);
  if (reply.ok()) return FormatOkResponse(*reply, options_.echo_timings);
  ++stats_.failed;
  return FormatErrorResponse(pending.request.id, reply.status());
}

void HolimServer::DrainQueue(std::vector<std::string>* lines) {
  while (!queue_.empty()) lines->push_back(DispatchOneLine());
}

std::string HolimServer::FormatStats() const {
  // Built by appending, so no counter width can truncate the line.
  std::string line = "stats tenants=" + std::to_string(tenants_.size());
  auto field = [&line](const char* name, uint64_t value) {
    line += ' ';
    line += name;
    line += '=';
    line += std::to_string(value);
  };
  field("admitted", stats_.admitted);
  field("rejected", stats_.rejected);
  field("served", stats_.served);
  field("failed", stats_.failed);
  field("builds", stats_.sketch_builds);
  field("warm_sketch_hits", stats_.warm_sketch_hits);
  field("coalesced", stats_.coalesced);
  field("expired_in_queue", stats_.expired_in_queue);
  field("warm_answers", stats_.warm_answers);
  return line;
}

void HolimServer::HandleLine(const std::string& line,
                             std::vector<std::string>* out_lines,
                             bool* quit) {
  // Blank lines and #-comments keep request scripts human-editable.
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') return;

  Result<ProtocolRequest> parsed = ParseRequestLine(line);
  if (!parsed.ok()) {
    out_lines->push_back(FormatErrorResponse(0, parsed.status()));
    return;
  }
  const ProtocolRequest& request = *parsed;
  switch (request.verb) {
    case RequestVerb::kPing:
      out_lines->push_back("pong");
      return;
    case RequestVerb::kStats:
      DrainQueue(out_lines);
      out_lines->push_back(FormatStats());
      return;
    case RequestVerb::kQuit:
      DrainQueue(out_lines);
      out_lines->push_back("bye");
      *quit = true;
      return;
    case RequestVerb::kSolve:
      break;
  }
  // Closed-loop admission: a solve line meeting a full queue first frees
  // one slot by dispatching, so the interleaving — and therefore every
  // response byte — is a pure function of the script.
  if (queue_full()) out_lines->push_back(DispatchOneLine());
  const Status submitted = Submit(request);
  if (!submitted.ok()) {
    out_lines->push_back(FormatErrorResponse(request.id, submitted));
  }
}

Status HolimServer::RunPipe(std::istream& in, std::ostream& out) {
  // Line-at-a-time reads: a read-ahead would block a closed-loop client
  // that waits for its answer before sending the next line.
  std::vector<char> buffer(kMaxRequestLineBytes + 1);
  std::string line;
  std::vector<std::string> lines;
  bool quit = false;
  while (!quit) {
    const LineRead read = ReadCappedLine(in, buffer, &line);
    if (read == LineRead::kEnd) break;
    lines.clear();
    if (read == LineRead::kOverLong) {
      lines.push_back(OverLongLineResponse());
    } else {
      HandleLine(line, &lines, &quit);
    }
    for (const std::string& response : lines) out << response << '\n';
    out.flush();
  }
  if (!quit) {
    // EOF without quit: answer everything still queued.
    lines.clear();
    DrainQueue(&lines);
    for (const std::string& response : lines) out << response << '\n';
    out.flush();
  }
  return Status::OK();
}

Status HolimServer::ServeUnixSocket(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("bad socket path: " + path);
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) return Status::IOError("socket(): " + path);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    ::close(listener);
    return Status::IOError("bind/listen failed on " + path);
  }
  bool quit = false;
  while (!quit) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      ::close(listener);
      return Status::IOError("accept failed on " + path);
    }
    // One client at a time, line-buffered over the raw fd; the protocol
    // and loop semantics are RunPipe's exactly. Each read is scanned once,
    // and `line` holds at most one capped line: an over-long line is
    // answered when it crosses the cap, then dropped through its newline.
    std::string line;
    bool over_long = false;
    std::vector<std::string> lines;
    char chunk[4096];
    ssize_t n = 0;
    bool connected = true;
    while (connected && !quit &&
           (n = ::read(client, chunk, sizeof(chunk))) > 0) {
      const char* next = chunk;
      const char* const end = chunk + n;
      while (connected && !quit && next != end) {
        const char* newline = static_cast<const char*>(
            std::memchr(next, '\n', static_cast<std::size_t>(end - next)));
        const char* stop = newline != nullptr ? newline : end;
        lines.clear();
        if (!over_long) {
          if (line.size() + static_cast<std::size_t>(stop - next) >
              kMaxRequestLineBytes) {
            over_long = true;
            line.clear();
            lines.push_back(OverLongLineResponse());
          } else {
            line.append(next, stop);
          }
        }
        if (newline != nullptr) {
          if (!over_long) HandleLine(line, &lines, &quit);
          line.clear();
          over_long = false;
        }
        next = newline != nullptr ? newline + 1 : end;
        std::string response;
        for (const std::string& l : lines) response += l + "\n";
        connected = SendAll(client, response);
      }
    }
    if (!quit) {
      // EOF without quit: answer everything still queued, matching
      // RunPipe. A half-closing client (shutdown(SHUT_WR) after its last
      // request) is still reading and receives these.
      lines.clear();
      DrainQueue(&lines);
      std::string response;
      for (const std::string& l : lines) response += l + "\n";
      SendAll(client, response);
    }
    ::close(client);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return Status::OK();
}

}  // namespace holim
