// holimd_cli — the `holimd` serving daemon (and its client) in one
// binary: a long-lived serving loop in front of per-tenant HolimEngines,
// speaking the line-delimited protocol of serving/protocol.h.
//
// Modes (--mode):
//   pipe    read requests from stdin, write responses to stdout — the
//           deterministic-testing transport (default)
//   serve   bind an AF_UNIX socket (--socket) and serve clients one
//           connection at a time until a client sends "quit"
//   client  connect to --socket, forward stdin lines, print responses
//
// Examples:
//   holimd_cli --tenants=3 --tenant-nodes=400 < requests.txt
//   holimd_cli --mode=serve --socket=/tmp/holimd.sock &
//   echo "solve id=1 tenant=0 model=IC k=5" | \
//     holimd_cli --mode=client --socket=/tmp/holimd.sock
//
// The perf mechanisms are switchable so the same binary is its own
// baseline: --affinity=false --cache-policy=lru is the FIFO + plain-LRU
// configuration the serving bench compares against.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "bench_support/bench_main.h"
#include "graph/generators.h"
#include "serving/holim_server.h"

namespace holim {
namespace {

/// client mode: forward stdin lines to the socket, echo response lines.
///
/// Responses are not 1:1 with request lines — a solve below a full queue
/// is answered later, at dispatch or drain — so the loop polls both
/// directions instead of alternating write/read (which would deadlock
/// waiting for a response the server is still holding). On stdin EOF the
/// write side is half-closed so the server drains its queue; the client
/// exits once the server closes the connection.
Status RunClient(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("bad --socket path: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("connect failed: " + path);
  }
  std::string in_buffer;   // stdin bytes not yet forwarded as full lines
  std::string out_buffer;  // socket bytes not yet printed as full lines
  char chunk[4096];
  bool stdin_open = true;
  while (true) {
    pollfd fds[2] = {{fd, POLLIN, 0},
                     {stdin_open ? STDIN_FILENO : -1, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      ::close(fd);
      return Status::IOError("poll failed: " + path);
    }
    if (fds[0].revents != 0) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;  // server answered quit (or our EOF) and closed
      out_buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = out_buffer.find('\n')) != std::string::npos) {
        std::cout << out_buffer.substr(0, newline) << '\n';
        out_buffer.erase(0, newline + 1);
      }
      std::cout.flush();
    }
    if (stdin_open && fds[1].revents != 0) {
      const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
      if (n <= 0) {
        stdin_open = false;
        ::shutdown(fd, SHUT_WR);  // tells the server to drain and close
        continue;
      }
      in_buffer.append(chunk, static_cast<std::size_t>(n));
      // Forward only complete lines; the protocol is line-delimited and
      // a trailing fragment without '\n' is never a request.
      const std::size_t last = in_buffer.rfind('\n');
      if (last == std::string::npos) continue;
      const std::string ready = in_buffer.substr(0, last + 1);
      in_buffer.erase(0, last + 1);
      std::size_t sent = 0;
      while (sent < ready.size()) {
        const ssize_t wrote =
            ::write(fd, ready.data() + sent, ready.size() - sent);
        if (wrote <= 0) {
          ::close(fd);
          return Status::IOError("write failed: " + path);
        }
        sent += static_cast<std::size_t>(wrote);
      }
    }
  }
  ::close(fd);
  return Status::OK();
}

Status Run(const BenchArgs& args) {
  const auto config = ReadCommonConfig(args);
  const std::string mode = args.GetString("mode", "pipe");
  const std::string socket_path = args.GetString("socket", "/tmp/holimd.sock");
  if (mode == "client") return RunClient(socket_path);
  if (mode != "pipe" && mode != "serve") {
    return Status::InvalidArgument(
        "unknown --mode (pipe|serve|client): " + mode);
  }

  // Range-checked before the server exists: its constructor treats a zero
  // queue or sample count as a programming error.
  const int64_t queue_depth = args.GetInt("queue-depth", 32);
  if (queue_depth < 1 || queue_depth > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "--queue-depth must be a positive request count, got: " +
        std::to_string(queue_depth));
  }
  const int64_t sketches = args.GetInt("sketches", 64);
  if (sketches < 1 || sketches > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "--sketches must be a positive snapshot count, got: " +
        std::to_string(sketches));
  }
  ServerOptions options;
  options.queue_depth = static_cast<std::size_t>(queue_depth);
  options.affinity = args.GetBool("affinity", true);
  const std::string policy = args.GetString("cache-policy", "heat");
  if (policy == "heat") {
    options.cache_policy = Workspace::EvictionPolicy::kHeatBenefit;
  } else if (policy == "lru") {
    options.cache_policy = Workspace::EvictionPolicy::kLru;
  } else {
    return Status::InvalidArgument(
        "unknown --cache-policy (heat|lru): " + policy);
  }
  const double cache_mib = args.GetDouble("max-cache-mib", 0.0);
  if (cache_mib < 0) {
    return Status::InvalidArgument("--max-cache-mib must be >= 0");
  }
  options.max_cache_bytes =
      static_cast<std::size_t>(cache_mib * 1024.0 * 1024.0);
  options.num_sketches = static_cast<uint32_t>(sketches);
  options.seed = config.seed;
  options.echo_timings = args.GetBool("echo-timings", false);

  HolimServer server(options);
  const int64_t tenants = args.GetInt("tenants", 3);
  const int64_t tenant_nodes = args.GetInt("tenant-nodes", 400);
  if (tenants < 1 || tenant_nodes < 2) {
    return Status::InvalidArgument("--tenants >= 1 and --tenant-nodes >= 2");
  }
  for (int64_t t = 0; t < tenants; ++t) {
    // Per-tenant social-shaped stand-in graph, independently seeded so
    // tenants differ in topology (and thus in artifact bytes/costs).
    HOLIM_ASSIGN_OR_RETURN(
        Graph graph,
        GenerateSocialGraph(static_cast<NodeId>(tenant_nodes), 6.0,
                            config.seed + static_cast<uint64_t>(t)));
    HOLIM_RETURN_NOT_OK(server.AddTenant(std::move(graph)));
  }

  if (mode == "serve") {
    std::printf("holimd: serving %lld tenant(s) on %s\n",
                static_cast<long long>(tenants), socket_path.c_str());
    return server.ServeUnixSocket(socket_path);
  }
  return server.RunPipe(std::cin, std::cout);
}

}  // namespace
}  // namespace holim

int main(int argc, char** argv) {
  return holim::BenchMain(
      argc, argv, "holimd_cli — heat-aware influence serving daemon",
      holim::Run, [](holim::BenchArgs* args) {
        args->Declare("mode",
                      "pipe (stdin/stdout, default) | serve (AF_UNIX "
                      "socket) | client (connect to --socket)");
        args->Declare("socket",
                      "AF_UNIX socket path for serve/client modes "
                      "(default /tmp/holimd.sock)");
        args->Declare("tenants",
                      "number of tenant graphs to host (default 3)");
        args->Declare("tenant-nodes",
                      "nodes per synthetic tenant graph (default 400)");
        args->Declare("queue-depth",
                      "bounded admission queue depth; full = reject with "
                      "err code 11 (default 32)");
        args->Declare("affinity",
                      "artifact-affinity scheduling: group queued requests "
                      "sharing a sketch arena (default true; false = FIFO)");
        args->Declare("cache-policy",
                      "workspace eviction: heat (benefit-per-byte, "
                      "default) | lru (plain)");
        args->Declare("max-cache-mib",
                      "per-tenant workspace artifact budget in MiB "
                      "(default 0 = unlimited)");
        args->Declare("sketches",
                      "sketch-arena snapshot count R per tenant model "
                      "(default 64)");
        args->Declare("echo-timings",
                      "append wait_ms/solve_ms to ok-responses (default "
                      "false; off keeps responses deterministic)");
      });
}
