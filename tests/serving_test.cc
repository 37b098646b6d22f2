// HolimServer tests: protocol parsing, bounded-queue admission control,
// artifact-affinity dispatch order, exact coalesced-build counting,
// queue-wait deadline charging on an injected clock, the
// byte-determinism of pipe mode, the scheduling-never-changes-results
// contract (heat+affinity vs FIFO+LRU per-id seed parity), and the
// request-line cap in pipe and socket mode.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "serving/holim_server.h"
#include "serving/protocol.h"
#include "util/deadline.h"

namespace holim {
namespace {

/// Small, fast server: one or two 150-node tenants, R=32 arenas, a cheap
/// selector — every test below runs in milliseconds.
ServerOptions FastOptions() {
  ServerOptions options;
  options.queue_depth = 8;
  options.affinity = true;
  options.cache_policy = Workspace::EvictionPolicy::kHeatBenefit;
  options.max_cache_bytes = 0;
  options.num_sketches = 32;
  options.seed = 7;
  return options;
}

ProtocolRequest Solve(uint64_t id, uint32_t tenant, const std::string& model,
                      uint32_t k = 4) {
  ProtocolRequest request;
  request.verb = RequestVerb::kSolve;
  request.id = id;
  request.tenant = tenant;
  request.model = model;
  request.algo = "degreediscount";
  request.k = k;
  return request;
}

void AddTenants(HolimServer& server, int count) {
  for (int t = 0; t < count; ++t) {
    ASSERT_TRUE(
        server.AddTenant(GenerateSocialGraph(150, 5.0, 100 + t).ValueOrDie())
            .ok());
  }
}

TEST(ProtocolTest, ParsesTheFullSolveGrammar) {
  auto parsed = ParseRequestLine(
      "solve id=7 tenant=1 model=WC k=6 algo=degreediscount deadline_ms=2.5");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->verb, RequestVerb::kSolve);
  EXPECT_EQ(parsed->id, 7u);
  EXPECT_EQ(parsed->tenant, 1u);
  EXPECT_EQ(parsed->model, "WC");
  EXPECT_EQ(parsed->k, 6u);
  EXPECT_EQ(parsed->algo, "degreediscount");
  EXPECT_EQ(parsed->deadline_ms, 2.5);

  // Field order is free; omitted fields keep their defaults.
  auto sparse = ParseRequestLine("solve k=3 id=9");
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->model, "IC");
  EXPECT_EQ(sparse->tenant, 0u);

  EXPECT_EQ(ParseRequestLine("ping").ValueOrDie().verb, RequestVerb::kPing);
  EXPECT_EQ(ParseRequestLine("stats").ValueOrDie().verb, RequestVerb::kStats);
  EXPECT_EQ(ParseRequestLine("quit").ValueOrDie().verb, RequestVerb::kQuit);
}

TEST(ProtocolTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("frobnicate").ok());
  EXPECT_FALSE(ParseRequestLine("solve id=abc").ok());
  EXPECT_FALSE(ParseRequestLine("solve bogus=1").ok());
  EXPECT_FALSE(ParseRequestLine("solve id").ok());
  EXPECT_FALSE(ParseRequestLine("solve model=XX").ok());
  EXPECT_FALSE(ParseRequestLine("solve k=0").ok());
  EXPECT_FALSE(ParseRequestLine("solve deadline_ms=-1").ok());
  // A deadline must be finite: inf is refused at parse, as nan is.
  for (const char* bad : {"inf", "infinity", "INF", "+inf", "nan"}) {
    EXPECT_EQ(ParseRequestLine(std::string("solve deadline_ms=") + bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_FALSE(ParseRequestLine("ping id=1").ok());  // verb takes no fields
  // A repeated key is rejected, not overwritten by its last occurrence.
  const auto twice_id =
      ParseRequestLine("solve id=8 id=9 tenant=0 model=IC k=5");
  EXPECT_EQ(twice_id.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequestLine("solve id=8 tenant=0 model=IC k=5 k=6")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerTest, AdmissionControlRejectsWhenFull) {
  ServerOptions options = FastOptions();
  options.queue_depth = 2;
  HolimServer server(options);
  AddTenants(server, 1);

  EXPECT_TRUE(server.Submit(Solve(1, 0, "IC")).ok());
  EXPECT_TRUE(server.Submit(Solve(2, 0, "IC")).ok());
  EXPECT_TRUE(server.queue_full());
  const Status third = server.Submit(Solve(3, 0, "IC"));
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().admitted, 2u);
  EXPECT_EQ(server.queue_size(), 2u);

  // Non-solve verbs and unknown tenants never enter the queue.
  ProtocolRequest ping;
  ping.verb = RequestVerb::kPing;
  EXPECT_EQ(server.Submit(ping).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(Solve(4, 9, "IC")).code(),
            StatusCode::kInvalidArgument);

  // Draining frees the slot again.
  ASSERT_TRUE(server.DispatchNext().ok());
  EXPECT_FALSE(server.queue_full());
  EXPECT_TRUE(server.Submit(Solve(5, 0, "IC")).ok());
}

TEST(ServerTest, AffinityRunsSameKeyGroupsBackToBack) {
  // Queue [IC, WC, IC]: affinity dispatches IC, IC, WC (one IC build for
  // the group); FIFO dispatches in order and pays the same build anyway —
  // but the second IC is no longer adjacent, which the coalescing test
  // below turns into a counted difference under a byte budget.
  const auto dispatch_order = [](bool affinity) {
    ServerOptions options = FastOptions();
    options.affinity = affinity;
    HolimServer server(options);
    AddTenants(server, 1);
    EXPECT_TRUE(server.Submit(Solve(1, 0, "IC")).ok());
    EXPECT_TRUE(server.Submit(Solve(2, 0, "WC")).ok());
    EXPECT_TRUE(server.Submit(Solve(3, 0, "IC")).ok());
    std::vector<uint64_t> ids;
    while (server.queue_size() > 0) {
      ids.push_back(server.DispatchNext().ValueOrDie().id);
    }
    return ids;
  };
  EXPECT_EQ(dispatch_order(true), (std::vector<uint64_t>{1, 3, 2}));
  EXPECT_EQ(dispatch_order(false), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(ServerTest, CoalescedCountsQueuedMissesServedWarm) {
  HolimServer server(FastOptions());
  AddTenants(server, 1);

  // Both IC requests are admitted while the arena is cold; dispatching
  // the first builds it, so the second is a coalesced miss — one build
  // for two queued misses, counted exactly.
  EXPECT_TRUE(server.Submit(Solve(1, 0, "IC")).ok());
  EXPECT_TRUE(server.Submit(Solve(2, 0, "IC")).ok());
  auto first = server.DispatchNext();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->warm_sketch);
  EXPECT_FALSE(first->coalesced);
  auto second = server.DispatchNext();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->warm_sketch);
  EXPECT_TRUE(second->coalesced);
  EXPECT_EQ(second->seeds_csv, first->seeds_csv);  // reuse is invisible

  // A request admitted AFTER the arena exists is warm but not coalesced —
  // no build was saved by scheduling; it was simply a cache hit.
  EXPECT_TRUE(server.Submit(Solve(3, 0, "IC")).ok());
  auto third = server.DispatchNext();
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->warm_sketch);
  EXPECT_FALSE(third->coalesced);

  EXPECT_EQ(server.stats().sketch_builds, 1u);
  EXPECT_EQ(server.stats().warm_sketch_hits, 2u);
  EXPECT_EQ(server.stats().coalesced, 1u);
  EXPECT_EQ(server.stats().served, 3u);
}

TEST(ServerTest, QueueWaitChargesAgainstTheDeadline) {
  ManualClock clock;
  ServerOptions options = FastOptions();
  options.clock = &clock;
  HolimServer server(options);
  AddTenants(server, 1);

  // celf (not the checkpoint-free degreediscount heuristic) so the
  // work_budget=1 expiry actually fires the degradation ladder.
  ProtocolRequest expired = Solve(1, 0, "IC");
  expired.algo = "celf";
  expired.deadline_ms = 10.0;
  EXPECT_TRUE(server.Submit(expired).ok());
  clock.Advance(20 * 1'000'000LL);  // 20 ms in the queue: overstayed

  auto reply = server.DispatchNext();
  ASSERT_TRUE(reply.ok());
  // The overload response is the degradation ladder, not an error: the
  // overstayed request lands deterministically in the heuristic tier and
  // builds no arena.
  EXPECT_TRUE(reply->degraded);
  EXPECT_EQ(reply->tier, ResultTier::kHeuristic);
  EXPECT_FALSE(reply->warm_sketch);
  EXPECT_EQ(server.stats().expired_in_queue, 1u);
  EXPECT_EQ(server.stats().sketch_builds, 0u);
  EXPECT_EQ(server.stats().served, 1u);

  // A request with deadline headroom left runs at full tier.
  ProtocolRequest fresh = Solve(2, 0, "IC");
  fresh.algo = "celf";
  fresh.deadline_ms = 1e6;
  EXPECT_TRUE(server.Submit(fresh).ok());
  auto full = server.DispatchNext();
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->degraded);
  EXPECT_EQ(full->tier, ResultTier::kFull);
  EXPECT_EQ(server.stats().expired_in_queue, 1u);
  EXPECT_EQ(server.stats().sketch_builds, 1u);
}

TEST(ServerTest, SchedulingNeverChangesResults) {
  // The same request stream through heat+affinity and through FIFO+LRU
  // must produce identical per-id seed sets and spreads — scheduling and
  // cache policy may only change WHEN work happens, never its output.
  const std::vector<ProtocolRequest> stream = {
      Solve(0, 0, "IC"), Solve(1, 1, "WC"), Solve(2, 0, "IC", 6),
      Solve(3, 0, "LT"), Solve(4, 1, "WC"), Solve(5, 0, "IC"),
      Solve(6, 1, "LT"), Solve(7, 0, "WC"), Solve(8, 0, "IC", 6),
  };
  const auto run = [&stream](bool optimized) {
    ServerOptions options = FastOptions();
    options.affinity = optimized;
    options.cache_policy = optimized ? Workspace::EvictionPolicy::kHeatBenefit
                                     : Workspace::EvictionPolicy::kLru;
    HolimServer server(options);
    AddTenants(server, 2);
    std::map<uint64_t, std::pair<std::string, double>> by_id;
    for (const ProtocolRequest& request : stream) {
      if (server.queue_full()) {
        const auto reply = server.DispatchNext().ValueOrDie();
        by_id[reply.id] = {reply.seeds_csv, reply.spread};
      }
      EXPECT_TRUE(server.Submit(request).ok());
    }
    while (server.queue_size() > 0) {
      const auto reply = server.DispatchNext().ValueOrDie();
      by_id[reply.id] = {reply.seeds_csv, reply.spread};
    }
    return by_id;
  };
  const auto optimized = run(true);
  const auto baseline = run(false);
  ASSERT_EQ(optimized.size(), stream.size());
  EXPECT_EQ(optimized, baseline);
}

TEST(ServerTest, PipeModeIsByteDeterministic) {
  // Closed-loop script: more solves than queue slots, so HandleLine must
  // interleave dispatches — the full output (including that interleaving)
  // has to be a pure function of the script.
  const std::string script =
      "ping\n"
      "# comment lines and blanks are ignored\n"
      "\n"
      "solve id=1 tenant=0 model=IC k=4 algo=degreediscount\n"
      "solve id=2 tenant=0 model=WC k=4 algo=degreediscount\n"
      "solve id=3 tenant=0 model=IC k=4 algo=degreediscount\n"
      "solve id=4 tenant=1 model=LT k=4 algo=degreediscount\n"
      "solve id=5 tenant=0 model=IC k=4 algo=degreediscount\n"
      "stats\n"
      "quit\n";
  const auto run = [&script]() {
    ServerOptions options = FastOptions();
    options.queue_depth = 2;  // force closed-loop interleaving
    HolimServer server(options);
    AddTenants(server, 2);
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_TRUE(server.RunPipe(in, out).ok());
    return out.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("pong\n"), std::string::npos);
  EXPECT_NE(first.find("bye\n"), std::string::npos);
  EXPECT_NE(first.find("stats tenants=2 admitted=5"), std::string::npos);
  EXPECT_EQ(first.find("err"), std::string::npos) << first;
  // One ok-line per solve, each echoing its id exactly once.
  for (int id = 1; id <= 5; ++id) {
    const std::string tag = "ok id=" + std::to_string(id) + " ";
    const std::size_t at = first.find(tag);
    ASSERT_NE(at, std::string::npos) << tag;
    EXPECT_EQ(first.find(tag, at + 1), std::string::npos) << tag;
  }

  // EOF without quit still answers everything queued.
  ServerOptions options = FastOptions();
  HolimServer server(options);
  AddTenants(server, 1);
  std::istringstream in("solve id=8 tenant=0 model=IC k=4\n");
  std::ostringstream out;
  EXPECT_TRUE(server.RunPipe(in, out).ok());
  EXPECT_NE(out.str().find("ok id=8 "), std::string::npos);
}

/// The line-cap script: a valid solve, a 1 MiB newline-free line and a
/// valid solve, then the cap's edge before quit: a comment line of
/// exactly kMaxRequestLineBytes (ignored, like any comment) and one a
/// byte longer (over-long).
std::string OverLongScript() {
  return "solve id=1 tenant=0 model=IC k=4 algo=degreediscount\n" +
         std::string(1 << 20, 'x') + "\n" +
         "solve id=2 tenant=0 model=WC k=4 algo=degreediscount\n" + "#" +
         std::string(kMaxRequestLineBytes - 1, 'c') + "\n" + "#" +
         std::string(kMaxRequestLineBytes, 'c') + "\nquit\n";
}

std::string RunPipeScript(const std::string& script) {
  HolimServer server(FastOptions());
  AddTenants(server, 1);
  std::istringstream in(script);
  std::ostringstream out;
  EXPECT_TRUE(server.RunPipe(in, out).ok());
  return out.str();
}

TEST(ServerTest, OverLongLineIsOneTypedErrorThenResyncs) {
  const std::string first = RunPipeScript(OverLongScript());
  EXPECT_EQ(first, RunPipeScript(OverLongScript()));
  // Solves answer when dispatched (here at quit), so the two over-long
  // lines' errors come first; every line after them is served as usual.
  const std::string err = "err id=0 code=2 msg=protocol:_request_line_longer_"
                          "than_4096_bytes\n";
  EXPECT_EQ(first.substr(0, 2 * err.size()), err + err) << first;
  EXPECT_EQ(first.find("err", 2 * err.size()), std::string::npos) << first;
  const std::size_t ok1 = first.find("ok id=1 ");
  const std::size_t ok2 = first.find("ok id=2 ");
  ASSERT_NE(ok1, std::string::npos) << first;
  ASSERT_NE(ok2, std::string::npos) << first;
  EXPECT_LT(ok1, ok2);
  EXPECT_EQ(first.substr(first.size() - 4), "bye\n");

  // An over-long last line with no newline still gets its one answer.
  EXPECT_EQ(RunPipeScript(std::string(kMaxRequestLineBytes + 1, 'x')), err);
}

TEST(ServerTest, HugeDeadlineAnswersLikeNoDeadline) {
  // 1e300 ms is a valid finite deadline far past the clock's range. It
  // must saturate, not wrap into the past: the solve answers exactly as
  // without a deadline (tier full), and it leaves the warm selector cached.
  const std::string solve = "solve id=1 tenant=0 model=WC k=4 algo=easyim";
  const std::string bounded = solve + " deadline_ms=1e300";
  const std::string plain_out = RunPipeScript(solve + "\nquit\n");
  EXPECT_EQ(RunPipeScript(bounded + "\nquit\n"), plain_out);
  EXPECT_NE(plain_out.find(" degraded=0 tier=full "), std::string::npos)
      << plain_out;

  // Warm: a plain solve caches the selector, the bounded one reuses it
  // without degrading, and the next plain solve still finds it warm.
  const std::string out = RunPipeScript(
      solve + "\n" +
      "solve id=2 tenant=0 model=WC k=4 algo=easyim deadline_ms=1e300\n" +
      "solve id=3 tenant=0 model=WC k=4 algo=easyim\nquit\n");
  const std::string seeds =
      plain_out.substr(plain_out.find(" seeds="),
                       plain_out.find('\n') - plain_out.find(" seeds="));
  for (const char* id : {"2", "3"}) {
    const std::string tag = std::string("ok id=") + id + " ";
    const std::size_t at = out.find(tag);
    ASSERT_NE(at, std::string::npos) << out;
    const std::string line = out.substr(at, out.find('\n', at) - at);
    EXPECT_NE(line.find(" warm_selector=1 "), std::string::npos) << line;
    EXPECT_NE(line.find(" degraded=0 tier=full" + seeds), std::string::npos)
        << line;
  }
}

/// The answer part of an ok line: tier, seeds and spread, without the
/// cache flags that a fresh server reports differently.
std::string AnswerOf(const std::string& ok_line) {
  return ok_line.substr(ok_line.find(" degraded="));
}

TEST(ServerTest, PrefixMemoAnswersLikeAFreshServerPerRequest) {
  // k = 20 first, then smaller and equal ks of the same tenant, model and
  // algorithm: the last three are answered from the selector's prefix
  // memo, and each must read as a fresh server's answer.
  const std::vector<std::string> solves = {
      "solve id=1 tenant=0 model=LT algo=easyim k=20",
      "solve id=2 tenant=0 model=LT algo=easyim k=5",
      "solve id=3 tenant=0 model=LT algo=easyim k=10",
      "solve id=4 tenant=0 model=LT algo=easyim k=20"};
  std::string script;
  for (const std::string& solve : solves) script += solve + "\n";
  std::istringstream together(RunPipeScript(script + "stats\nquit\n"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(together, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), solves.size() + 2);
  for (std::size_t i = 0; i < solves.size(); ++i) {
    SCOPED_TRACE(solves[i]);
    const std::string fresh = RunPipeScript(solves[i] + "\nquit\n");
    const std::string fresh_ok = fresh.substr(0, fresh.find('\n'));
    ASSERT_EQ(lines[i].rfind("ok id=" + std::to_string(i + 1) + " ", 0), 0u)
        << lines[i];
    EXPECT_EQ(AnswerOf(lines[i]), AnswerOf(fresh_ok));
    EXPECT_NE(lines[i].find(i == 0 ? " warm_selector=0 " : " warm_selector=1 "),
              std::string::npos)
        << lines[i];
  }
  EXPECT_EQ(lines[4].rfind("stats ", 0), 0u) << lines[4];
  EXPECT_NE(lines[4].find(" served=4 "), std::string::npos) << lines[4];
  EXPECT_EQ(lines[4].substr(lines[4].rfind(' ')), " warm_answers=3");
}

TEST(ServerTest, InfiniteDeadlineIsAParseErrorNotAFailedSolve) {
  // The line is answered at once with one typed error; it never takes a
  // queue slot, so it counts neither as admitted nor as failed.
  for (const char* inf : {"inf", "infinity", "INF"}) {
    const std::string out = RunPipeScript(
        std::string("solve id=5 tenant=0 model=IC k=4 deadline_ms=") + inf +
        "\nstats\nquit\n");
    EXPECT_EQ(out.rfind("err id=0 code=2 ", 0), 0u) << out;
    EXPECT_EQ(out.find("err", 1), std::string::npos) << out;
    EXPECT_NE(out.find("\nstats tenants=1 admitted=0 rejected=0 served=0 "
                       "failed=0 "),
              std::string::npos)
        << out;
    EXPECT_EQ(out.substr(out.size() - 4), "bye\n");
  }
}

/// Connects to `path`, retrying while the server thread is still binding.
int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

TEST(ServerTest, SocketModeAnswersLikePipeModeAcrossReadBoundaries) {
  // The socket loop scans each read once and holds at most one capped
  // line; sent in 1000-byte writes, every line (the 1 MiB one included)
  // spans several reads, and the answers must still be pipe mode's.
  const std::string script = OverLongScript();
  const std::string path = testing::TempDir() + "holim_serving_test_" +
                           std::to_string(::getpid()) + ".sock";
  HolimServer server(FastOptions());
  AddTenants(server, 1);
  std::thread serve(
      [&] { EXPECT_TRUE(server.ServeUnixSocket(path).ok()); });
  const int fd = ConnectUnix(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  for (std::size_t at = 0; at < script.size(); at += 1000) {
    const std::size_t len = std::min<std::size_t>(1000, script.size() - at);
    ASSERT_EQ(::send(fd, script.data() + at, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
  }
  std::string answered;
  char chunk[4096];
  ssize_t got = 0;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    answered.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  serve.join();
  EXPECT_EQ(answered, RunPipeScript(script));
}

}  // namespace
}  // namespace holim
