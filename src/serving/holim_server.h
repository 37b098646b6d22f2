#ifndef HOLIM_SERVING_HOLIM_SERVER_H_
#define HOLIM_SERVING_HOLIM_SERVER_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/holim_engine.h"
#include "graph/graph.h"
#include "model/influence_params.h"
#include "serving/protocol.h"
#include "util/deadline.h"
#include "util/status.h"

namespace holim {

/// Serving-loop knobs. The two perf mechanisms (affinity + heat policy)
/// are independently switchable so the bench can run the same binary as
/// its own baseline (FIFO + plain LRU).
struct ServerOptions {
  /// Bounded admission queue depth; a solve submitted to a full queue is
  /// rejected with kResourceExhausted (the caller sees an "err ... 11"
  /// response and may retry).
  std::size_t queue_depth = 32;
  /// Artifact-affinity scheduling: dispatch the earliest queued request
  /// sharing the last-dispatched sketch-arena key before falling back to
  /// FIFO order. Off = strict FIFO.
  bool affinity = true;
  /// Per-tenant Workspace eviction policy (heat = benefit-per-byte).
  Workspace::EvictionPolicy cache_policy =
      Workspace::EvictionPolicy::kHeatBenefit;
  /// Per-tenant Workspace byte budget (0 = unlimited).
  std::size_t max_cache_bytes = 0;
  /// Sketch-arena snapshot count R shared by every served solve.
  uint32_t num_sketches = 64;
  /// RNG seed behind every arena and selector.
  uint64_t seed = 42;
  /// Clock charging queue wait against deadlines (null = real clock);
  /// tests inject a ManualClock to expire queued requests on cue.
  const Clock* clock = nullptr;
  /// Append wait_ms/solve_ms to ok-responses (off keeps responses a pure
  /// function of the request stream — the pipe-mode determinism contract).
  bool echo_timings = false;
};

/// Monotonic serving counters (all exact and deterministic for a fixed
/// request stream when wall deadlines don't fire).
struct ServerStats {
  uint64_t admitted = 0;          ///< requests accepted into the queue
  uint64_t rejected = 0;          ///< admission-control rejections
  uint64_t served = 0;            ///< solve responses produced
  uint64_t failed = 0;            ///< dispatched solves that errored
  uint64_t sketch_builds = 0;     ///< cold sketch-arena builds paid
  uint64_t warm_sketch_hits = 0;  ///< solves served off a cached arena
  uint64_t coalesced = 0;  ///< queued misses whose build was coalesced away
  uint64_t expired_in_queue = 0;  ///< deadlines that died waiting
  /// Solves answered from a selector's prefix memo (SolveResult::
  /// warm_answer): no Select run, and no Estimate once the prefix's
  /// spread is stored.
  uint64_t warm_answers = 0;
};

/// \brief `holimd`'s core: a single-threaded serving loop in front of one
/// HolimEngine per tenant.
///
/// ## Admission and dispatch
///
/// Submit() parses nothing — it takes a ProtocolRequest, validates it
/// against the tenant set, stamps it with the enqueue time and its sketch
/// -arena key, and enqueues it; a full queue rejects with
/// kResourceExhausted (admission control — the bounded queue is the
/// backpressure mechanism). DispatchNext() pops one request and runs it:
///
///  * **Artifact-affinity scheduling** (options.affinity): the dispatcher
///    picks the earliest queued request whose arena key equals the last
///    dispatched one, falling back to the queue front. Requests sharing
///    an artifact therefore run back to back, so one build serves the
///    whole group — N queued misses on one key trigger exactly one build.
///    The `coalesced` counter is exact: a request whose key was cold at
///    admission but warm at dispatch is a build that scheduling saved.
///  * **Queue-wait deadline charging**: a request's deadline_ms budget
///    starts at admission. Wait time is subtracted at dispatch; a request
///    that already overstayed runs with work_budget=1, which forces the
///    engine's deterministic heuristic degradation tier — the PR 9 ladder
///    (full -> prefix -> heuristic) is the overload response, not an
///    error.
///
/// Scheduling never changes results: a solve is a pure function of its
/// request, so any dispatch order yields bitwise-identical per-request
/// responses (the serving bench HOLIM_CHECKs this across legs).
///
/// ## Tenancy
///
/// Each tenant owns a graph, its IC/WC/LT params, and a HolimEngine with
/// its own Workspace (options.max_cache_bytes each). Engines are
/// per-tenant because Workspace keys fingerprint params *content* —
/// two same-shaped graphs under uniform IC share a fingerprint, which a
/// shared workspace would conflate.
///
/// Single-threaded by design (the perf story is work reduction, not
/// parallel dispatch); not thread-safe.
class HolimServer {
 public:
  explicit HolimServer(const ServerOptions& options);
  ~HolimServer();

  /// Registers the next tenant (ids are dense, in call order). The graph
  /// is moved in and owned by the server.
  Status AddTenant(Graph graph);

  std::size_t num_tenants() const { return tenants_.size(); }

  /// Admission control: enqueues a solve request, or rejects it —
  /// kResourceExhausted when the queue is full (counted in
  /// stats().rejected), kInvalidArgument for an unknown tenant.
  Status Submit(const ProtocolRequest& request);

  /// True when Submit would reject for lack of space.
  bool queue_full() const { return queue_.size() >= options_.queue_depth; }
  std::size_t queue_size() const { return queue_.size(); }

  /// Dispatches one queued request (affinity pick or FIFO front) through
  /// its tenant engine and returns the reply. NotFound on an empty queue;
  /// engine-level failures are returned as the error (the caller formats
  /// an err-response; the request is consumed either way).
  Result<ProtocolReply> DispatchNext();

  /// Dispatches until the queue is empty, appending every response line
  /// (ok or err) to `lines`.
  void DrainQueue(std::vector<std::string>* lines);

  /// Runs the stdin/stdout-style serving loop until "quit" or EOF: one
  /// request per input line, one response line each (see protocol.h).
  /// Deterministic for a fixed script (with echo_timings off): admission
  /// is closed-loop — a solve line arriving at a full queue first drains
  /// one dispatch, so the interleaving is a pure function of the script.
  Status RunPipe(std::istream& in, std::ostream& out);

  /// Binds an AF_UNIX socket at `path` (unlinking any stale file) and
  /// serves clients one connection at a time, same line protocol as
  /// RunPipe. Returns when a client sends "quit" (IOError on socket
  /// failures).
  Status ServeUnixSocket(const std::string& path);

  /// One-line counter rendering ("stats served=... ..."), the `stats`
  /// verb's response.
  std::string FormatStats() const;

  const ServerStats& stats() const { return stats_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Model {
    /// Const after AddTenant, so `fingerprint` can never describe other
    /// content: Execute hands it to the engine in place of a rehash.
    const InfluenceParams params;
    /// FingerprintParams(params), taken on the model's first admission.
    std::optional<uint64_t> fingerprint;
  };

  struct Tenant {
    Graph graph;
    std::map<std::string, Model> models;  // "IC"/"WC"/"LT"
    std::unique_ptr<HolimEngine> engine;
  };

  struct Pending {
    ProtocolRequest request;
    /// The engine request, built at admission; Execute adds the deadline.
    SolveRequest solve;
    SketchKey arena_key;
    int64_t enqueue_nanos = 0;
    /// The arena was absent at admission; if it is present at dispatch,
    /// this request's build was coalesced into an earlier one.
    bool cold_at_admission = false;
  };

  const Clock& clock() const {
    return options_.clock ? *options_.clock : *Clock::Real();
  }

  /// The deadline-free engine request of `request`. Fingerprints the
  /// request's model on its first use.
  SolveRequest SolveRequestFor(Tenant& tenant, const ProtocolRequest& request);

  /// Removes and returns the next request to run: the affinity pick when
  /// enabled, else the FIFO front. Queue must be non-empty.
  Pending PopNext();

  /// Dispatches one request and renders its response line (ok or err).
  /// Queue must be non-empty.
  std::string DispatchOneLine();

  /// Runs one pending request through its tenant engine.
  Result<ProtocolReply> Execute(const Pending& pending);

  /// Handles one protocol line of the pipe/socket loop; appends response
  /// lines to `out_lines`. Sets `*quit` on the quit verb.
  void HandleLine(const std::string& line, std::vector<std::string>* out_lines,
                  bool* quit);

  ServerOptions options_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::deque<Pending> queue_;
  std::optional<SketchKey> last_arena_key_;  ///< affinity target
  ServerStats stats_;
};

}  // namespace holim

#endif  // HOLIM_SERVING_HOLIM_SERVER_H_
