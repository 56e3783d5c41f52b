// The long-running verification service.
//
// One process keeps the expensive state warm across requests — a
// topo::FecCache shared by every engine, the incremental planner's
// cross-version plan/verdict cache, and per-version batch algebras for
// coalesced check execution — and serves a stream of check/fix/generate
// programs over a Unix domain socket. Execution is a dispatcher thread
// pulling dispatch units off the scheduler: a coalesced unit of compatible
// pure-check jobs (a unit of one included) runs on the dispatcher over the
// server-wide work-stealing core::Executor, and a fix/generate job goes to
// one of `workers` engine lanes, each running one single-threaded
// core::Engine, so up to `workers` repairs run side by side with the check
// units; see docs/INTERNALS.md "Batched + sharded execution".
//
// A finished job keeps a JobOutcome: its command verdicts and one shared
// copy of its final update, which `status`/`result` render as plan text
// against the job's pinned snapshot and `apply` installs.
//
// Wire protocol: newline-delimited JSON-RPC. One request per line,
//   {"id": 1, "method": "submit", "params": {...}}
// answered by exactly one line,
//   {"id": 1, "result": {...}}   or   {"id": 1, "error": {"code": 429, ...}}
//
// Methods: submit, status, result, cancel, apply, info, metrics, lease,
// renew, release, auth, subscribe, shutdown (see docs/INTERNALS.md
// "Service" and "Replication & transport" for the schemas). Several
// clients may be connected at once; each connection is served by its own
// thread, so a blocking `result` wait never stalls other clients.
//
// Transports: always the Unix socket (when socket_path is set), plus an
// optional TCP listener (`listen_address`). TCP connections must open with
// an `auth` call carrying the shared token before any other method; until
// then the per-line read limit is a few KB and any other input closes the
// connection. `subscribe` turns a connection into a one-way replication
// stream (see repl_wire.h) until the peer disconnects.
//
// Shutdown is a graceful drain: new submissions are rejected (503), every
// admitted job still runs to a terminal state, then the socket closes and
// wait() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batch.h"
#include "core/engine.h"
#include "core/incremental_planner.h"
#include "obs/stats.h"
#include "svc/json.h"
#include "svc/scheduler.h"
#include "svc/state_store.h"
#include "topo/fec_cache.h"

namespace jinjing::svc {

class ServerError : public std::runtime_error {
 public:
  explicit ServerError(const std::string& what) : std::runtime_error(what) {}
};

struct ServerOptions {
  /// Unix-socket transport; may be empty when a TCP listener is configured.
  std::string socket_path;
  /// TCP transport as "host:port" ("127.0.0.1:0" binds an ephemeral port,
  /// reported by listen_endpoint()). Empty disables TCP. Requires
  /// auth_token: the network is not the filesystem permission boundary the
  /// Unix socket enjoys.
  std::string listen_address;
  /// Shared secret TCP connections must present in an `auth` call before
  /// anything else. Ignored on the Unix socket.
  std::string auth_token;
  /// Read-only replica mode: fix/generate submissions and apply are
  /// rejected with a 421 redirect naming writer_endpoint; pure checks,
  /// status/result/metrics and subscribe serve locally.
  bool read_only = false;
  /// Advertised in read-only redirects so clients can re-route.
  std::string writer_endpoint;
  /// Upper bound on any client-requested lease window.
  std::uint64_t max_lease_ms = 60000;
  /// Extra Prometheus lines appended to the metrics export (the replica
  /// adds its lag gauges here).
  std::function<void(std::ostream&)> extra_metrics;
  std::size_t queue_depth = 64;
  /// Executor threads of the server-wide pool, and the number of engine
  /// lanes. A small dispatcher thread pulls dispatch units off the
  /// scheduler: check units fan their obligations out over the pool (the
  /// dispatcher participates as pool worker 0, so `workers` is the pool's
  /// total thread count), and each fix/generate job runs on one of
  /// `workers` lane threads, so at most `workers` engine jobs run at once
  /// and a job waiting for a lane stays queued.
  unsigned workers = 2;
  /// Most jobs one dispatch unit may coalesce (same snapshot version,
  /// scope family, pure check program). 1 disables coalescing.
  std::size_t coalesce = 32;
  /// Snapshot versions kept resolvable after apply advances the head
  /// (older ones are trimmed; jobs already holding a trimmed snapshot
  /// still finish against it, and its FEC cache entries are evicted once
  /// the last pin is released).
  std::size_t keep_versions = 8;
  /// Finished jobs kept queryable via status/result; the oldest-finished
  /// beyond this are evicted (404), releasing their snapshot and outcome.
  /// A retained outcome is the command verdicts plus one copy of the final
  /// update; the plan text is rendered per request, not stored.
  std::size_t retain_jobs = 1024;
  /// Rebase budget for the incremental planner: how many applies a cached
  /// verification plan may be carried across before the next job rebuilds
  /// it from scratch. 0 disables incremental cross-version verification
  /// (every check-only job builds a fresh engine, the seed behaviour).
  std::size_t max_delta_chain = 16;
};

class Server {
 public:
  Server(config::NetworkFile network, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept/worker threads. Throws
  /// ServerError when the socket cannot be created.
  void start();

  /// Pre-warms the shared FEC cache and the incremental planner from the
  /// head snapshot (whole-network scope, head traffic) so the first checks
  /// after startup — or after a replica divergence rebuild — do not pay
  /// full path enumeration and refinement serially under live traffic.
  /// Best-effort: derivation failures are swallowed. Call before start().
  void prewarm();

  /// Blocks until a graceful shutdown has completed (shutdown method or
  /// request_shutdown()), then tears down every thread and the socket.
  void wait();

  /// Initiates a graceful drain; idempotent, callable from any thread.
  void request_shutdown();

  /// Whether a drain has been initiated (shutdown method, or
  /// request_shutdown from any side). The replica polls this to turn an
  /// operator shutdown of its local server into a full replica shutdown.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& socket_path() const { return options_.socket_path; }
  /// The bound TCP endpoint ("host:port" with the real port even when the
  /// listen address asked for port 0), or empty when TCP is off. Valid
  /// after start().
  [[nodiscard]] const std::string& listen_endpoint() const { return bound_endpoint_; }
  /// Version the replication hash chain has reached (== head version).
  [[nodiscard]] Version repl_head() const;
  /// Subscribers currently streaming.
  [[nodiscard]] std::size_t subscriber_count() const {
    return subscribers_.load(std::memory_order_relaxed);
  }
  /// The replica's apply path: replays one replication record's update on
  /// top of `expected_head`, then retires old versions exactly like the
  /// writer's apply (version trim + replication-log trim). Returns nullptr
  /// when the local head is not `expected_head` — the stream and the store
  /// have diverged and the caller must resync.
  SnapshotPtr apply_replicated(Version expected_head, const topo::AclUpdate& update);

  [[nodiscard]] StateStore& store() { return store_; }
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const obs::StatsRegistry& registry() const { return registry_; }
  /// The incremental planner, or nullptr when max_delta_chain is 0.
  [[nodiscard]] const core::IncrementalPlanner* incremental() const {
    return incremental_.get();
  }

 private:
  /// Set by the subscribe handler: after the response line is written the
  /// connection switches into the one-way replication stream.
  struct SubscribeIntent {
    bool requested = false;
    Version from = 0;
  };

  void accept_loop();
  void connection_loop(int fd, bool needs_auth);
  /// Pulls dispatch units until the drain empties the queue: check units
  /// run here, fix/generate jobs on the `workers` engine lanes it starts
  /// and joins before returning.
  void dispatch_loop();
  /// Streams replication records with version > `from` until the peer
  /// disconnects or the server drains.
  void serve_subscription(int fd, Version from);
  /// Periodic housekeeping on the accept-loop tick: sweep expired leases
  /// and re-trim so a lapsed lease actually releases its version, and join
  /// finished connection threads.
  void sweep_tick();
  void trim_repl_log();

  /// One request line -> one response line (never throws).
  [[nodiscard]] std::string handle_line(const std::string& line, SubscribeIntent* sub);
  [[nodiscard]] Json dispatch(const std::string& method, const Json& params,
                              SubscribeIntent* sub);

  Json handle_submit(const Json& params);
  Json handle_status(const Json& params);
  Json handle_result(const Json& params);
  Json handle_cancel(const Json& params);
  Json handle_apply(const Json& params);
  Json handle_lease(const Json& params);
  Json handle_renew(const Json& params);
  Json handle_release(const Json& params);
  Json handle_subscribe(const Json& params, SubscribeIntent* sub);
  Json handle_info();
  Json handle_metrics();

  void execute_job(const JobPtr& job);

  /// Runs a unit of one or more pure-check jobs through the exact
  /// set-algebra scan, sharded over the shared executor, skipping each
  /// job's obligations the delta cache already proved clean. Falls back to
  /// per-job execute_job when the shared algebra cannot be built.
  void execute_batch(const std::vector<JobPtr>& batch);

  /// The per-version batch algebra for the lead job's coalesce family,
  /// built on first use and cached until the version is released.
  [[nodiscard]] std::shared_ptr<const core::BatchAlgebra> batch_algebra_for(const JobPtr& job);

  /// The one place per-job planning configuration lives: single-threaded
  /// (Executor::run is serialized, not reentrant) over the server-wide FEC
  /// cache. Shared by the engine lanes and the batch path's plan builds.
  [[nodiscard]] core::PlanOptions job_plan_options() const;

  ServerOptions options_;
  // Declared before store_: the store's release hook sweeps this cache, so
  // it must outlive the store's teardown.
  std::mutex batch_mutex_;
  struct VersionedAlgebra {
    Version version = 0;
    std::shared_ptr<const core::BatchAlgebra> algebra;
  };
  std::unordered_map<std::uint64_t, VersionedAlgebra> batch_algebra_;  // by coalesce key
  // Replication log: one pre-serialized record per applied version,
  // appended by the store's apply hook (so also declared before store_).
  // repl_hash_ is only touched under the store lock (the apply hook is the
  // single writer); the log, head marker and cv are guarded by repl_mutex_.
  struct ReplRecord {
    Version version = 0;
    std::string line;  // full JSON record + '\n'
  };
  mutable std::mutex repl_mutex_;
  std::condition_variable repl_cv_;
  std::deque<ReplRecord> repl_log_;
  Version repl_head_ = 1;
  std::uint64_t repl_hash_ = 0;       // chain state, seeded by the fingerprint
  std::uint64_t base_fingerprint_ = 0;
  std::atomic<std::size_t> subscribers_{0};
  std::string bound_endpoint_;
  StateStore store_;
  Scheduler scheduler_;
  std::shared_ptr<topo::FecCache> fec_cache_;
  std::shared_ptr<core::IncrementalPlanner> incremental_;
  obs::StatsRegistry registry_;
  std::optional<obs::ScopedRegistry> installed_;

  std::shared_ptr<core::Executor> executor_;

  int listen_fd_ = -1;      // Unix socket, -1 when socket_path is empty
  int tcp_listen_fd_ = -1;  // TCP listener, -1 when listen_address is empty
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // set as the thread's last act
  };
  std::mutex conn_mutex_;
  std::list<Connection> connections_;  // reaped by sweep_tick once done

  std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_connections_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool started_ = false;
  bool torn_down_ = false;
};

}  // namespace jinjing::svc
