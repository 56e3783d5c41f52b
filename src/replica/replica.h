// A read-only verifier replica.
//
// One writer owns the network state; replicas shadow it and absorb the
// check load. A Replica embeds a full svc::Server in read-only mode —
// plan cache, AEC memo, workers, the works — and a
// follower thread that subscribes to the writer's replication stream
// (svc/repl_wire.h) and replays every applied update into the local
// StateStore. Checks served locally therefore run against bit-identical
// topology snapshots at the same version numbers as the writer's;
// fix/generate submissions and apply are bounced with a 421 naming the
// writer.
//
// Safety over availability: every record's hash is re-verified against
// the local chain state before it is applied. Any divergence — hash
// mismatch, fingerprint mismatch (412), a subscription gap the writer can
// no longer cover (410), or a writer restart (409 / chain reset) — tears
// the local server down and rebuilds it from the pristine network file on
// the SAME endpoints, then resubscribes from scratch. A replica can be
// wrong about freshness (it lags), never about content.
//
// While connected, the follower holds one lease on the writer pinned to
// its applied version (renewed with each replayed record and on an idle
// timer), so the writer keeps that version resolvable — a briefly
// disconnected replica can re-subscribe from where it was instead of
// resetting.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "config/topology_format.h"
#include "svc/server.h"

namespace jinjing::replica {

struct ReplicaOptions {
  /// The writer's endpoint (Unix socket path or host:port). Required.
  std::string writer;
  /// Shared token for the writer's TCP transport (and, via serve.auth_token,
  /// the replica's own TCP listener).
  std::string token;
  /// Writer-side lease window pinning the replica's applied version. The
  /// follower renews at a third of this. 0 disables the lease.
  std::uint64_t lease_ms = 10000;
  /// Resubscribe backoff after a lost writer connection (doubles per
  /// attempt up to the cap).
  std::uint64_t backoff_ms = 50;
  std::uint64_t backoff_cap_ms = 2000;
  /// Tuning for the local server (transports, workers, caches).
  /// read_only and writer_endpoint are overridden by the replica.
  svc::ServerOptions serve;
};

class Replica {
 public:
  /// `network` must be the same network file the writer was started from;
  /// the fingerprint handshake enforces this at subscribe time.
  Replica(config::NetworkFile network, ReplicaOptions options);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Starts the local read-only server and the follower thread.
  void start();
  /// Blocks until request_shutdown(), then tears everything down.
  void wait();
  /// Stops the follower and drains the local server; idempotent.
  void request_shutdown();

  /// The local server (valid between start() and wait() returning). The
  /// endpoint accessors are stable across writer-restart resets.
  [[nodiscard]] svc::Server& server();

  [[nodiscard]] std::uint64_t applied_version() const {
    return applied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t writer_head() const {
    return writer_head_.load(std::memory_order_relaxed);
  }
  /// Records known to exist on the writer but not yet replayed locally.
  [[nodiscard]] std::uint64_t lag() const {
    const std::uint64_t head = writer_head();
    const std::uint64_t applied = applied_version();
    return head > applied ? head - applied : 0;
  }
  /// Full rebuilds forced by divergence or writer restart (test hook).
  [[nodiscard]] std::uint64_t resets() const {
    return resets_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_relaxed);
  }

 private:
  void follow_loop();
  /// One subscribe session against the writer. Returns true when the
  /// connection merely dropped (resubscribe in place) and false when the
  /// local state must be rebuilt before trying again.
  bool follow_once();
  /// Tears down the local server and rebuilds it from the pristine
  /// network file, reusing the endpoints already bound.
  void reset_server();
  void build_server();
  void emit_metrics(std::ostream& out) const;

  config::NetworkFile pristine_;
  ReplicaOptions options_;

  std::mutex server_mutex_;  // guards server_ swaps during reset
  std::unique_ptr<svc::Server> server_;

  std::uint64_t chain_ = 0;  // local mirror of the record hash chain
  std::thread follow_thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> applied_{1};
  std::atomic<std::uint64_t> writer_head_{1};
  std::atomic<std::uint64_t> resets_{0};
  bool started_ = false;
};

}  // namespace jinjing::replica
