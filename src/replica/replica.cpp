#include "replica/replica.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <ostream>
#include <utility>

#include "svc/client.h"
#include "svc/repl_wire.h"

namespace jinjing::replica {

using Clock = std::chrono::steady_clock;

Replica::Replica(config::NetworkFile network, ReplicaOptions options)
    : pristine_(std::move(network)), options_(std::move(options)) {
  options_.serve.read_only = true;
  options_.serve.writer_endpoint = options_.writer;
  if (options_.serve.auth_token.empty()) options_.serve.auth_token = options_.token;
  options_.serve.extra_metrics = [this](std::ostream& out) { emit_metrics(out); };
}

Replica::~Replica() {
  request_shutdown();
  if (started_) wait();
}

void Replica::build_server() {
  config::NetworkFile copy = pristine_;
  auto server = std::make_unique<svc::Server>(std::move(copy), options_.serve);
  // Warm the plan cache from the pristine network before the listener
  // opens: after a divergence rebuild the first differential checks would
  // otherwise pay full refinement serially under live load.
  server->prewarm();
  server->start();
  // Pin whatever the kernel picked, so a rebuild after a writer-restart
  // reset comes back on the same port (clients keep their address).
  if (!server->listen_endpoint().empty()) {
    options_.serve.listen_address = server->listen_endpoint();
  }
  const std::lock_guard<std::mutex> lock{server_mutex_};
  server_ = std::move(server);
}

void Replica::start() {
  if (started_) return;
  build_server();
  chain_ = svc::network_fingerprint(pristine_);
  applied_.store(1, std::memory_order_relaxed);
  writer_head_.store(1, std::memory_order_relaxed);
  started_ = true;
  follow_thread_ = std::thread([this] { follow_loop(); });
}

void Replica::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock{stop_mutex_};
    stop_.store(true, std::memory_order_relaxed);
  }
  stop_cv_.notify_all();
}

void Replica::wait() {
  {
    std::unique_lock<std::mutex> lock{stop_mutex_};
    stop_cv_.wait(lock, [this] { return stop_.load(std::memory_order_relaxed); });
  }
  if (follow_thread_.joinable()) follow_thread_.join();
  // The follower is gone, so no reset can swap the server anymore.
  std::unique_ptr<svc::Server> server;
  {
    const std::lock_guard<std::mutex> lock{server_mutex_};
    server = std::move(server_);
  }
  if (server) {
    server->request_shutdown();
    server->wait();
  }
}

svc::Server& Replica::server() {
  const std::lock_guard<std::mutex> lock{server_mutex_};
  return *server_;
}

void Replica::emit_metrics(std::ostream& out) const {
  const std::uint64_t applied = applied_.load(std::memory_order_relaxed);
  const std::uint64_t head = writer_head_.load(std::memory_order_relaxed);
  out << "# TYPE jinjing_replica_applied_version gauge\n"
      << "jinjing_replica_applied_version " << applied << "\n"
      << "# TYPE jinjing_replica_writer_head gauge\n"
      << "jinjing_replica_writer_head " << head << "\n"
      << "# TYPE jinjing_replica_lag gauge\n"
      << "jinjing_replica_lag " << (head > applied ? head - applied : 0) << "\n"
      << "# TYPE jinjing_replica_connected gauge\n"
      << "jinjing_replica_connected " << (connected_.load(std::memory_order_relaxed) ? 1 : 0)
      << "\n"
      << "# TYPE jinjing_replica_resets gauge\n"
      << "jinjing_replica_resets " << resets_.load(std::memory_order_relaxed) << "\n";
}

void Replica::reset_server() {
  resets_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<svc::Server> old;
  {
    const std::lock_guard<std::mutex> lock{server_mutex_};
    old = std::move(server_);
  }
  if (old) {
    old->request_shutdown();
    old->wait();
    old.reset();
  }
  build_server();
  chain_ = svc::network_fingerprint(pristine_);
  applied_.store(1, std::memory_order_relaxed);
}

void Replica::follow_loop() {
  std::uint64_t delay = options_.backoff_ms;
  while (!stop_.load(std::memory_order_relaxed)) {
    // An operator shutting the local server down (RPC `shutdown`) shuts
    // the whole replica down. Only the follower itself tears the server
    // down otherwise (reset), and that swap completes before this check
    // runs again.
    {
      const std::lock_guard<std::mutex> lock{server_mutex_};
      if (server_ && server_->shutdown_requested()) {
        request_shutdown();
        return;
      }
    }

    const std::uint64_t before = applied_.load(std::memory_order_relaxed);
    const bool soft = follow_once();
    if (stop_.load(std::memory_order_relaxed)) return;
    if (!soft) reset_server();

    // Progress resets the backoff; repeated failures stretch it.
    delay = applied_.load(std::memory_order_relaxed) > before || !soft
                ? options_.backoff_ms
                : std::min(delay * 2, options_.backoff_cap_ms);
    std::unique_lock<std::mutex> lock{stop_mutex_};
    stop_cv_.wait_for(lock, std::chrono::milliseconds(delay),
                      [this] { return stop_.load(std::memory_order_relaxed); });
  }
}

bool Replica::follow_once() {
  svc::ClientOptions copts;
  copts.token = options_.token;
  copts.max_retries = 0;  // follow_loop owns the reconnect policy

  // Two connections: one turns into the record stream, the other stays
  // request/response for lease renewals.
  std::optional<svc::Client> stream;
  std::optional<svc::Client> control;
  try {
    stream.emplace(options_.writer, copts);
    if (options_.lease_ms > 0) control.emplace(options_.writer, copts);
  } catch (const svc::ClientError&) {
    return true;  // writer away; back off and redial
  }

  const std::uint64_t from = applied_.load(std::memory_order_relaxed);
  svc::Json header;
  try {
    svc::Json::Object params;
    params.emplace("from", from);
    params.emplace("fingerprint", svc::hash_hex(svc::network_fingerprint(pristine_)));
    header = stream->call("subscribe", svc::Json{std::move(params)});
  } catch (const svc::RpcError& error) {
    // 409: we are ahead of the writer (it restarted). 410: the log no
    // longer covers us. 412: different base network (also a writer swap).
    // All three mean the local replay is unsalvageable.
    return !(error.code() == 409 || error.code() == 410 || error.code() == 412);
  } catch (const svc::ClientError&) {
    return true;
  }
  writer_head_.store(header.at("head").as_u64(), std::memory_order_relaxed);
  connected_.store(true, std::memory_order_relaxed);

  // The writer-side lease pins our applied version so the writer neither
  // trims it nor lets the replication log slide past us while we hold on.
  std::optional<std::uint64_t> lease;
  auto last_renew = Clock::now();
  if (control) {
    try {
      svc::Json::Object params;
      params.emplace("version", from);
      params.emplace("lease_ms", options_.lease_ms);
      lease = control->call("lease", svc::Json{std::move(params)}).at("lease").as_u64();
    } catch (const std::exception&) {
      // Unleased is degraded, not broken: a long disconnect now risks a
      // 410 reset instead of a cheap catch-up.
    }
  }
  const auto renew_lease = [&](std::uint64_t version) {
    if (!lease) return;
    try {
      svc::Json::Object params;
      params.emplace("lease", *lease);
      params.emplace("lease_ms", options_.lease_ms);
      params.emplace("version", version);
      (void)control->call("renew", svc::Json{std::move(params)});
      last_renew = Clock::now();
    } catch (const std::exception&) {
      lease.reset();
    }
  };

  bool soft = true;
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      const std::lock_guard<std::mutex> lock{server_mutex_};
      if (server_ && server_->shutdown_requested()) {
        request_shutdown();
        break;
      }
    }

    std::optional<std::string> line;
    try {
      line = stream->read_line(200);
    } catch (const svc::ClientError&) {
      break;  // stream dropped; resubscribe from applied_
    }

    if (line) {
      svc::Json record;
      try {
        record = svc::Json::parse(*line);
      } catch (const svc::JsonError&) {
        soft = false;  // framing is broken; start over from scratch
        break;
      }
      if (record.get("error") != nullptr) {
        // The in-stream 410: the log was trimmed out from under us.
        soft = false;
        break;
      }
      std::uint64_t version = 0;
      topo::AclUpdate update;
      std::uint64_t expected = 0;
      try {
        version = record.at("version").as_u64();
        const svc::Json& encoded = record.at("update");
        expected = svc::chain_hash(chain_, version, encoded);
        if (svc::parse_hash_hex(record.at("hash").as_string()) != expected) {
          soft = false;  // divergence: writer state is not our state
          break;
        }
        const svc::SnapshotPtr head = server_->store().head();
        update = svc::decode_update(*head->topo, encoded);
      } catch (const std::exception&) {
        soft = false;
        break;
      }
      const svc::SnapshotPtr next = server_->apply_replicated(version - 1, update);
      if (!next || next->version != version) {
        soft = false;
        break;
      }
      chain_ = expected;
      applied_.store(version, std::memory_order_relaxed);
      if (version > writer_head_.load(std::memory_order_relaxed)) {
        writer_head_.store(version, std::memory_order_relaxed);
      }
      renew_lease(version);
    } else if (lease && Clock::now() - last_renew >
                            std::chrono::milliseconds(options_.lease_ms / 3 + 1)) {
      renew_lease(applied_.load(std::memory_order_relaxed));
    }
  }

  connected_.store(false, std::memory_order_relaxed);
  if (lease) {
    try {
      svc::Json::Object params;
      params.emplace("lease", *lease);
      (void)control->call("release", svc::Json{std::move(params)});
    } catch (const std::exception&) {
    }
  }
  return soft;
}

}  // namespace jinjing::replica
