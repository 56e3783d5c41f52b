#include "svc/server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "config/acl_format.h"
#include "core/deploy.h"
#include "lai/parser.h"
#include "obs/trace.h"
#include "svc/endpoint.h"
#include "svc/repl_wire.h"

namespace jinjing::svc {

namespace {

/// A dispatch-level failure that maps onto a JSON-RPC error object.
struct RpcFailure {
  int code;
  std::string message;
};

[[noreturn]] void fail(int code, std::string message) {
  throw RpcFailure{code, std::move(message)};
}

constexpr int kParseError = -32700;
constexpr int kMethodNotFound = -32601;
constexpr int kInvalidParams = -32602;
constexpr int kInternalError = -32603;
constexpr int kQueueFull = 429;      // admission control rejected the job
constexpr int kDraining = 503;       // server is shutting down
constexpr int kNotFound = 404;       // unknown job / snapshot version / lease
constexpr int kConflict = 409;       // apply on a job without a plan
constexpr int kTooOld = 410;         // subscriber fell behind the replication log
constexpr int kFingerprintMismatch = 412;  // subscriber loaded a different base network
constexpr int kMisdirected = 421;    // mutating call on a read-only replica

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::uint64_t u64_param(const Json& params, std::string_view key) {
  const Json* value = params.get(key);
  if (value == nullptr || !value->is_number()) {
    fail(kInvalidParams, "missing or non-numeric \"" + std::string(key) + "\" parameter");
  }
  try {
    return value->as_u64();
  } catch (const JsonError& e) {
    fail(kInvalidParams, std::string(key) + ": " + e.what());
  }
}

/// The retained outcome of a job that ran to completion: the command
/// verdicts and the one copy of its final update.
JobOutcome done_outcome(core::EngineReport report) {
  JobOutcome outcome;
  outcome.success = report.success();
  for (const auto& cmd : report.outcomes) {
    CommandSummary summary{cmd.command, cmd.ok(), std::nullopt};
    if (cmd.check) summary.consistent = cmd.check->consistent;
    outcome.commands.push_back(summary);
  }
  outcome.final_update =
      std::make_shared<const topo::AclUpdate>(std::move(report.final_update));
  return outcome;
}

/// `topo` is the job's pinned snapshot topology, which names the plan's
/// interfaces.
Json outcome_json(const topo::Topology& topo, JobState state, const JobOutcome& outcome) {
  Json::Object obj;
  obj.emplace("success", outcome.success);
  if (!outcome.error.empty()) obj.emplace("error", outcome.error);
  if (outcome.final_update) obj.emplace("plan", core::format_plan(topo, *outcome.final_update));
  if (state == JobState::Done) {
    Json::Array commands;
    for (const auto& cmd : outcome.commands) {
      Json::Object entry;
      entry.emplace("command", lai::to_string(cmd.command));
      entry.emplace("ok", cmd.ok);
      if (cmd.consistent) entry.emplace("consistent", *cmd.consistent);
      commands.emplace_back(std::move(entry));
    }
    obj.emplace("commands", std::move(commands));
  }
  return Json{std::move(obj)};
}

/// A program is a pure check — answered by the exact set scan, alone or
/// coalesced — when it is pure verification: at least one command, all of
/// them `check`. Control intents ride along into the scan (§6 desired sets).
bool pure_check(const lai::UpdateTask& task) {
  return !task.commands.empty() &&
         std::all_of(task.commands.begin(), task.commands.end(),
                     [](lai::Command c) { return c == lai::Command::Check; });
}

/// The job's cancellation and deadline probes, as the engine polls them.
core::StopProbes stop_probes(const Job& job) {
  core::StopProbes probes;
  probes.cancelled = [&job] { return job.cancel_requested(); };
  probes.expired = [&job] {
    const auto remaining = job.remaining_ms();
    return remaining && *remaining == 0;
  };
  return probes;
}

/// The coalesce family fingerprint: snapshot version + sorted scope devices
/// + entering cubes. Jobs sharing it verify against the same immutable
/// planning problem, so one batch algebra serves them all. Guarded by the
/// version/scope/entering equality checks the planner and algebra cache
/// already perform; never 0 (0 means "not coalescable").
std::uint64_t coalesce_key_for(Version version, const topo::Scope& scope,
                               const net::PacketSet& entering) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(version);
  std::vector<topo::DeviceId> devices(scope.devices().begin(), scope.devices().end());
  std::sort(devices.begin(), devices.end());
  mix(devices.size());
  for (const auto d : devices) mix(d);
  mix(entering.cube_count());
  for (const auto& cube : entering.cubes()) {
    for (const net::Field f : net::kAllFields) {
      mix(cube.interval(f).lo);
      mix(cube.interval(f).hi);
    }
  }
  return h == 0 ? 1 : h;
}

Json status_json(const Job& job, const JobStatus& status) {
  Json::Object obj;
  obj.emplace("job", status.id);
  obj.emplace("state", to_string(status.state));
  obj.emplace("priority", to_string(status.priority));
  obj.emplace("snapshot", status.snapshot);
  obj.emplace("queue_seconds", status.queue_seconds);
  obj.emplace("run_seconds", status.run_seconds);
  if (is_terminal(status.state)) {
    obj.emplace("outcome", outcome_json(*job.snapshot()->topo, status.state, status.outcome));
  }
  return Json{std::move(obj)};
}

}  // namespace

Server::Server(config::NetworkFile network, ServerOptions options)
    : options_(std::move(options)),
      // Members are declared (and thus initialized) before store_, so the
      // fingerprint can be taken before the network moves into the store.
      repl_hash_(network_fingerprint(network)),
      base_fingerprint_(repl_hash_),
      store_(std::move(network)),
      scheduler_(options_.queue_depth, options_.retain_jobs,
                 std::max(options_.workers, 1u)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.coalesce == 0) options_.coalesce = 1;
  if (options_.keep_versions == 0) options_.keep_versions = 1;
  fec_cache_ = std::make_shared<topo::FecCache>();
  if (options_.max_delta_chain > 0) {
    core::IncrementalOptions inc;
    inc.max_delta_chain = options_.max_delta_chain;
    incremental_ = std::make_shared<core::IncrementalPlanner>(inc);
  }
  // FEC cache entries for a retired version are evicted when its *last*
  // pin is released — a job still running against a trimmed snapshot keeps
  // inserting entries keyed by that topology, so trim-time eviction alone
  // would leave dead keys behind (and alias a recycled allocation if the
  // topology were ever freed). The hook captures the cache shared_ptr, so
  // eviction stays safe whenever the release happens. The incremental
  // planner's delta-cache entries for the version die at the same point.
  // `this` is safe to capture: the hooks live and die with store_, a member
  // of this server (and batch_algebra_/batch_mutex_ are declared before
  // store_, so they outlive its teardown).
  store_.set_release_hook([this, cache = fec_cache_,
                           planner = incremental_](const Snapshot& snapshot) {
    cache->evict(snapshot.topo.get());
    if (planner) planner->retire_version(snapshot.version);
    const std::lock_guard<std::mutex> lock{batch_mutex_};
    std::erase_if(batch_algebra_, [&](const auto& kv) {
      return kv.second.version == snapshot.version;
    });
  });
  // Every apply feeds the delta straight to the planner (no re-diffing)
  // and records one lineage link in the FEC cache — an ACL-only apply
  // preserves every forwarding predicate, so the old version's partitions
  // are valid verbatim and the first lookup that misses on the new topology
  // stitches them through (bounded by the delta-chain budget). The same
  // hook appends the canonical replication record: under the store lock the
  // apply stream is totally ordered, which is exactly the single-writer
  // guarantee the hash chain encodes. Because the record is produced by the
  // hook, a replica applying a subscribed stream re-emits identical records
  // — chained (replica-of-replica) subscriptions work unchanged.
  store_.set_apply_hook([this, cache = fec_cache_, planner = incremental_](
                            const Snapshot& previous, const Snapshot& next,
                            const topo::AclUpdate& update) {
    if (planner) {
      cache->record_delta(previous.topo.get(), next.topo.get(), options_.max_delta_chain);
      planner->record_apply(previous.version, next.version, *previous.topo, update);
    }
    const Json encoded = encode_update(*previous.topo, update);
    repl_hash_ = chain_hash(repl_hash_, next.version, encoded);
    Json::Object record;
    record.emplace("version", next.version);
    record.emplace("hash", hash_hex(repl_hash_));
    record.emplace("update", encoded);
    {
      const std::lock_guard<std::mutex> lock{repl_mutex_};
      repl_log_.push_back({next.version, Json{std::move(record)}.dump() + "\n"});
      repl_head_ = next.version;
    }
    repl_cv_.notify_all();
  });
}

Server::~Server() {
  if (started_ && !torn_down_) {
    request_shutdown();
    try {
      wait();
    } catch (...) {
      // Destructor teardown is best-effort.
    }
  }
}

void Server::prewarm() {
  try {
    const SnapshotPtr head = store_.head();
    if (!head) return;
    // The whole-network plan over the head traffic is what the first
    // post-start checks (and the replica's differential oracle) ask for;
    // deriving it here fills the shared FEC cache and seeds the planner so
    // those jobs start warm instead of paying refinement serially.
    const topo::Scope scope = topo::Scope::whole_network(*head->topo);
    core::Planner planner{*head->topo, scope, job_plan_options()};
    auto bundle = planner.share_plan(head->traffic);
    if (incremental_) incremental_->install(head->version, scope, std::move(bundle));
  } catch (const std::exception&) {
    // Best-effort: a failed pre-warm only means the first jobs derive cold.
  }
}

void Server::start() {
  if (started_) throw ServerError("server already started");
  if (options_.socket_path.empty() && options_.listen_address.empty()) {
    throw ServerError("no transport configured: set socket_path or listen_address");
  }

  const auto fail_start = [this](const std::string& what) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(options_.socket_path.c_str());
    }
    if (tcp_listen_fd_ >= 0) {
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
    }
    throw ServerError(what);
  };

  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      throw ServerError("socket path must be 1.." +
                        std::to_string(sizeof(addr.sun_path) - 1) + " characters: \"" +
                        options_.socket_path + "\"");
    }
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) fail_start("socket(): " + std::string(std::strerror(errno)));
    ::unlink(options_.socket_path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      fail_start("bind(" + options_.socket_path + "): " + std::strerror(errno));
    }
    if (::listen(listen_fd_, 64) != 0) {
      fail_start("listen(): " + std::string(std::strerror(errno)));
    }
  }

  if (!options_.listen_address.empty()) {
    // The Unix socket's permission boundary is the filesystem; TCP has
    // none, so a shared token is mandatory, not optional.
    if (options_.auth_token.empty()) {
      fail_start("TCP listener requires an auth token");
    }
    Endpoint ep;
    try {
      ep = parse_endpoint(options_.listen_address);
    } catch (const EndpointError& e) {
      fail_start(std::string("listen address: ") + e.what());
    }
    if (ep.kind != Endpoint::Kind::Tcp) {
      fail_start("listen address must be host:port, got \"" +
                 options_.listen_address + "\"");
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* found = nullptr;
    const std::string port = std::to_string(ep.port);
    const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &found);
    if (rc != 0) {
      fail_start("resolve(" + ep.host + "): " + ::gai_strerror(rc));
    }
    std::string last_error = "no addresses";
    for (addrinfo* ai = found; ai != nullptr && tcp_listen_fd_ < 0; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) {
        last_error = std::string("socket(): ") + std::strerror(errno);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 || ::listen(fd, 64) != 0) {
        last_error = std::string(std::strerror(errno));
        ::close(fd);
        continue;
      }
      tcp_listen_fd_ = fd;
    }
    ::freeaddrinfo(found);
    if (tcp_listen_fd_ < 0) {
      fail_start("listen(" + options_.listen_address + "): " + last_error);
    }
    // Report the real port — listen addresses like "127.0.0.1:0" ask the
    // kernel for an ephemeral one.
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    std::uint16_t actual_port = ep.port;
    if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        actual_port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        actual_port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    bound_endpoint_ = ep.host + ":" + std::to_string(actual_port);
  }

  installed_.emplace(registry_);
  accepting_.store(true, std::memory_order_release);
  // --workers is the executor pool width; the dispatcher thread pulls
  // dispatch units off the scheduler and participates as pool worker 0, so
  // total execution threads == workers.
  executor_ = std::make_shared<core::Executor>(options_.workers);
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  scheduler_.drain();
  shutdown_cv_.notify_all();
}

void Server::wait() {
  if (!started_) throw ServerError("server not started");
  {
    std::unique_lock<std::mutex> lock{shutdown_mutex_};
    shutdown_cv_.wait(lock, [&] { return shutdown_requested_.load(std::memory_order_acquire); });
  }
  // Drain: the scheduler stops admitting (503) but every admitted job still
  // runs; the dispatcher exits once the backlog is empty.
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  // Now that every job is terminal, pending `result` waits have been
  // answered; close the door and let connection threads notice the flag.
  accepting_.store(false, std::memory_order_release);
  stop_connections_.store(true, std::memory_order_release);
  accept_thread_.join();
  // The accept loop has exited, so connections_ is stable from here on.
  for (auto& conn : connections_) conn.thread.join();
  connections_.clear();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  installed_.reset();
  torn_down_ = true;
}

Version Server::repl_head() const {
  const std::lock_guard<std::mutex> lock{repl_mutex_};
  return repl_head_;
}

void Server::sweep_tick() {
  // Expired leases drop their pins here (release hooks fire once the last
  // pin goes), and the follow-up trim collects any version only a lapsed
  // lease was holding — without waiting for the next apply.
  if (store_.sweep_leases() > 0) {
    const auto dropped = store_.trim(options_.keep_versions);
    if (!dropped.empty()) trim_repl_log();
  }
  // Join finished connection threads: an unjoined thread keeps its stack
  // mapped, so a long-lived server would otherwise grow by one stack per
  // connection it ever served.
  const std::lock_guard<std::mutex> lock{conn_mutex_};
  std::erase_if(connections_, [](Connection& conn) {
    if (!conn.done.load(std::memory_order_acquire)) return false;
    conn.thread.join();
    return true;
  });
}

void Server::trim_repl_log() {
  // Catch-up from any still-resolvable version needs records strictly
  // above the oldest index entry; everything at or below it is dead weight
  // (leased versions are index entries, so subscribers' floors are kept).
  const Version floor = store_.oldest_version();
  const std::lock_guard<std::mutex> lock{repl_mutex_};
  while (!repl_log_.empty() && repl_log_.front().version <= floor) {
    repl_log_.pop_front();
  }
}

void Server::accept_loop() {
  while (accepting_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    nfds_t count = 0;
    if (listen_fd_ >= 0) fds[count++] = pollfd{listen_fd_, POLLIN, 0};
    if (tcp_listen_fd_ >= 0) fds[count++] = pollfd{tcp_listen_fd_, POLLIN, 0};
    const int ready = ::poll(fds, count, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    sweep_tick();
    if (ready == 0) continue;
    for (nfds_t i = 0; i < count; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      // Only the network transport needs the token handshake; the Unix
      // socket's boundary is filesystem permissions.
      const bool needs_auth = fds[i].fd == tcp_listen_fd_;
      if (needs_auth) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      const std::lock_guard<std::mutex> lock{conn_mutex_};
      if (!accepting_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      Connection& conn = connections_.emplace_back();
      conn.thread = std::thread([this, fd, needs_auth, &conn] {
        connection_loop(fd, needs_auth);
        conn.done.store(true, std::memory_order_release);
      });
    }
  }
}

void Server::connection_loop(int fd, bool needs_auth) {
  // A bounded receive timeout lets the thread notice stop_connections_
  // even when the client goes quiet without closing.
  timeval timeout{};
  timeout.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  constexpr std::size_t kMaxLine = 64u << 20;  // defensive bound per request
  // Until the handshake completes the peer is untrusted: it gets a few KB
  // for one auth line, not the 64MB a real request may legitimately need.
  constexpr std::size_t kPreAuthMaxLine = 4096;
  bool authed = !needs_auth;
  std::string buffer;
  char chunk[4096];
  while (!stop_connections_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // client closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      if (!authed) {
        // The one request allowed before the handshake. Anything that is
        // not a well-formed auth call with the right token gets a single
        // terse error line (no hint which part failed) and a hangup.
        std::string response;
        try {
          const Json request = Json::parse(line);
          const Json* method = request.get("method");
          const Json* params = request.get("params");
          const Json* token = params != nullptr ? params->get("token") : nullptr;
          if (method != nullptr && method->is_string() &&
              method->as_string() == "auth" && token != nullptr &&
              token->is_string() && token->as_string() == options_.auth_token) {
            authed = true;
            Json::Object ok;
            ok.emplace("ok", true);
            Json::Object resp;
            const Json* id = request.get("id");
            resp.emplace("id", id != nullptr ? *id : Json{});
            resp.emplace("result", Json{std::move(ok)});
            response = Json{std::move(resp)}.dump() + "\n";
          }
        } catch (const std::exception&) {
          // fall through unauthenticated
        }
        if (!authed) {
          (void)send_all(fd, "{\"error\":{\"code\":401,\"message\":\"unauthorized\"}}\n");
          ::close(fd);
          return;
        }
        if (!send_all(fd, response)) {
          ::close(fd);
          return;
        }
        continue;
      }
      SubscribeIntent sub;
      if (!send_all(fd, handle_line(line, &sub))) {
        ::close(fd);
        return;
      }
      if (sub.requested) {
        serve_subscription(fd, sub.from);
        ::close(fd);
        return;
      }
    }
    buffer.erase(0, start);
    // Unframed garbage; drop the client (tiny budget before auth).
    if (buffer.size() > (authed ? kMaxLine : kPreAuthMaxLine)) break;
  }
  ::close(fd);
}

void Server::serve_subscription(int fd, Version from) {
  subscribers_.fetch_add(1, std::memory_order_relaxed);
  Version sent = from;
  bool ok = true;
  while (ok && !stop_connections_.load(std::memory_order_acquire)) {
    std::vector<std::string> pending;
    {
      std::unique_lock<std::mutex> lock{repl_mutex_};
      repl_cv_.wait_for(lock, std::chrono::milliseconds(200), [&] {
        return repl_head_ > sent ||
               stop_connections_.load(std::memory_order_acquire);
      });
      if (repl_head_ > sent) {
        if (repl_log_.empty() || repl_log_.front().version > sent + 1) {
          // The log was trimmed past this subscriber mid-stream (it held
          // no lease, or let its lease lapse). One explicit error record,
          // then hang up — the replica resets and resubscribes fresh.
          pending.push_back(
              "{\"error\":{\"code\":410,\"message\":\"replication log trimmed "
              "past subscriber; reload and resubscribe\"}}\n");
          ok = false;
        } else {
          for (const ReplRecord& record : repl_log_) {
            if (record.version > sent) pending.push_back(record.line);
          }
          sent = repl_head_;
        }
      }
    }
    for (const std::string& line : pending) {
      if (!send_all(fd, line)) {
        ok = false;
        break;
      }
      obs::count(obs::Counter::SvcReplRecordsStreamed);
    }
    if (ok && pending.empty()) {
      // Idle: notice a silent disconnect without waiting for a send to
      // fail. Any inbound byte on a one-way stream is protocol misuse and
      // closes the connection too.
      char probe;
      if (::recv(fd, &probe, 1, MSG_DONTWAIT | MSG_PEEK) >= 0) ok = false;
    }
  }
  subscribers_.fetch_sub(1, std::memory_order_relaxed);
}

std::string Server::handle_line(const std::string& line, SubscribeIntent* sub) {
  Json id;  // null until the request parses far enough to have one
  Json::Object response;
  try {
    const Json request = Json::parse(line);
    if (const Json* req_id = request.get("id")) id = *req_id;
    const Json& method = request.at("method");
    const Json* params = request.get("params");
    const Json empty{Json::Object{}};
    Json result = dispatch(method.as_string(), params != nullptr ? *params : empty, sub);
    response.emplace("id", std::move(id));
    response.emplace("result", std::move(result));
  } catch (const RpcFailure& e) {
    Json::Object error;
    error.emplace("code", e.code);
    error.emplace("message", e.message);
    response.emplace("id", std::move(id));
    response.emplace("error", Json{std::move(error)});
  } catch (const JsonError& e) {
    Json::Object error;
    error.emplace("code", kParseError);
    error.emplace("message", std::string(e.what()));
    response.emplace("id", std::move(id));
    response.emplace("error", Json{std::move(error)});
  } catch (const std::exception& e) {
    Json::Object error;
    error.emplace("code", kInternalError);
    error.emplace("message", std::string(e.what()));
    response.emplace("id", std::move(id));
    response.emplace("error", Json{std::move(error)});
  }
  return Json{std::move(response)}.dump() + "\n";
}

Json Server::dispatch(const std::string& method, const Json& params,
                      SubscribeIntent* sub) {
  if (method == "submit") return handle_submit(params);
  if (method == "status") return handle_status(params);
  if (method == "result") return handle_result(params);
  if (method == "cancel") return handle_cancel(params);
  if (method == "apply") return handle_apply(params);
  if (method == "lease") return handle_lease(params);
  if (method == "renew") return handle_renew(params);
  if (method == "release") return handle_release(params);
  if (method == "subscribe") return handle_subscribe(params, sub);
  if (method == "info") return handle_info();
  if (method == "metrics") return handle_metrics();
  if (method == "auth") {
    // TCP connections are intercepted pre-dispatch; reaching here means the
    // transport is already trusted (Unix socket, or a second auth call) —
    // acknowledge so clients can auth unconditionally.
    Json::Object obj;
    obj.emplace("ok", true);
    return Json{std::move(obj)};
  }
  if (method == "shutdown") {
    // Reply-first semantics: the drain starts now, but this connection's
    // response line is still written (connections outlive the drain).
    request_shutdown();
    Json::Object obj;
    obj.emplace("draining", true);
    return Json{std::move(obj)};
  }
  fail(kMethodNotFound, "unknown method \"" + method + "\"");
}

Json Server::handle_submit(const Json& params) {
  JobSpec spec;
  const Json* program = params.get("program");
  if (program == nullptr || !program->is_string()) {
    fail(kInvalidParams, "missing or non-string \"program\" parameter");
  }
  spec.program = program->as_string();

  // Parse now so a syntax error is a crisp submission failure instead of a
  // queued job that dies later — and so the default priority can be read
  // off the program (interactive check vs. batch fix/generate).
  lai::Program parsed;
  try {
    parsed = lai::parse(spec.program);
  } catch (const std::exception& e) {
    fail(kInvalidParams, "program: " + std::string(e.what()));
  }
  const bool batch_work =
      std::any_of(parsed.commands.begin(), parsed.commands.end(),
                  [](lai::Command c) { return c != lai::Command::Check; });
  if (options_.read_only && batch_work) {
    // Replicas only verify. Plans must be produced (and applied) where
    // apply_if_head can win: the writer.
    fail(kMisdirected, "read-only replica: submit fix/generate work to the writer at " +
                           (options_.writer_endpoint.empty() ? std::string("<unknown>")
                                                             : options_.writer_endpoint));
  }
  spec.priority = batch_work ? Priority::Batch : Priority::Interactive;

  // The builtin the CLI `run` path also provides: migration statements say
  // "modify X to permit_all" without shipping an ACL body.
  spec.acls.emplace("permit_all", net::Acl::permit_all());
  if (const Json* acls = params.get("acls")) {
    if (!acls->is_object()) fail(kInvalidParams, "\"acls\" must be an object of name -> body");
    for (const auto& [name, body] : acls->as_object()) {
      if (!body.is_string()) {
        fail(kInvalidParams, "acl \"" + name + "\": body must be a string");
      }
      try {
        spec.acls.insert_or_assign(name, config::parse_acl_auto(body.as_string()));
      } catch (const std::exception& e) {
        fail(kInvalidParams, "acl \"" + name + "\": " + e.what());
      }
    }
  }
  if (const Json* priority = params.get("priority")) {
    const auto parsed_priority = parse_priority(priority->as_string());
    if (!parsed_priority) {
      fail(kInvalidParams, "priority must be \"interactive\" or \"batch\", got \"" +
                               priority->as_string() + "\"");
    }
    spec.priority = *parsed_priority;
  }
  if (params.get("deadline_ms") != nullptr) {
    spec.deadline_ms = u64_param(params, "deadline_ms");
  }

  SnapshotPtr snapshot;
  if (params.get("snapshot") != nullptr) {
    const Version version = u64_param(params, "snapshot");
    snapshot = store_.snapshot(version);
    if (!snapshot) {
      fail(kNotFound, "unknown snapshot version " + std::to_string(version));
    }
  } else {
    snapshot = store_.head();
  }

  // Resolve against the pinned topology up front: unknown device/interface/
  // ACL names are submission errors, not queued-job failures. The resolved
  // task rides along on the job so dispatch never re-parses, and pure-check
  // programs get a coalesce key — next_batch() may run same-key jobs (same
  // snapshot version, same scope family) as one dispatch unit.
  try {
    auto task = std::make_shared<const lai::UpdateTask>(
        lai::resolve(parsed, *snapshot->topo, spec.acls));
    if (pure_check(*task)) {
      spec.coalesce_key =
          coalesce_key_for(snapshot->version, task->scope, snapshot->traffic);
    }
    spec.task = std::move(task);
  } catch (const std::exception& e) {
    fail(kInvalidParams, "program: " + std::string(e.what()));
  }

  const Priority priority = spec.priority;
  Scheduler::Admission admission = scheduler_.submit(std::move(spec), std::move(snapshot));
  if (!admission.job) fail(admission.error_code, std::move(admission.error_message));

  Json::Object obj;
  obj.emplace("job", admission.job->id());
  obj.emplace("snapshot", admission.job->snapshot_version());
  obj.emplace("priority", to_string(priority));
  return Json{std::move(obj)};
}

Json Server::handle_status(const Json& params) {
  const std::uint64_t id = u64_param(params, "job");
  // The JobPtr keeps the pinned snapshot the plan is rendered against alive
  // even if retention evicts the job meanwhile.
  const JobPtr job = scheduler_.find(id);
  const auto status = job ? scheduler_.status(id) : std::nullopt;
  if (!status) fail(kNotFound, "unknown job " + std::to_string(id));
  return status_json(*job, *status);
}

Json Server::handle_result(const Json& params) {
  const std::uint64_t id = u64_param(params, "job");
  std::optional<std::chrono::milliseconds> timeout;
  if (params.get("timeout_ms") != nullptr) {
    timeout = std::chrono::milliseconds(u64_param(params, "timeout_ms"));
  }
  const JobPtr job = scheduler_.find(id);
  if (!job) fail(kNotFound, "unknown job " + std::to_string(id));
  auto status = scheduler_.wait(id, timeout);
  const bool done = status.has_value();
  if (!done) {
    // Distinguish "evicted meanwhile" from "still running when the timeout hit".
    status = scheduler_.status(id);
    if (!status) fail(kNotFound, "unknown job " + std::to_string(id));
  }
  Json::Object obj;
  obj.emplace("done", done);
  obj.emplace("status", status_json(*job, *status));
  return Json{std::move(obj)};
}

Json Server::handle_cancel(const Json& params) {
  const std::uint64_t id = u64_param(params, "job");
  if (scheduler_.find(id) == nullptr) fail(kNotFound, "unknown job " + std::to_string(id));
  Json::Object obj;
  obj.emplace("cancelled", scheduler_.cancel(id));
  return Json{std::move(obj)};
}

Json Server::handle_apply(const Json& params) {
  if (options_.read_only) {
    fail(kMisdirected, "read-only replica: apply through the writer at " +
                           (options_.writer_endpoint.empty() ? std::string("<unknown>")
                                                             : options_.writer_endpoint));
  }
  const std::uint64_t id = u64_param(params, "job");
  const JobPtr job = scheduler_.find(id);
  if (job == nullptr) fail(kNotFound, "unknown job " + std::to_string(id));
  const auto status = scheduler_.status(id);
  if (!is_terminal(status->state)) {
    fail(kConflict, "job " + std::to_string(id) + " is still " +
                        std::string(to_string(status->state)));
  }
  if (status->state != JobState::Done || !status->outcome.success ||
      !status->outcome.final_update) {
    fail(kConflict, "job " + std::to_string(id) + " did not produce a deployable plan");
  }

  // The stale-plan check and the head advance are one atomic store
  // operation: of two concurrent applies verified against the same head,
  // exactly one wins — the loser sees the advanced version and conflicts
  // (the same gate also rejects a double-apply of one job).
  const SnapshotPtr next =
      store_.apply_if_head(job->snapshot_version(), *status->outcome.final_update);
  if (!next) {
    fail(kConflict, "job " + std::to_string(id) + " was verified against snapshot " +
                        std::to_string(job->snapshot_version()) + " but head is " +
                        std::to_string(store_.head_version()) +
                        "; re-verify against the current head");
  }
  obs::count(obs::Counter::SvcApplies);

  // Retire old versions. Their FEC cache entries are evicted by the
  // store's release hook once the last job pinning them finishes, so a
  // recycled Topology allocation can never alias a stale cache key. Leased
  // versions survive the trim, so the replication log keeps covering them.
  const auto dropped = store_.trim(options_.keep_versions);
  trim_repl_log();

  Json::Object obj;
  obj.emplace("version", next->version);
  obj.emplace("dropped_versions", dropped.size());
  return Json{std::move(obj)};
}

SnapshotPtr Server::apply_replicated(Version expected_head, const topo::AclUpdate& update) {
  const SnapshotPtr next = store_.apply_if_head(expected_head, update);
  if (!next) return nullptr;
  store_.trim(options_.keep_versions);  // dropped pins release at end of statement
  trim_repl_log();
  return next;
}

Json Server::handle_lease(const Json& params) {
  const Version version = params.get("version") != nullptr
                              ? u64_param(params, "version")
                              : store_.head_version();
  std::uint64_t lease_ms = params.get("lease_ms") != nullptr
                               ? u64_param(params, "lease_ms")
                               : options_.max_lease_ms;
  lease_ms = std::min<std::uint64_t>(std::max<std::uint64_t>(lease_ms, 1),
                                     options_.max_lease_ms);
  const auto lease = store_.acquire_lease(version, lease_ms);
  if (!lease) fail(kNotFound, "unknown snapshot version " + std::to_string(version));
  Json::Object obj;
  obj.emplace("lease", *lease);
  obj.emplace("version", version);
  obj.emplace("lease_ms", lease_ms);
  return Json{std::move(obj)};
}

Json Server::handle_renew(const Json& params) {
  const std::uint64_t lease = u64_param(params, "lease");
  std::uint64_t lease_ms = params.get("lease_ms") != nullptr
                               ? u64_param(params, "lease_ms")
                               : options_.max_lease_ms;
  lease_ms = std::min<std::uint64_t>(std::max<std::uint64_t>(lease_ms, 1),
                                     options_.max_lease_ms);
  std::optional<Version> version;
  if (params.get("version") != nullptr) version = u64_param(params, "version");
  if (!store_.renew_lease(lease, lease_ms, version)) {
    fail(kNotFound, "unknown or expired lease " + std::to_string(lease) +
                        (version ? " (or unknown version " + std::to_string(*version) + ")"
                                 : ""));
  }
  Json::Object obj;
  obj.emplace("renewed", true);
  obj.emplace("lease_ms", lease_ms);
  if (version) obj.emplace("version", *version);
  return Json{std::move(obj)};
}

Json Server::handle_release(const Json& params) {
  const std::uint64_t lease = u64_param(params, "lease");
  Json::Object obj;
  obj.emplace("released", store_.release_lease(lease));
  return Json{std::move(obj)};
}

Json Server::handle_subscribe(const Json& params, SubscribeIntent* sub) {
  if (sub == nullptr) {
    fail(kInvalidParams, "subscribe is only valid on a dedicated connection");
  }
  // `from` is the subscriber's current version; the stream carries records
  // for (from, head]. Omitted means "from the head": live tail only.
  const Version from = params.get("from") != nullptr ? u64_param(params, "from")
                                                     : store_.head_version();
  if (const Json* fp = params.get("fingerprint")) {
    if (!fp->is_string() || fp->as_string() != hash_hex(base_fingerprint_)) {
      fail(kFingerprintMismatch,
           "base network fingerprint mismatch: writer has " +
               hash_hex(base_fingerprint_) +
               "; reload the writer's network file and resubscribe");
    }
  }
  Version head = 0;
  {
    const std::lock_guard<std::mutex> lock{repl_mutex_};
    head = repl_head_;
    if (from > head) {
      fail(kConflict, "subscriber at version " + std::to_string(from) +
                          " is ahead of the writer head " + std::to_string(head) +
                          " (writer restarted?); reload and resubscribe");
    }
    if (from < head && (repl_log_.empty() || repl_log_.front().version > from + 1)) {
      fail(kTooOld, "version " + std::to_string(from) +
                        " predates the replication log; reload the base network "
                        "and resubscribe from scratch");
    }
  }
  sub->requested = true;
  sub->from = from;
  Json::Object obj;
  obj.emplace("head", head);
  obj.emplace("fingerprint", hash_hex(base_fingerprint_));
  obj.emplace("protocol", std::uint64_t{1});
  return Json{std::move(obj)};
}

Json Server::handle_info() {
  Json::Object obj;
  obj.emplace("head_version", store_.head_version());
  obj.emplace("versions", store_.version_count());
  obj.emplace("queued", scheduler_.queued_count());
  obj.emplace("running", scheduler_.running_count());
  obj.emplace("queue_depth", scheduler_.queue_depth());
  obj.emplace("workers", static_cast<std::uint64_t>(options_.workers));
  obj.emplace("coalesce", static_cast<std::uint64_t>(options_.coalesce));
  obj.emplace("draining", scheduler_.draining());
  obj.emplace("read_only", options_.read_only);
  if (!options_.writer_endpoint.empty()) obj.emplace("writer", options_.writer_endpoint);
  if (!bound_endpoint_.empty()) obj.emplace("listen", bound_endpoint_);
  obj.emplace("fingerprint", hash_hex(base_fingerprint_));
  obj.emplace("repl_head", repl_head());
  obj.emplace("subscribers", static_cast<std::uint64_t>(subscriber_count()));
  obj.emplace("leases", static_cast<std::uint64_t>(store_.lease_count()));
  obj.emplace("incremental", incremental_ != nullptr);
  if (incremental_) {
    const core::IncrementalStats stats = incremental_->stats();
    Json::Object inc;
    inc.emplace("max_delta_chain", static_cast<std::uint64_t>(options_.max_delta_chain));
    inc.emplace("hits", stats.hits);
    inc.emplace("misses", stats.misses);
    inc.emplace("invalidations", stats.invalidations);
    inc.emplace("rebases", stats.rebases);
    inc.emplace("fallbacks", stats.fallbacks);
    inc.emplace("cached_plans", static_cast<std::uint64_t>(stats.cached_plans));
    inc.emplace("cached_obligations", static_cast<std::uint64_t>(stats.cached_obligations));
    obj.emplace("delta_cache", Json{std::move(inc)});
  }
  {
    Json::Object fd;
    fd.emplace("splits", registry_.total(obs::Counter::FecDeltaSplits));
    fd.emplace("reused_atoms", registry_.total(obs::Counter::FecDeltaReusedAtoms));
    fd.emplace("rebuilds", registry_.total(obs::Counter::FecDeltaRebuilds));
    fd.emplace("lineage", static_cast<std::uint64_t>(fec_cache_->lineage_entries()));
    obj.emplace("fec_delta", Json{std::move(fd)});
  }
  return Json{std::move(obj)};
}

Json Server::handle_metrics() {
  std::ostringstream out;
  registry_.write_prometheus(out);
  // Live service gauges that only the server knows.
  out << "# TYPE jinjing_svc_queued_jobs gauge\n"
      << "jinjing_svc_queued_jobs " << scheduler_.queued_count() << "\n"
      << "# TYPE jinjing_svc_running_jobs gauge\n"
      << "jinjing_svc_running_jobs " << scheduler_.running_count() << "\n"
      << "# TYPE jinjing_svc_head_version gauge\n"
      << "jinjing_svc_head_version " << store_.head_version() << "\n"
      // The leak watchdogs: tracked jobs are bounded by retention +
      // queue, live snapshots by the version index + job pins, and FEC
      // entries by the live snapshots — a soak diffing two metrics
      // snapshots can catch retention/eviction leaks from these alone.
      << "# TYPE jinjing_svc_versions gauge\n"
      << "jinjing_svc_versions " << store_.version_count() << "\n"
      << "# TYPE jinjing_svc_live_snapshots gauge\n"
      << "jinjing_svc_live_snapshots " << store_.live_snapshots() << "\n"
      << "# TYPE jinjing_svc_tracked_jobs gauge\n"
      << "jinjing_svc_tracked_jobs " << scheduler_.tracked_count() << "\n"
      << "# TYPE jinjing_svc_fec_entries gauge\n"
      << "jinjing_svc_fec_entries " << fec_cache_->live_entries() << "\n"
      << "# TYPE jinjing_svc_fec_lineage gauge\n"
      << "jinjing_svc_fec_lineage " << fec_cache_->lineage_entries() << "\n"
      << "# TYPE jinjing_svc_leases gauge\n"
      << "jinjing_svc_leases " << store_.lease_count() << "\n"
      << "# TYPE jinjing_svc_subscribers gauge\n"
      << "jinjing_svc_subscribers " << subscriber_count() << "\n"
      << "# TYPE jinjing_svc_repl_head gauge\n"
      << "jinjing_svc_repl_head " << repl_head() << "\n";
  if (options_.extra_metrics) options_.extra_metrics(out);
  if (incremental_) {
    const core::IncrementalStats stats = incremental_->stats();
    out << "# TYPE jinjing_svc_cached_plans gauge\n"
        << "jinjing_svc_cached_plans " << stats.cached_plans << "\n"
        << "# TYPE jinjing_svc_cached_obligations_live gauge\n"
        << "jinjing_svc_cached_obligations_live " << stats.cached_obligations << "\n";
  }
  Json::Object obj;
  obj.emplace("prometheus", out.str());
  return Json{std::move(obj)};
}

void Server::dispatch_loop() {
  const std::size_t max = std::max<std::size_t>(options_.coalesce, 1);
  // Engine lanes: fix/generate jobs run one per lane while this loop keeps
  // draining check units, so neither repairs nor checks wait on each
  // other. The scheduler hands out at most `workers` key-0 jobs at once (a
  // job waiting for a lane stays queued), so a handed-off job never waits
  // here for long. Safe because each per-job engine is single-threaded (no
  // shared executor), and every structure it touches (FEC cache,
  // incremental planner, scheduler, batch-algebra map) is internally
  // locked. The lanes are joined before this loop returns, once every
  // handed-off job has finished.
  std::mutex lane_mutex;
  std::condition_variable lane_cv;
  std::deque<JobPtr> handoff;
  bool closing = false;
  std::vector<std::thread> lanes;
  lanes.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    lanes.emplace_back([&] {
      while (true) {
        JobPtr job;
        {
          std::unique_lock<std::mutex> lock{lane_mutex};
          lane_cv.wait(lock, [&] { return closing || !handoff.empty(); });
          if (handoff.empty()) return;
          job = std::move(handoff.front());
          handoff.pop_front();
        }
        execute_job(job);
      }
    });
  }
  while (true) {
    std::vector<JobPtr> unit = scheduler_.next_batch(max);
    if (unit.empty()) break;
    // Every pure check — a unit of one included — runs the exact set scan;
    // fix and generate jobs run the full engine on a lane.
    if (unit.front()->spec().coalesce_key != 0) {
      execute_batch(unit);
      continue;
    }
    obs::count(obs::Counter::SvcOverlapDispatches);
    {
      const std::lock_guard<std::mutex> lock{lane_mutex};
      handoff.push_back(std::move(unit.front()));
    }
    lane_cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock{lane_mutex};
    closing = true;
  }
  lane_cv.notify_all();
  for (std::thread& lane : lanes) lane.join();
}

core::PlanOptions Server::job_plan_options() const {
  // The pool is the parallelism; each per-job engine must stay
  // single-threaded (Executor::run is serialized, not reentrant — a nested
  // run from inside a pool task would deadlock).
  core::PlanOptions plan;
  plan.threads = 1;
  plan.fec_cache = fec_cache_;
  return plan;
}

std::shared_ptr<const core::BatchAlgebra> Server::batch_algebra_for(const JobPtr& job) {
  const std::uint64_t key = job->spec().coalesce_key;
  if (key == 0 || job->spec().task == nullptr) return nullptr;
  const SnapshotPtr& snapshot = job->snapshot();
  {
    const std::lock_guard<std::mutex> lock{batch_mutex_};
    const auto it = batch_algebra_.find(key);
    if (it != batch_algebra_.end() && it->second.version == snapshot->version) {
      return it->second.algebra;
    }
  }
  const lai::UpdateTask& task = *job->spec().task;
  std::shared_ptr<const core::PlanBundle> bundle;
  if (incremental_) {
    bundle = incremental_
                 ->acquire(snapshot->version, task.scope, snapshot->traffic, task.modify)
                 .bundle;
  }
  if (!bundle) {
    core::Planner planner{*snapshot->topo, task.scope, job_plan_options()};
    bundle = planner.share_plan(snapshot->traffic);
    if (incremental_) incremental_->install(snapshot->version, task.scope, bundle);
  }
  auto algebra = std::make_shared<const core::BatchAlgebra>(
      core::build_batch_algebra(*snapshot->topo, std::move(bundle)));
  obs::count(obs::Counter::SvcBatchAlgebraBuilds);
  const std::lock_guard<std::mutex> lock{batch_mutex_};
  VersionedAlgebra& slot = batch_algebra_[key];
  slot.version = snapshot->version;
  slot.algebra = algebra;
  // Entries for released versions are swept by the store's release hook;
  // this bound only guards a pathological many-scope workload on one
  // version.
  if (batch_algebra_.size() > 16) {
    Version oldest = std::numeric_limits<Version>::max();
    for (const auto& [k, v] : batch_algebra_) oldest = std::min(oldest, v.version);
    if (oldest != snapshot->version) {
      std::erase_if(batch_algebra_, [oldest](const auto& kv) {
        return kv.second.version == oldest;
      });
    }
  }
  return algebra;
}

void Server::execute_batch(const std::vector<JobPtr>& batch) {
  const obs::TraceSpan span{obs::Span::SvcBatch};
  std::shared_ptr<const core::BatchAlgebra> algebra;
  try {
    algebra = batch_algebra_for(batch.front());
  } catch (const std::exception&) {
    algebra = nullptr;
  }
  if (!algebra) {
    // No shared algebra (planning failed, or a direct scheduler user
    // without a resolved task): the unit degrades to per-job execution.
    for (const JobPtr& job : batch) execute_job(job);
    return;
  }
  if (batch.size() > 1) {
    // The batch counters keep meaning "coalesced": units of one only run
    // the same scan.
    obs::count(obs::Counter::SvcBatchDispatches);
    obs::count(obs::Counter::SvcBatchJobsCoalesced, batch.size());
    obs::observe(obs::Histogram::SvcBatchSize, batch.size());
  }

  const SnapshotPtr& snapshot = batch.front()->snapshot();
  // The delta cache's verdict reuse is a filter on the scan: each job leases
  // the obligations already proven clean for its exact update, and the scan
  // skips them. Bits are only trusted (and later committed) against the
  // very bundle the algebra scans.
  std::vector<core::BatchItem> items;
  std::vector<bool> leased(batch.size(), false);
  items.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JobPtr& job = batch[i];
    const lai::UpdateTask& task = *job->spec().task;
    core::BatchItem item;
    item.update = &task.modify;
    item.probes = stop_probes(*job);
    item.controls = &task.controls;
    // Leased verdicts were proven without intents, so only an intent-free
    // job may use them (and commit its own).
    if (incremental_ && task.controls.empty()) {
      core::IncrementalLease lease =
          incremental_->acquire(snapshot->version, task.scope, snapshot->traffic, task.modify);
      leased[i] = lease.bundle == algebra->bundle;
      if (leased[i]) item.clean = std::move(lease.clean);
    }
    items.push_back(std::move(item));
  }
  core::BatchRunOptions run;
  // A lone job scans inline: one job's scan takes a few milliseconds, and
  // waking the pool costs more than it saves at that size.
  run.executor = batch.size() > 1 ? executor_.get() : nullptr;
  run.max_shards = std::max<std::size_t>(std::size_t{2} * options_.workers, 2);
  const std::vector<core::BatchOutcome> outcomes =
      core::run_check_batch(*snapshot->topo, *algebra, items, run);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JobPtr& job = batch[i];
    const core::BatchOutcome& bo = outcomes[i];
    if (bo.cancelled || job->cancel_requested()) {
      scheduler_.finish(job, JobState::Cancelled, {});
      continue;
    }
    if (bo.deadline_expired) {
      // Same diagnostic family as a deadline caught at dispatch: the scan
      // issues no solver query, so this is never a solver timeout.
      JobOutcome outcome;
      outcome.error = batch.size() > 1 ? "deadline exceeded while queued in a coalesced batch"
                                       : "deadline exceeded during the check scan";
      scheduler_.finish(job, JobState::Failed, std::move(outcome));
      continue;
    }
    const lai::UpdateTask& task = *job->spec().task;
    core::EngineReport report;
    report.final_update = task.modify;
    for (std::size_t c = 0; c < task.commands.size(); ++c) {
      core::CommandOutcome cmd;
      cmd.command = lai::Command::Check;
      cmd.check = bo.result;
      report.outcomes.push_back(std::move(cmd));
    }
    if (leased[i]) {
      // Seed the verdict cache with the obligations this run proved clean,
      // so a re-check of the same pending update scans only the rest.
      incremental_->commit(snapshot->version, task.scope, snapshot->traffic, task.modify,
                           bo.clean);
    }
    scheduler_.finish(job, JobState::Done, done_outcome(std::move(report)));
  }
}

void Server::execute_job(const JobPtr& job) {
  const obs::TraceSpan span{obs::Span::SvcJob};
  const SnapshotPtr& snapshot = job->snapshot();

  JobOutcome outcome;
  JobState state = JobState::Done;
  try {
    // The server resolved the program at submission; a direct scheduler
    // user may hand us a bare spec, so fall back to resolving here.
    std::shared_ptr<const lai::UpdateTask> resolved = job->spec().task;
    if (resolved == nullptr) {
      const lai::Program program = lai::parse(job->spec().program);
      resolved = std::make_shared<const lai::UpdateTask>(
          lai::resolve(program, *snapshot->topo, job->spec().acls));
    }
    const lai::UpdateTask& task = *resolved;

    core::EngineReport report;
    report.final_update = task.modify;
    // One fresh engine per job, over the server-wide FEC cache. The cache
    // is what makes the service warm — equivalence classes derived for a
    // snapshot by any worker are reused by every later job on that
    // snapshot. Answers are reproducible because every engine stage is
    // deterministic, placement ties included.
    core::EngineOptions engine_options;
    engine_options.plan = job_plan_options();
    // Warm path for fix (and mixed check/fix) jobs: adopt the rebased
    // plan bundle for (version, scope, traffic) so the engine's planner
    // skips path enumeration and planning.
    // Control intents change the obligation set, so only intent-free
    // tasks may adopt.
    if (incremental_ && task.controls.empty()) {
      const core::IncrementalLease lease = incremental_->acquire(
          snapshot->version, task.scope, snapshot->traffic, task.modify);
      if (lease.bundle) {
        engine_options.plan.adopted_plan = lease.bundle;
      }
    }
    core::Engine engine{*snapshot->topo, engine_options};
    // Cancellation and the deadline are cooperative: every command polls
    // the job's probes between its units of work.
    const core::StopProbes probes = stop_probes(*job);
    for (const lai::Command command : task.commands) {
      probes.poll();
      report.outcomes.push_back(
          engine.run_command(task, command, report.final_update, snapshot->traffic, probes));
    }
    if (job->cancel_requested()) {
      state = JobState::Cancelled;
    } else {
      outcome = done_outcome(std::move(report));
    }
  } catch (const core::Interrupted& e) {
    if (e.deadline()) {
      state = JobState::Failed;
      outcome.error = "deadline exceeded while running the job";
    } else {
      state = JobState::Cancelled;
    }
  } catch (const std::exception& e) {
    state = JobState::Failed;
    outcome.error = e.what();
  }
  scheduler_.finish(job, state, std::move(outcome));
}

}  // namespace jinjing::svc
