// The replication subsystem end to end: a writer streaming applied updates
// over loopback TCP, read-only verifier replicas replaying the stream into
// their own state stores, the lease that pins the replica's applied version
// on the writer, and the replica-aware client routing.
//
// The invariants under test are the ones the design stands on: a replica's
// answers are bit-for-bit the writer's answers at the same version (safety),
// lag drains back to zero after apply bursts (liveness), any divergence —
// including a writer restart — forces a full rebuild rather than a silent
// fork, and mutating calls bounce to the writer with a 421.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deploy.h"
#include "core/engine.h"
#include "gen/fixtures.h"
#include "replica/replica.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/routed_client.h"
#include "svc/server.h"

namespace jinjing {
namespace {

using svc::Client;
using svc::ClientOptions;
using svc::Json;
using svc::RpcError;

constexpr const char* kToken = "replica-test-token";

constexpr const char* kCheckOnly = "scope A:*, B:*, C:*, D:*\ncheck\n";
constexpr const char* kBreakingModify =
    "scope A:*, B:*, C:*, D:*\nallow A:*\nmodify A:1-in to permit_all\ncheck\n";
constexpr const char* kCheckFix =
    "scope A:*, B:*, C:*, D:*\n"
    "allow A:*, B:*\n"
    "modify A:1-in to A1_new, A:3-out to A3_new, C:1-in to permit_all, "
    "D:2-in to permit_all\ncheck\nfix\n";
constexpr const char* kA1New =
    "deny dst 1.0.0.0/8\ndeny dst 2.0.0.0/8\ndeny dst 6.0.0.0/8\npermit all\n";
constexpr const char* kA3New = "deny dst 7.0.0.0/8\npermit all\n";

config::NetworkFile figure1_network() {
  auto fig = gen::make_figure1();
  config::NetworkFile network;
  network.topo = std::move(fig.topo);
  network.traffic = std::move(fig.traffic);
  return network;
}

svc::ServerOptions writer_options() {
  svc::ServerOptions options;
  options.listen_address = "127.0.0.1:0";
  options.auth_token = kToken;
  options.workers = 2;
  options.keep_versions = 8;
  return options;
}

replica::ReplicaOptions replica_options(const std::string& writer_endpoint) {
  replica::ReplicaOptions options;
  options.writer = writer_endpoint;
  options.token = kToken;
  // Tight backoff: the restart test wants the replica to notice a dead
  // writer and redial within milliseconds, not the production 2s cap.
  options.backoff_ms = 10;
  options.backoff_cap_ms = 100;
  options.serve.listen_address = "127.0.0.1:0";
  options.serve.workers = 2;
  return options;
}

ClientOptions client_options() {
  ClientOptions options;
  options.token = kToken;
  return options;
}

/// Polls `pred` until it holds or the (deliberately generous) deadline
/// passes — every wait in this file is on work that completes in
/// milliseconds unless something is actually broken.
template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout = std::chrono::seconds(60)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

Json submit_and_wait(Client& client, Json::Object params) {
  const Json submitted = client.call("submit", Json{std::move(params)});
  Json::Object wait;
  wait.emplace("job", submitted.at("job").as_u64());
  wait.emplace("timeout_ms", std::uint64_t{300000});
  return client.call("result", Json{std::move(wait)});
}

Json::Object check_params(const char* program, std::uint64_t snapshot = 0) {
  Json::Object params;
  params.emplace("program", program);
  if (snapshot != 0) params.emplace("snapshot", snapshot);
  return params;
}

/// The client-visible outcome a from-scratch engine gives `program` on
/// `snapshot`, in the shape of the server's `outcome` object.
Json fresh_engine_outcome(const svc::Snapshot& snapshot, const char* program) {
  lai::AclLibrary library;
  library.emplace("permit_all", net::Acl::permit_all());
  core::Engine engine{*snapshot.topo};
  const core::EngineReport report = engine.run_program(program, library, snapshot.traffic);
  Json::Object outcome;
  outcome.emplace("success", report.success());
  outcome.emplace("plan", core::format_plan(*snapshot.topo, report.final_update));
  Json::Array commands;
  for (const auto& cmd : report.outcomes) {
    Json::Object entry;
    entry.emplace("command", lai::to_string(cmd.command));
    entry.emplace("ok", cmd.ok());
    if (cmd.check) entry.emplace("consistent", cmd.check->consistent);
    commands.emplace_back(std::move(entry));
  }
  outcome.emplace("commands", std::move(commands));
  return Json{std::move(outcome)};
}

Json::Object fix_params() {
  Json::Object params;
  params.emplace("program", kCheckFix);
  Json::Object acls;
  acls.emplace("A1_new", kA1New);
  acls.emplace("A3_new", kA3New);
  params.emplace("acls", Json{std::move(acls)});
  return params;
}

TEST(ReplicaTest, CatchesUpFromTheLogThenFollowsLiveApplies) {
  svc::Server writer{figure1_network(), writer_options()};
  writer.start();
  // Two versions land before the replica exists: it must catch up from the
  // replication log, not just tail new records.
  (void)writer.store().apply_update({});
  (void)writer.store().apply_update({});
  ASSERT_EQ(writer.repl_head(), 3u);

  replica::Replica rep{figure1_network(), replica_options(writer.listen_endpoint())};
  rep.start();
  ASSERT_TRUE(wait_until([&] { return rep.applied_version() == 3; }));
  EXPECT_EQ(rep.server().store().head_version(), 3u);
  EXPECT_TRUE(wait_until([&] { return writer.subscriber_count() == 1; }));
  // The follower's lease is visible on the writer.
  EXPECT_TRUE(wait_until([&] { return writer.store().lease_count() == 1; }));

  // A live apply burst: lag must drain back to zero without a reset.
  for (int i = 0; i < 3; ++i) (void)writer.store().apply_update({});
  ASSERT_TRUE(wait_until([&] { return rep.applied_version() == 6; }));
  EXPECT_EQ(rep.lag(), 0u);
  EXPECT_EQ(rep.resets(), 0u);
  EXPECT_TRUE(rep.connected());
  EXPECT_EQ(rep.server().store().head_version(), 6u);

  // A graceful replica shutdown releases its writer-side lease.
  rep.request_shutdown();
  rep.wait();
  EXPECT_TRUE(wait_until([&] { return writer.store().lease_count() == 0; }));

  writer.request_shutdown();
  writer.wait();
}

TEST(ReplicaTest, ChecksMatchAFreshEngineOracleAtThePinnedVersion) {
  // The oracle is a from-scratch core::Engine on the writer's snapshot of
  // the pinned version. The replica keeps the full serving stack (the plan
  // cache, a bundle shared across versions) and must agree bit for bit.
  svc::Server writer{figure1_network(), writer_options()};
  writer.start();
  Client writer_client{writer.listen_endpoint(), client_options()};

  // Repair the network through the writer so both sides sit at version 2
  // with a real (non-empty) replicated update behind them.
  const Json fixed = submit_and_wait(writer_client, fix_params());
  ASSERT_TRUE(fixed.at("status").at("outcome").at("success").as_bool()) << fixed.dump();
  Json::Object apply;
  apply.emplace("job", fixed.at("status").at("job").as_u64());
  ASSERT_EQ(writer_client.call("apply", Json{std::move(apply)}).at("version").as_u64(), 2u);

  replica::Replica rep{figure1_network(), replica_options(writer.listen_endpoint())};
  rep.start();
  ASSERT_TRUE(wait_until([&] { return rep.applied_version() == 2; }));
  Client replica_client{rep.server().listen_endpoint(), client_options()};

  const svc::SnapshotPtr pinned = writer.store().snapshot(2);
  ASSERT_NE(pinned, nullptr);
  for (const char* program : {kCheckOnly, kBreakingModify}) {
    const Json from_replica = submit_and_wait(replica_client, check_params(program, 2));
    const Json& replica_status = from_replica.at("status");
    ASSERT_EQ(replica_status.at("state").as_string(), "done") << replica_status.dump();
    EXPECT_EQ(replica_status.at("snapshot").as_u64(), 2u);
    // The whole client-visible outcome — verdict, plan text, per-command
    // consistent bits — must be byte-identical to the oracle's.
    EXPECT_EQ(replica_status.at("outcome").dump(), fresh_engine_outcome(*pinned, program).dump())
        << program;
  }

  rep.request_shutdown();
  rep.wait();
  writer.request_shutdown();
  writer.wait();
}

TEST(ReplicaTest, WriterRestartForcesAResetAndAFreshFollow) {
  svc::ServerOptions options = writer_options();
  auto writer = std::make_unique<svc::Server>(figure1_network(), options);
  writer->start();
  const std::string endpoint = writer->listen_endpoint();
  (void)writer->store().apply_update({});

  replica::Replica rep{figure1_network(), replica_options(endpoint)};
  rep.start();
  ASSERT_TRUE(wait_until([&] { return rep.applied_version() == 2; }));

  // The writer restarts from the pristine network on the same port: its
  // head is back at 1 while the replica sits at 2. The subscribe comes
  // back 409 ("ahead of the writer") and the replica must rebuild from
  // scratch rather than trust any of its replayed state.
  writer->request_shutdown();
  writer->wait();
  writer.reset();
  options.listen_address = endpoint;
  writer = std::make_unique<svc::Server>(figure1_network(), options);
  writer->start();

  ASSERT_TRUE(wait_until([&] { return rep.resets() >= 1 && rep.connected(); }));
  ASSERT_TRUE(wait_until([&] { return rep.applied_version() == 1; }));

  // The rebuilt replica follows the new writer like a fresh one would —
  // and its local server answers on the same endpoint as before the reset.
  (void)writer->store().apply_update({});
  ASSERT_TRUE(wait_until([&] { return rep.applied_version() == 2; }));
  EXPECT_EQ(rep.lag(), 0u);
  Client replica_client{rep.server().listen_endpoint(), client_options()};
  const Json result = submit_and_wait(replica_client, check_params(kCheckOnly));
  EXPECT_EQ(result.at("status").at("snapshot").as_u64(), 2u);
  EXPECT_TRUE(result.at("status").at("outcome").at("success").as_bool());

  rep.request_shutdown();
  rep.wait();
  writer->request_shutdown();
  writer->wait();
}

TEST(ReplicaTest, MutatingCallsBounceWithARedirectNamingTheWriter) {
  svc::Server writer{figure1_network(), writer_options()};
  writer.start();
  replica::Replica rep{figure1_network(), replica_options(writer.listen_endpoint())};
  rep.start();
  ASSERT_TRUE(wait_until([&] { return rep.connected(); }));
  Client replica_client{rep.server().listen_endpoint(), client_options()};

  try {
    (void)replica_client.call("submit", Json{fix_params()});
    FAIL() << "fix submission on a replica must be rejected";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 421);
    EXPECT_NE(std::string{e.what()}.find(writer.listen_endpoint()), std::string::npos)
        << e.what();
  }
  try {
    Json::Object apply;
    apply.emplace("job", 1);
    (void)replica_client.call("apply", Json{std::move(apply)});
    FAIL() << "apply on a replica must be rejected";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 421);
  }
  // Pure checks still serve locally on the very same connection.
  const Json checked = submit_and_wait(replica_client, check_params(kCheckOnly));
  EXPECT_TRUE(checked.at("status").at("outcome").at("success").as_bool());

  rep.request_shutdown();
  rep.wait();
  writer.request_shutdown();
  writer.wait();
}

TEST(ReplicaTest, RoutedClientSplitsReadsFromWritesAndReadsItsOwnWrites) {
  svc::Server writer{figure1_network(), writer_options()};
  writer.start();
  replica::Replica rep{figure1_network(), replica_options(writer.listen_endpoint())};
  rep.start();
  ASSERT_TRUE(wait_until([&] { return rep.connected(); }));

  svc::RouteOptions route;
  route.writer = writer.listen_endpoint();
  route.replicas.push_back(rep.server().listen_endpoint());
  route.client = client_options();
  svc::RoutedClient routed{route};

  // A pure check lands on the replica, not the writer.
  const std::size_t replica_jobs_before = rep.server().scheduler().tracked_count();
  const std::size_t writer_jobs_before = writer.scheduler().tracked_count();
  {
    const Json submitted = routed.call("submit", Json{check_params(kCheckOnly)});
    Json::Object wait;
    wait.emplace("job", submitted.at("job").as_u64());
    const Json result = routed.call("result", Json{std::move(wait)});
    EXPECT_TRUE(result.at("status").at("outcome").at("success").as_bool());
  }
  EXPECT_EQ(rep.server().scheduler().tracked_count(), replica_jobs_before + 1);
  EXPECT_EQ(writer.scheduler().tracked_count(), writer_jobs_before);

  // The fix goes to the writer (it owns the job, so apply-by-id works).
  const Json fixed_submit = routed.call("submit", Json{fix_params()});
  Json::Object wait;
  wait.emplace("job", fixed_submit.at("job").as_u64());
  const Json fixed = routed.call("result", Json{std::move(wait)});
  ASSERT_TRUE(fixed.at("status").at("outcome").at("success").as_bool()) << fixed.dump();
  Json::Object apply;
  apply.emplace("job", fixed.at("status").at("job").as_u64());
  EXPECT_EQ(routed.call("apply", Json{std::move(apply)}).at("version").as_u64(), 2u);
  EXPECT_EQ(routed.last_applied(), 2u);

  // Read-your-writes: the next check pins the version this client just
  // applied; the router waits out replica catch-up instead of serving a
  // stale answer.
  const Json reread = routed.call("submit", Json{check_params(kCheckOnly)});
  Json::Object rewait;
  rewait.emplace("job", reread.at("job").as_u64());
  const Json result = routed.call("result", Json{std::move(rewait)});
  EXPECT_EQ(result.at("status").at("snapshot").as_u64(), 2u);
  EXPECT_TRUE(result.at("status").at("outcome").at("success").as_bool());

  rep.request_shutdown();
  rep.wait();
  writer.request_shutdown();
  writer.wait();
}

TEST(ReplicaTest, ShutdownRpcOnTheLocalServerStopsTheWholeReplica) {
  svc::Server writer{figure1_network(), writer_options()};
  writer.start();
  replica::Replica rep{figure1_network(), replica_options(writer.listen_endpoint())};
  rep.start();
  ASSERT_TRUE(wait_until([&] { return rep.connected(); }));

  // An operator draining the replica's own server must take the follower
  // down with it — wait() returns without anyone calling request_shutdown.
  {
    Client replica_client{rep.server().listen_endpoint(), client_options()};
    EXPECT_TRUE(replica_client.call("shutdown").at("draining").as_bool());
  }
  rep.wait();
  EXPECT_TRUE(wait_until([&] { return writer.subscriber_count() == 0; }));

  writer.request_shutdown();
  writer.wait();
}

}  // namespace
}  // namespace jinjing
