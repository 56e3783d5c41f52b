// The continuous-churn soak harness, at ctest scale.
//
// The 60-second CI soak lives in the workflow; these tests keep the same
// machinery honest in minutes: the stream generator's determinism contract,
// end-to-end coverage of the adversarial event kinds (malformed intents
// bounced at submission, conflicting control lines resolved to definite
// verdicts that match the oracle), and one mini soak run through the full
// harness — sessions, applies, oracle, retention flush, leak watchdogs.
#include "soak/soak.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "config/acl_format.h"
#include "config/topology_format.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "svc/client.h"
#include "svc/server.h"

namespace jinjing {
namespace {

using svc::Json;

std::string temp_socket(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("jinjing_soak_test_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

std::unique_ptr<svc::Server> start_server(const gen::Wan& wan, const std::string& tag,
                                          svc::ServerOptions options = {}) {
  config::NetworkFile network;
  network.topo = wan.topo;
  network.traffic = wan.traffic;
  options.socket_path = temp_socket(tag);
  auto server = std::make_unique<svc::Server>(std::move(network), std::move(options));
  server->start();
  return server;
}

Json submit_event(svc::Client& client, const gen::ChurnEvent& event) {
  Json::Object params;
  params.emplace("program", event.program);
  if (!event.acls.empty()) {
    Json::Object acls;
    for (const auto& [name, acl] : event.acls) acls.emplace(name, config::print_acl(acl));
    params.emplace("acls", Json{std::move(acls)});
  }
  return client.call("submit", Json{std::move(params)});
}

TEST(ChurnStreamTest, SameSeedSameStream) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  gen::ChurnStreamParams params;
  params.events = 200;
  params.seed = 17;
  const auto a = gen::churn_stream(wan, params);
  const auto b = gen::churn_stream(wan, params);
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(gen::describe(a[i]), gen::describe(b[i])) << "event " << i;
    EXPECT_EQ(a[i].program, b[i].program) << "event " << i;
  }
}

TEST(ChurnStreamTest, DifferentSeedsDiverge) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  gen::ChurnStreamParams params;
  params.events = 50;
  params.seed = 1;
  const auto a = gen::churn_stream(wan, params);
  params.seed = 2;
  const auto b = gen::churn_stream(wan, params);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = gen::describe(a[i]) != gen::describe(b[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChurnStreamTest, MixWeightsSelectKinds) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  gen::ChurnStreamParams params;
  params.events = 40;
  params.seed = 3;
  params.mix = {};  // start from the defaults, then zero all but one kind
  params.mix.pure_check = 1.0;
  params.mix.pending_check = 0;
  params.mix.check_fix = 0;
  params.mix.apply = 0;
  params.mix.control_open = 0;
  params.mix.migration = 0;
  params.mix.cancel = 0;
  params.mix.malformed = 0;
  params.mix.conflicting = 0;
  for (const auto& event : gen::churn_stream(wan, params)) {
    EXPECT_EQ(event.kind, gen::ChurnEventKind::PureCheck) << gen::describe(event);
    EXPECT_FALSE(event.expect_submit_error);
  }
}

/// Every malformed variant is rejected at submission with the invalid-params
/// code and a diagnostic — and the server keeps answering normal work.
TEST(SoakEndToEndTest, MalformedIntentsBounceAtSubmission) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  gen::ChurnStreamParams params;
  params.events = 8;  // cycles through all malformed variants
  params.seed = 11;
  params.mix = {};
  params.mix.pure_check = 0;
  params.mix.pending_check = 0;
  params.mix.check_fix = 0;
  params.mix.apply = 0;
  params.mix.control_open = 0;
  params.mix.migration = 0;
  params.mix.cancel = 0;
  params.mix.malformed = 1.0;
  params.mix.conflicting = 0;
  const auto stream = gen::churn_stream(wan, params);

  auto server = start_server(wan, "malformed");
  svc::Client client{server->socket_path()};
  for (const auto& event : stream) {
    ASSERT_TRUE(event.expect_submit_error) << gen::describe(event);
    try {
      (void)submit_event(client, event);
      FAIL() << "malformed event accepted: " << gen::describe(event) << "\n"
             << event.program;
    } catch (const svc::RpcError& e) {
      EXPECT_EQ(e.code(), -32602) << e.what();
      EXPECT_STRNE(e.what(), "") << gen::describe(event);
    }
  }

  // The same connection still serves well-formed work afterwards.
  Json::Object params_ok;
  params_ok.emplace("program", "scope " + wan.topo.device_name(wan.cores[0]) + "\ncheck\n");
  const Json submitted = client.call("submit", Json{std::move(params_ok)});
  Json::Object wait;
  wait.emplace("job", submitted.at("job").as_u64());
  const Json result = client.call("result", Json{std::move(wait)});
  EXPECT_EQ(result.at("status").at("state").as_string(), "done") << result.dump();

  server->request_shutdown();
  server->wait();
  std::filesystem::remove(server->socket_path());
}

/// Conflicting open+isolate control pairs are legal LAI: first-match
/// specification order resolves them, the job reaches a definite verdict,
/// and that verdict (and plan) matches a fresh sequential engine.
TEST(SoakEndToEndTest, ConflictingControlsResolveAndMatchOracle) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  gen::ChurnStreamParams params;
  params.events = 6;
  params.seed = 23;
  params.mix = {};
  params.mix.pure_check = 0;
  params.mix.pending_check = 0;
  params.mix.check_fix = 0;
  params.mix.apply = 0;
  params.mix.control_open = 0;
  params.mix.migration = 0;
  params.mix.cancel = 0;
  params.mix.malformed = 0;
  params.mix.conflicting = 1.0;
  const auto stream = gen::churn_stream(wan, params);

  auto server = start_server(wan, "conflicting");
  svc::Client client{server->socket_path()};
  for (const auto& event : stream) {
    ASSERT_FALSE(event.expect_submit_error);
    const Json submitted = submit_event(client, event);
    const std::uint64_t id = submitted.at("job").as_u64();
    const svc::JobPtr job = server->scheduler().find(id);
    ASSERT_NE(job, nullptr);
    const svc::SnapshotPtr snapshot = job->snapshot();

    Json::Object wait;
    wait.emplace("job", id);
    const Json result = client.call("result", Json{std::move(wait)});
    const Json& status = result.at("status");
    ASSERT_EQ(status.at("state").as_string(), "done")
        << gen::describe(event) << "\n"
        << result.dump();

    core::Engine oracle{*snapshot->topo};
    lai::AclLibrary library;
    library.emplace("permit_all", net::Acl::permit_all());
    for (const auto& [name, acl] : event.acls) {
      library.insert_or_assign(name, config::parse_acl_auto(config::print_acl(acl)));
    }
    const core::EngineReport oracle_report =
        oracle.run_program(event.program, library, snapshot->traffic);
    EXPECT_EQ(oracle_report.success(), status.at("outcome").at("success").as_bool())
        << gen::describe(event);
    EXPECT_EQ(core::format_plan(*snapshot->topo, oracle_report.final_update),
              status.at("outcome").at("plan").as_string())
        << gen::describe(event);
  }

  server->request_shutdown();
  server->wait();
  std::filesystem::remove(server->socket_path());
}

/// One full harness run at ctest scale: concurrent sessions, applies
/// interleaved with checks, plans shared across versions, the
/// differential oracle over every completed job, the retention flush and
/// every leak invariant. The event mix trims the slowest kinds so the run
/// stays TSan-friendly.
TEST(SoakEndToEndTest, MiniSoakRunsCleanUnderChurn) {
  soak::SoakOptions options;
  options.wan = gen::small_wan();
  options.stream.events = 120;
  options.stream.seed = 5;
  options.stream.mix.check_fix = 0.03;
  options.stream.mix.control_open = 0.02;
  options.stream.mix.migration = 0.01;
  options.sessions = 3;
  options.server.socket_path = temp_socket("mini");
  options.server.workers = 4;
  options.server.keep_versions = 8;
  options.server.retain_jobs = 48;

  const soak::SoakReport report = soak::run_soak(options);
  for (const auto& failure : report.failures) ADD_FAILURE() << failure;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.passes, 1u);
  EXPECT_GT(report.oracle_checked, 0u);
  EXPECT_EQ(report.oracle_mismatches, 0u);
  EXPECT_GE(report.applies, 1u);
  EXPECT_GE(report.expected_submit_errors, 1u);
  EXPECT_GE(report.flushed, options.server.retain_jobs);
  EXPECT_GE(report.samples.size(), 3u);
  EXPECT_NE(report.stream_fingerprint, 0u);
  // The final sample is what the watchdogs bounded: nothing in flight,
  // retention at its cap, caches proportional to live state.
  const soak::MetricSample& final_sample = report.samples.back();
  EXPECT_EQ(final_sample.queued, 0u);
  EXPECT_EQ(final_sample.running, 0u);
  EXPECT_LE(final_sample.tracked_jobs, options.server.retain_jobs);
  EXPECT_LE(final_sample.versions, options.server.keep_versions);
}

}  // namespace
}  // namespace jinjing
