// The verification service: JSON wire format, versioned state store,
// scheduler policy, and a live server+client round trip on Figure 1.
#include <sched.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "config/acl_format.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "gen/fixtures.h"
#include "obs/stats.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/scheduler.h"
#include "svc/server.h"
#include "svc/state_store.h"

namespace jinjing::svc {
namespace {

// ---------------------------------------------------------------- Json

TEST(JsonTest, RoundTripsScalarsAndContainers) {
  const char* cases[] = {
      "null", "true", "false", "0", "42", "-17", "3.5",
      "\"hello\"", "\"esc \\\" \\\\ \\n\"", "[]", "[1,2,3]",
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
  };
  for (const char* text : cases) {
    const Json parsed = Json::parse(text);
    EXPECT_EQ(Json::parse(parsed.dump()).dump(), parsed.dump()) << text;
  }
}

TEST(JsonTest, DumpIsSingleLineWithIntegralNumbers) {
  Json::Object obj;
  obj.emplace("id", std::uint64_t{12345678901});
  obj.emplace("text", "line1\nline2");
  const std::string dumped = Json{std::move(obj)}.dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_NE(dumped.find("12345678901"), std::string::npos);
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "1 2",
                          "{\"a\":1} trailing", "\"bad \\x escape\"", "01"}) {
    EXPECT_THROW((void)Json::parse(bad), JsonError) << bad;
  }
}

TEST(JsonTest, NestingDepthIsBounded) {
  // Untrusted input: a line of nested containers must fail cleanly rather
  // than overflow the stack via unbounded recursion.
  const std::string deep_array(100000, '[');
  EXPECT_THROW((void)Json::parse(deep_array), JsonError);
  std::string deep_object;
  for (int i = 0; i < 1000; ++i) deep_object += "{\"a\":";
  EXPECT_THROW((void)Json::parse(deep_object), JsonError);

  // Reasonable nesting still parses.
  const std::string ok = std::string(100, '[') + "1" + std::string(100, ']');
  EXPECT_EQ(Json::parse(ok).dump(), ok);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(), "\xf0\x9f\x98\x80");  // 😀
}

TEST(JsonTest, TypedAccessorsEnforceKinds) {
  EXPECT_THROW((void)Json::parse("\"x\"").as_number(), JsonError);
  EXPECT_THROW((void)Json::parse("-1").as_u64(), JsonError);
  EXPECT_THROW((void)Json::parse("1.5").as_u64(), JsonError);
  EXPECT_EQ(Json::parse("7").as_u64(), 7u);
  const Json obj = Json::parse("{\"a\":1}");
  EXPECT_EQ(obj.get("missing"), nullptr);
  EXPECT_THROW((void)obj.at("missing"), JsonError);
}

// ---------------------------------------------------------- StateStore

config::NetworkFile figure1_network() {
  auto fig = gen::make_figure1();
  config::NetworkFile network;
  network.topo = std::move(fig.topo);
  network.traffic = std::move(fig.traffic);
  return network;
}

TEST(StateStoreTest, AppliesProduceNewVersionsWithoutDisturbingOldOnes) {
  StateStore store{figure1_network()};
  EXPECT_EQ(store.head_version(), 1u);

  const SnapshotPtr v1 = store.head();
  const auto a1 = *v1->topo->find_interface("A:1");
  const topo::AclSlot slot{a1, topo::Dir::In};
  const std::size_t original_rules = v1->topo->acl(slot).size();

  topo::AclUpdate update;
  update.emplace(slot, net::Acl::permit_all());
  const SnapshotPtr v2 = store.apply_update(update);
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(store.head_version(), 2u);

  // COW: the old snapshot still sees the original ACL.
  EXPECT_EQ(v1->topo->acl(slot).size(), original_rules);
  EXPECT_NE(v2->topo->acl(slot).size(), original_rules);
  EXPECT_EQ(store.snapshot(1), v1);
}

TEST(StateStoreTest, TrimDropsOldestButPinnedSnapshotsSurvive) {
  StateStore store{figure1_network()};
  const SnapshotPtr v1 = store.head();
  for (int i = 0; i < 4; ++i) store.apply_update({});
  EXPECT_EQ(store.version_count(), 5u);

  const auto dropped = store.trim(2);
  EXPECT_EQ(dropped.size(), 3u);
  EXPECT_EQ(store.version_count(), 2u);
  EXPECT_EQ(store.snapshot(1), nullptr);
  EXPECT_NE(store.snapshot(5), nullptr);
  // The pin keeps the trimmed snapshot usable.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_NE(v1->topo, nullptr);
}

TEST(StateStoreTest, ApplyIfHeadIsAnAtomicConflictCheck) {
  StateStore store{figure1_network()};
  EXPECT_EQ(store.apply_if_head(1, {})->version, 2u);
  // A plan verified against version 1 can no longer land.
  EXPECT_EQ(store.apply_if_head(1, {}), nullptr);
  EXPECT_EQ(store.head_version(), 2u);
  EXPECT_EQ(store.apply_if_head(2, {})->version, 3u);
}

TEST(StateStoreTest, HooksCannotBeInstalledAfterTheFirstApply) {
  StateStore store{figure1_network()};
  store.set_apply_hook([](const Snapshot&, const Snapshot&, const topo::AclUpdate&) {});
  (void)store.apply_update({});
  // A late install would miss the deltas already applied, so it is a hard
  // error.
  EXPECT_THROW(store.set_apply_hook([](const Snapshot&, const Snapshot&,
                                       const topo::AclUpdate&) {}),
               std::logic_error);
}

TEST(StateStoreTest, ApplyHookSeesEveryDeltaInVersionOrder) {
  StateStore store{figure1_network()};
  std::vector<std::pair<Version, Version>> transitions;
  std::vector<std::size_t> delta_sizes;
  store.set_apply_hook(
      [&](const Snapshot& previous, const Snapshot& next, const topo::AclUpdate& update) {
        transitions.emplace_back(previous.version, next.version);
        delta_sizes.push_back(update.size());
      });

  const auto a1 = *store.head()->topo->find_interface("A:1");
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{a1, topo::Dir::In}, net::Acl::permit_all());
  (void)store.apply_update(update);
  (void)store.apply_update({});
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], (std::pair<Version, Version>{1, 2}));
  EXPECT_EQ(transitions[1], (std::pair<Version, Version>{2, 3}));
  EXPECT_EQ(delta_sizes, (std::vector<std::size_t>{1, 0}));
}

TEST(StateStoreTest, TrimmedSnapshotIsFreedOnlyWhenItsLastPinGoesAway) {
  StateStore store{figure1_network()};
  SnapshotPtr v1 = store.head();
  for (int i = 0; i < 3; ++i) store.apply_update({});
  EXPECT_EQ(store.live_snapshots(), 4u);

  // v1 and v2 leave the index; v2 is unpinned and is freed immediately,
  // v1 stays alive through the pin.
  (void)store.trim(2);
  EXPECT_EQ(store.version_count(), 2u);
  EXPECT_EQ(store.live_snapshots(), 3u);

  v1.reset();
  EXPECT_EQ(store.live_snapshots(), 2u);
}

// ----------------------------------------------------------- Scheduler

SnapshotPtr dummy_snapshot() {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->version = 1;
  return snapshot;
}

JobSpec spec_with(Priority priority, std::uint64_t deadline_ms = 0) {
  JobSpec spec;
  spec.program = "scope A:* check";
  spec.priority = priority;
  spec.deadline_ms = deadline_ms;
  return spec;
}

TEST(SchedulerTest, InteractiveDispatchesAheadOfBatchFifoWithin) {
  Scheduler scheduler{16};
  const auto snapshot = dummy_snapshot();
  const auto b1 = scheduler.submit(spec_with(Priority::Batch), snapshot).job;
  const auto b2 = scheduler.submit(spec_with(Priority::Batch), snapshot).job;
  const auto i1 = scheduler.submit(spec_with(Priority::Interactive), snapshot).job;
  const auto i2 = scheduler.submit(spec_with(Priority::Interactive), snapshot).job;
  ASSERT_TRUE(b1 && b2 && i1 && i2);

  EXPECT_EQ(scheduler.next()->id(), i1->id());
  EXPECT_EQ(scheduler.next()->id(), i2->id());
  EXPECT_EQ(scheduler.next()->id(), b1->id());
  EXPECT_EQ(scheduler.next()->id(), b2->id());
}

TEST(SchedulerTest, AdmissionControlRejectsWhenFull) {
  Scheduler scheduler{2};
  const auto snapshot = dummy_snapshot();
  EXPECT_TRUE(scheduler.submit(spec_with(Priority::Interactive), snapshot).job);
  EXPECT_TRUE(scheduler.submit(spec_with(Priority::Batch), snapshot).job);

  const auto rejected = scheduler.submit(spec_with(Priority::Interactive), snapshot);
  EXPECT_EQ(rejected.job, nullptr);
  EXPECT_EQ(rejected.error_code, 429);
  EXPECT_NE(rejected.error_message.find("queue full"), std::string::npos);

  // Dispatching one frees a slot.
  (void)scheduler.next();
  EXPECT_TRUE(scheduler.submit(spec_with(Priority::Interactive), snapshot).job);
}

TEST(SchedulerTest, DrainRejectsNewWorkAndUnblocksWorkers) {
  Scheduler scheduler{4};
  scheduler.drain();
  const auto rejected = scheduler.submit(spec_with(Priority::Interactive), dummy_snapshot());
  EXPECT_EQ(rejected.job, nullptr);
  EXPECT_EQ(rejected.error_code, 503);
  EXPECT_EQ(scheduler.next(), nullptr);  // would block forever without drain
}

TEST(SchedulerTest, CancelQueuedJobFinishesImmediately) {
  Scheduler scheduler{4};
  const auto snapshot = dummy_snapshot();
  const auto job = scheduler.submit(spec_with(Priority::Batch), snapshot).job;
  ASSERT_TRUE(job);
  EXPECT_TRUE(scheduler.cancel(job->id()));
  EXPECT_EQ(scheduler.status(job->id())->state, JobState::Cancelled);
  EXPECT_FALSE(scheduler.cancel(job->id()));  // already terminal
  EXPECT_EQ(scheduler.queued_count(), 0u);
  EXPECT_FALSE(scheduler.cancel(999));  // unknown id
}

TEST(SchedulerTest, RunningJobCancelIsCooperative) {
  Scheduler scheduler{4};
  const auto job = scheduler.submit(spec_with(Priority::Interactive), dummy_snapshot()).job;
  const auto running = scheduler.next();
  ASSERT_EQ(running->id(), job->id());
  EXPECT_TRUE(scheduler.cancel(job->id()));
  EXPECT_EQ(scheduler.status(job->id())->state, JobState::Running);  // flag only
  EXPECT_TRUE(running->cancel_requested());
  scheduler.finish(running, JobState::Cancelled, {});
  EXPECT_EQ(scheduler.status(job->id())->state, JobState::Cancelled);
}

TEST(SchedulerTest, ExpiredDeadlineFailsAtDispatch) {
  Scheduler scheduler{4};
  const auto job = scheduler.submit(spec_with(Priority::Interactive, 1), dummy_snapshot()).job;
  ASSERT_TRUE(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  scheduler.drain();  // so next() returns nullptr instead of blocking
  EXPECT_EQ(scheduler.next(), nullptr);
  const auto status = scheduler.status(job->id());
  EXPECT_EQ(status->state, JobState::Failed);
  EXPECT_NE(status->outcome.error.find("deadline"), std::string::npos);
}

TEST(SchedulerTest, TerminalJobsAreEvictedBeyondRetention) {
  Scheduler scheduler{8, /*retain_terminal=*/2};
  const auto snapshot = dummy_snapshot();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    const auto job = scheduler.submit(spec_with(Priority::Interactive), snapshot).job;
    ASSERT_TRUE(job);
    ids.push_back(job->id());
    const auto running = scheduler.next();
    ASSERT_EQ(running->id(), job->id());
    scheduler.finish(running, JobState::Done, {});
  }
  // The oldest-finished job is forgotten; the two newest stay queryable.
  EXPECT_FALSE(scheduler.status(ids[0]));
  EXPECT_EQ(scheduler.find(ids[0]), nullptr);
  EXPECT_TRUE(scheduler.status(ids[1]));
  EXPECT_TRUE(scheduler.status(ids[2]));
  // Live (non-terminal) jobs are never evicted by retention.
  const auto live = scheduler.submit(spec_with(Priority::Interactive), snapshot).job;
  EXPECT_TRUE(scheduler.status(live->id()));
}

TEST(SchedulerTest, RetentionEvictionReleasesJobsOutsideTheLock) {
  std::atomic<bool> probe_live{true};
  std::atomic<int> releases{0};
  Scheduler scheduler{8, /*retain_terminal=*/1};
  const auto make_snapshot = [&] {
    auto* raw = new Snapshot;
    raw->version = 1;
    return SnapshotPtr(raw, [&](Snapshot* s) {
      // Simulates the store's release hook firing on the last snapshot pin:
      // it re-enters the scheduler, so eviction must hand the dropped
      // JobPtrs out of the mutex before destroying them (a regression
      // deadlocks right here).
      if (probe_live.load()) (void)scheduler.queued_count();
      ++releases;
      delete s;
    });
  };
  for (int i = 0; i < 3; ++i) {
    const auto job = scheduler.submit(spec_with(Priority::Interactive), make_snapshot()).job;
    ASSERT_TRUE(job);
    scheduler.finish(scheduler.next(), JobState::Done, {});
  }
  EXPECT_EQ(releases.load(), 2);  // jobs 1 and 2 evicted beyond retention
  probe_live.store(false);        // the last job dies with the scheduler
}

TEST(SchedulerTest, WaitTimesOutOnRunningJobAndReturnsOnFinish) {
  Scheduler scheduler{4};
  const auto job = scheduler.submit(spec_with(Priority::Interactive), dummy_snapshot()).job;
  (void)scheduler.next();
  EXPECT_FALSE(scheduler.wait(job->id(), std::chrono::milliseconds(20)));

  std::thread finisher{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    JobOutcome outcome;
    outcome.success = true;
    scheduler.finish(job, JobState::Done, std::move(outcome));
  }};
  const auto status = scheduler.wait(job->id());
  finisher.join();
  ASSERT_TRUE(status);
  EXPECT_EQ(status->state, JobState::Done);
  EXPECT_TRUE(status->outcome.success);
  EXPECT_FALSE(scheduler.wait(999));  // unknown id
}

// -------------------------------------------------------- Server + Client

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
// Check then fix, where the fix fails: with only B's slots allowed, no
// placement restores the traffic A:1-in used to deny.
constexpr const char* kFailingFix =
    "scope A:*, B:*, C:*, D:*\nallow B:*\nmodify A:1-in to permit_all\ncheck\nfix\n";

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = (std::filesystem::temp_directory_path() /
                    ("jinjing_svc_test_" + std::to_string(::getpid()) + ".sock"))
                       .string();
    ServerOptions options;
    options.socket_path = socket_path_;
    options.queue_depth = 16;
    options.workers = 2;
    options.keep_versions = 4;
    server_ = std::make_unique<Server>(figure1_network(), options);
    server_->start();
  }

  void TearDown() override {
    if (server_) {
      server_->request_shutdown();
      server_->wait();
      server_.reset();
    }
    std::filesystem::remove(socket_path_);
  }

  Json submit_and_wait(Client& client, Json::Object params) {
    const Json submitted = client.call("submit", Json{std::move(params)});
    Json::Object wait;
    wait.emplace("job", submitted.at("job").as_u64());
    return client.call("result", Json{std::move(wait)});
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ConsistentCheckSucceeds) {
  Client client{socket_path_};
  Json::Object params;
  params.emplace("program", kCheckOnly);
  const Json result = submit_and_wait(client, std::move(params));
  EXPECT_TRUE(result.at("done").as_bool());
  const Json& status = result.at("status");
  EXPECT_EQ(status.at("state").as_string(), "done");
  EXPECT_TRUE(status.at("outcome").at("success").as_bool());
  EXPECT_EQ(status.at("snapshot").as_u64(), 1u);
}

TEST_F(ServerTest, BreakingModifyIsInconsistentAndNotApplicable) {
  Client client{socket_path_};
  Json::Object params;
  params.emplace("program", kBreakingModify);
  const Json result = submit_and_wait(client, std::move(params));
  const Json& status = result.at("status");
  EXPECT_EQ(status.at("state").as_string(), "done");
  EXPECT_FALSE(status.at("outcome").at("success").as_bool());

  // A failed verification is not a deployable plan.
  Json::Object apply;
  apply.emplace("job", status.at("job").as_u64());
  try {
    (void)client.call("apply", Json{std::move(apply)});
    FAIL() << "apply of a failed job must be rejected";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 409);
  }
}

TEST_F(ServerTest, CheckFixProducesPlanAndApplyAdvancesHead) {
  Client client{socket_path_};
  Json::Object params;
  params.emplace("program", kCheckFix);
  Json::Object acls;
  acls.emplace("A1_new", kA1New);
  acls.emplace("A3_new", kA3New);
  params.emplace("acls", Json{std::move(acls)});
  const Json result = submit_and_wait(client, std::move(params));
  const Json& status = result.at("status");
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_EQ(status.at("priority").as_string(), "batch");  // fix => batch
  const Json& outcome = status.at("outcome");
  ASSERT_TRUE(outcome.at("success").as_bool());
  EXPECT_NE(outcome.at("plan").as_string().find("deny dst 6.0.0.0/8"), std::string::npos);

  Json::Object apply;
  apply.emplace("job", status.at("job").as_u64());
  const Json applied = client.call("apply", Json{std::move(apply)});
  EXPECT_EQ(applied.at("version").as_u64(), 2u);
  EXPECT_EQ(server_->store().head_version(), 2u);

  // The repaired network is consistent under a fresh check on the new head.
  Json::Object recheck;
  recheck.emplace("program", kCheckOnly);
  const Json rechecked = submit_and_wait(client, std::move(recheck));
  EXPECT_EQ(rechecked.at("status").at("snapshot").as_u64(), 2u);
  EXPECT_TRUE(rechecked.at("status").at("outcome").at("success").as_bool());
}

TEST_F(ServerTest, StaleSnapshotApplyIsRejected) {
  Client client{socket_path_};
  Json::Object first;
  first.emplace("program", kCheckOnly);
  const Json job1 = submit_and_wait(client, std::move(first));
  Json::Object second;
  second.emplace("program", kCheckOnly);
  const Json job2 = submit_and_wait(client, std::move(second));

  Json::Object apply1;
  apply1.emplace("job", job1.at("status").at("job").as_u64());
  (void)client.call("apply", Json{std::move(apply1)});  // head -> 2

  // job2 verified version 1; head moved on.
  Json::Object apply2;
  apply2.emplace("job", job2.at("status").at("job").as_u64());
  try {
    (void)client.call("apply", Json{std::move(apply2)});
    FAIL() << "stale apply must conflict";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 409);
  }
}

TEST_F(ServerTest, ConcurrentAppliesAdmitExactlyOneWinner) {
  // Two successful jobs verified against the same head race their applies;
  // the check-and-advance is atomic, so exactly one lands and the other
  // conflicts (head never silently absorbs a plan verified elsewhere).
  std::vector<std::uint64_t> jobs;
  {
    Client client{socket_path_};
    for (int i = 0; i < 2; ++i) {
      Json::Object params;
      params.emplace("program", kCheckFix);
      Json::Object acls;
      acls.emplace("A1_new", kA1New);
      acls.emplace("A3_new", kA3New);
      params.emplace("acls", Json{std::move(acls)});
      const Json result = submit_and_wait(client, std::move(params));
      ASSERT_TRUE(result.at("status").at("outcome").at("success").as_bool());
      jobs.push_back(result.at("status").at("job").as_u64());
    }
  }

  std::atomic<int> applied{0};
  std::atomic<int> conflicted{0};
  std::vector<std::thread> threads;
  for (const std::uint64_t job : jobs) {
    threads.emplace_back([&, job] {
      Client client{socket_path_};
      Json::Object params;
      params.emplace("job", job);
      try {
        (void)client.call("apply", Json{std::move(params)});
        ++applied;
      } catch (const RpcError& e) {
        EXPECT_EQ(e.code(), 409);
        ++conflicted;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(applied.load(), 1);
  EXPECT_EQ(conflicted.load(), 1);
  EXPECT_EQ(server_->store().head_version(), 2u);
}

TEST_F(ServerTest, ErrorsCarryRpcCodes) {
  Client client{socket_path_};
  try {
    (void)client.call("frobnicate");
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), -32601);
  }
  try {
    Json::Object params;
    params.emplace("job", 12345);
    (void)client.call("status", Json{std::move(params)});
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 404);
  }
  try {
    Json::Object params;
    params.emplace("program", "scope A:* syntax error here");
    (void)client.call("submit", Json{std::move(params)});
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), -32602);
  }
  try {
    Json::Object params;
    params.emplace("program", kCheckOnly);
    params.emplace("snapshot", 77);
    (void)client.call("submit", Json{std::move(params)});
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 404);  // unknown snapshot version
  }
}

TEST_F(ServerTest, MetricsExportIsLive) {
  Client client{socket_path_};
  Json::Object params;
  params.emplace("program", kCheckOnly);
  (void)submit_and_wait(client, std::move(params));

  const Json metrics = client.call("metrics");
  const std::string& text = metrics.at("prometheus").as_string();
  EXPECT_NE(text.find("# TYPE jinjing_svc_jobs_submitted_total counter"), std::string::npos);
  EXPECT_EQ(text.find("jinjing_svc_jobs_submitted_total 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("jinjing_svc_head_version 1"), std::string::npos);
  EXPECT_NE(text.find("jinjing_svc_queue_wait_micros_bucket"), std::string::npos);
}

TEST_F(ServerTest, ShutdownDrainsGracefully) {
  Client client{socket_path_};
  Json::Object params;
  params.emplace("program", kCheckOnly);
  const Json submitted = client.call("submit", Json{std::move(params)});
  const std::uint64_t job = submitted.at("job").as_u64();

  const Json reply = client.call("shutdown");
  EXPECT_TRUE(reply.at("draining").as_bool());

  // Admission is closed but the admitted job still finishes.
  try {
    Json::Object again;
    again.emplace("program", kCheckOnly);
    (void)client.call("submit", Json{std::move(again)});
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 503);
  }

  Json::Object wait;
  wait.emplace("job", job);
  const Json result = client.call("result", Json{std::move(wait)});
  EXPECT_EQ(result.at("status").at("state").as_string(), "done");

  server_->wait();
  server_.reset();
  EXPECT_THROW(Client{socket_path_}, ClientError);
}

TEST_F(ServerTest, ConcurrentClientsGetIndependentAnswers) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> states(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client{socket_path_};
      Json::Object params;
      params.emplace("program", i % 2 == 0 ? kCheckOnly : kBreakingModify);
      const Json result = submit_and_wait(client, std::move(params));
      states[static_cast<std::size_t>(i)] =
          result.at("status").at("outcome").at("success").as_bool() ? "ok" : "fail";
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(states[static_cast<std::size_t>(i)], i % 2 == 0 ? "ok" : "fail") << i;
  }
}

// ------------------------------------------- Plan cache across versions

/// A server with custom options on its own socket, torn down on scope exit.
struct ScopedServer {
  std::string socket;
  std::unique_ptr<Server> server;

  explicit ScopedServer(ServerOptions options, const std::string& tag) {
    socket = (std::filesystem::temp_directory_path() /
              ("jinjing_svc_inc_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
                 .string();
    options.socket_path = socket;
    server = std::make_unique<Server>(figure1_network(), options);
    server->start();
  }

  ~ScopedServer() {
    server->request_shutdown();
    server->wait();
    server.reset();
    std::filesystem::remove(socket);
  }
};

Json run_program(Client& client, const char* program) {
  Json::Object params;
  params.emplace("program", program);
  const Json submitted = client.call("submit", Json{std::move(params)});
  Json::Object wait;
  wait.emplace("job", submitted.at("job").as_u64());
  return client.call("result", Json{std::move(wait)});
}

std::uint64_t plan_cache_stat(Client& client, const std::string& field) {
  const Json info = client.call("info");
  return info.at("plan_cache").at(field).as_u64();
}

TEST_F(ServerTest, CheckOnlyJobsReuseTheCachedPlanAcrossApplies) {
  Client client{socket_path_};

  // First check-only job: a plan-cache miss, plan built and cached.
  Json first = run_program(client, kCheckOnly);
  EXPECT_TRUE(first.at("status").at("outcome").at("success").as_bool());
  EXPECT_EQ(plan_cache_stat(client, "misses"), 1u);
  EXPECT_EQ(plan_cache_stat(client, "plans"), 1u);
  EXPECT_GE(plan_cache_stat(client, "obligations"), 1u);

  // Second identical job: served from the cached bundle.
  Json second = run_program(client, kCheckOnly);
  EXPECT_TRUE(second.at("status").at("outcome").at("success").as_bool());
  EXPECT_GE(plan_cache_stat(client, "hits"), 1u);

  // An apply mints a new version; the next check hits the same bundle
  // without rebuilding, and verdicts stay correct on the new head.
  const auto c1 = *server_->store().head()->topo->find_interface("C:1");
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{c1, topo::Dir::In}, net::Acl::permit_all());
  (void)server_->store().apply_update(update);

  const std::uint64_t hits_before = plan_cache_stat(client, "hits");
  Json third = run_program(client, kCheckOnly);
  EXPECT_EQ(third.at("status").at("snapshot").as_u64(), 2u);
  EXPECT_TRUE(third.at("status").at("outcome").at("success").as_bool());
  EXPECT_GT(plan_cache_stat(client, "hits"), hits_before);
  EXPECT_EQ(plan_cache_stat(client, "misses"), 1u);

  // A breaking modify over the cached bundle still finds violations.
  Json breaking = run_program(client, kBreakingModify);
  EXPECT_FALSE(breaking.at("status").at("outcome").at("success").as_bool());

  const Json metrics = client.call("metrics");
  const std::string& text = metrics.at("prometheus").as_string();
  EXPECT_NE(text.find("jinjing_delta_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("jinjing_svc_cached_plans 1\n"), std::string::npos);
  EXPECT_NE(text.find("jinjing_svc_cached_obligations_live"), std::string::npos);
  EXPECT_NE(text.find("jinjing_svc_aec_memo_entries 0\n"), std::string::npos);
}

// --------------------------------------- Batched + sharded execution

/// A pure-check workload: the program plus the ACL bodies it references.
struct CheckProgram {
  std::string program;
  std::vector<std::pair<std::string, std::string>> acls;
};

std::uint64_t submit_program(Client& client, const CheckProgram& p,
                             std::optional<std::uint64_t> deadline_ms = {}) {
  Json::Object params;
  params.emplace("program", p.program);
  if (!p.acls.empty()) {
    Json::Object acls;
    for (const auto& [name, body] : p.acls) acls.emplace(name, body);
    params.emplace("acls", Json{std::move(acls)});
  }
  if (deadline_ms) params.emplace("deadline_ms", *deadline_ms);
  return client.call("submit", Json{std::move(params)}).at("job").as_u64();
}

Json wait_result(Client& client, std::uint64_t job) {
  Json::Object wait;
  wait.emplace("job", job);
  wait.emplace("timeout_ms", std::uint64_t{300000});
  return client.call("result", Json{std::move(wait)});
}

/// Blocks until a worker has picked up the blocker job — the window where
/// everything submitted next runs beside it or queues behind it. A
/// condition wait on the scheduler (Queued -> Running is broadcast), not a
/// sleep poll.
void wait_until_worker_busy(Server& server, std::uint64_t blocker_id) {
  const auto status =
      server.scheduler().wait_started(blocker_id, std::chrono::minutes(5));
  ASSERT_TRUE(status.has_value()) << "no worker picked up the blocker job";
}

std::uint64_t prometheus_counter(const std::string& text, const std::string& name) {
  // Anchor at a line start so the "# TYPE <name> counter" comment never matches.
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0;
  return std::stoull(text.substr(pos + needle.size()));
}

/// The four verdict shapes every server must reproduce exactly:
/// consistent no-op, the paper's violation, an equivalent rule split, and a
/// violation strictly inside one traffic class.
std::vector<CheckProgram> equivalence_matrix() {
  return {
      {kCheckOnly, {}},
      {kBreakingModify, {}},
      {"scope A:*, B:*, C:*, D:*\nallow D:*\nmodify D:2-in to D2_split\ncheck\n",
       {{"D2_split",
         "deny dst 1.0.0.0/9\ndeny dst 1.128.0.0/9\ndeny dst 2.0.0.0/8\npermit all\n"}}},
      {"scope A:*, B:*, C:*, D:*\nallow D:*\nmodify D:2-in to D2_narrow\ncheck\n",
       {{"D2_narrow", "deny dst 1.0.0.0/8\ndeny dst 2.0.0.0/9\npermit all\n"}}},
  };
}

/// The fresh-engine oracle, the rule `jinjing soak` uses: a default
/// core::Engine (Z3 checker) per program on the pinned snapshot, nothing
/// shared with any server, its report rendered as the server's `outcome`.
Json engine_outcome(const Snapshot& snapshot, const CheckProgram& p) {
  lai::AclLibrary library;
  library.emplace("permit_all", net::Acl::permit_all());
  for (const auto& [name, body] : p.acls) {
    library.insert_or_assign(name, config::parse_acl_auto(body));
  }
  core::Engine engine{*snapshot.topo};
  const core::EngineReport report = engine.run_program(p.program, library, snapshot.traffic);
  Json::Array commands;
  for (const auto& cmd : report.outcomes) {
    Json::Object entry;
    entry.emplace("command", std::string(lai::to_string(cmd.command)));
    entry.emplace("ok", cmd.ok());
    if (cmd.check) entry.emplace("consistent", cmd.check->consistent);
    commands.emplace_back(std::move(entry));
  }
  Json::Object obj;
  obj.emplace("success", report.success());
  const std::string plan = core::format_plan(*snapshot.topo, report.final_update);
  if (!plan.empty()) obj.emplace("plan", plan);
  obj.emplace("commands", std::move(commands));
  return Json{std::move(obj)};
}

class BatchedServerEquivalence : public ::testing::Test {
 protected:
  static ServerOptions options_for(unsigned workers) {
    ServerOptions options;
    options.workers = workers;
    return options;
  }
};

TEST_F(BatchedServerEquivalence, CoalescedBatchMatchesSequentialOracle) {
  // The batched server queues everything behind its held gate (a fix job
  // among the checks), then runs it on two workers side by side; a second
  // server (workers=1) runs every program twice, the second time on the
  // plan bundle the first one installed. The oracle is a fresh core::Engine
  // per program. A cancellation lands while the jobs are queued, and an
  // apply advances the head between submission and dispatch —
  // client-visible outcomes must still match the oracle job for job.
  ScopedServer solo{options_for(1), "equivalence_solo"};
  ScopedServer batched{options_for(2), "equivalence_batched"};
  Client batched_client{batched.socket};
  Client solo_client{solo.socket};
  const SnapshotPtr pinned = batched.server->store().head();

  // The gate holds the workers until every job below is queued.
  batched.server->scheduler().hold();
  CheckProgram blocker{kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}};
  const std::uint64_t blocker_id = submit_program(batched_client, blocker);

  const auto matrix = equivalence_matrix();
  std::vector<std::uint64_t> batched_ids;
  for (const auto& p : matrix) batched_ids.push_back(submit_program(batched_client, p));
  // A job cancelled while queued must come back cancelled without
  // disturbing the others.
  const std::uint64_t doomed = submit_program(batched_client, {kCheckOnly, {}});
  {
    Json::Object cancel;
    cancel.emplace("job", doomed);
    EXPECT_TRUE(batched_client.call("cancel", Json{std::move(cancel)}).at("cancelled").as_bool());
  }
  // An apply landing before dispatch: the queued jobs keep their pinned
  // snapshot and must verify against it, not the new head.
  (void)batched.server->store().apply_update({});
  batched.server->scheduler().release();

  EXPECT_TRUE(wait_result(batched_client, blocker_id)
                  .at("status").at("outcome").at("success").as_bool());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const std::string oracle = engine_outcome(*pinned, matrix[i]).dump();
    const Json batched_result = wait_result(batched_client, batched_ids[i]);
    const Json& bs = batched_result.at("status");
    EXPECT_EQ(bs.at("state").as_string(), "done") << bs.dump();
    EXPECT_EQ(bs.at("snapshot").as_u64(), 1u) << "must verify the pinned snapshot";
    // The entire client-visible outcome object — success, plan text, and
    // the per-command consistent bits — must be byte-identical.
    EXPECT_EQ(bs.at("outcome").dump(), oracle) << "batched, program " << i;
    for (const char* pass : {"first", "re-check"}) {
      const Json solo_result = wait_result(solo_client, submit_program(solo_client, matrix[i]));
      EXPECT_EQ(solo_result.at("status").at("outcome").dump(), oracle)
          << "solo " << pass << ", program " << i;
    }
  }
  EXPECT_EQ(wait_result(batched_client, doomed).at("status").at("state").as_string(),
            "cancelled");

  // A job submitted after the apply verifies the new head.
  const Json fresh =
      wait_result(batched_client, submit_program(batched_client, {kCheckOnly, {}}));
  EXPECT_EQ(fresh.at("status").at("snapshot").as_u64(), 2u);
  EXPECT_TRUE(fresh.at("status").at("outcome").at("success").as_bool());
}

TEST(RetainedOutcomeTest, FinishedFixJobAnswersAndAppliesLikeTheEngine) {
  // A terminal job keeps a summary of its engine report (per-command
  // verdicts, plan text, repaired update) and drops its resolved inputs.
  // status and result must still render the fresh engine's outcome byte for
  // byte, and apply must install exactly the engine's repaired update.
  ScopedServer scoped{ServerOptions{}, "retained_fix"};
  Client client{scoped.socket};
  const SnapshotPtr pinned = scoped.server->store().head();
  const CheckProgram program{kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}};
  const std::uint64_t id = submit_program(client, program);

  const std::string oracle = engine_outcome(*pinned, program).dump();
  const Json result = wait_result(client, id);
  ASSERT_EQ(result.at("status").at("state").as_string(), "done");
  EXPECT_EQ(result.at("status").at("outcome").dump(), oracle);
  Json::Object query;
  query.emplace("job", id);
  EXPECT_EQ(client.call("status", Json{std::move(query)}).at("outcome").dump(), oracle);

  lai::AclLibrary library;
  library.emplace("permit_all", net::Acl::permit_all());
  for (const auto& [name, body] : program.acls) {
    library.insert_or_assign(name, config::parse_acl_auto(body));
  }
  core::Engine engine{*pinned->topo};
  const core::EngineReport report =
      engine.run_program(program.program, library, pinned->traffic);
  ASSERT_TRUE(report.success());

  Json::Object apply;
  apply.emplace("job", id);
  EXPECT_EQ(client.call("apply", Json{std::move(apply)}).at("version").as_u64(), 2u);
  const SnapshotPtr head = scoped.server->store().head();
  ASSERT_FALSE(report.final_update.empty());
  for (const auto& [slot, acl] : report.final_update) {
    EXPECT_EQ(net::to_string(head->topo->acl(slot)), net::to_string(acl));
  }
}

TEST(RetainedOutcomeTest, FailedFixJobKeepsItsPlanButCannotBeApplied) {
  // A Done job whose fix failed still answers with its plan (the engine's
  // final update, rendered like the fresh engine renders it), and apply
  // refuses it with 409.
  ScopedServer scoped{ServerOptions{}, "failed_fix"};
  Client client{scoped.socket};
  const SnapshotPtr pinned = scoped.server->store().head();
  const CheckProgram program{kFailingFix, {}};
  const std::uint64_t id = submit_program(client, program);

  const Json status = wait_result(client, id).at("status");
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_FALSE(status.at("outcome").at("success").as_bool());
  EXPECT_NE(status.at("outcome").at("plan").as_string().find("acl A:1-in"), std::string::npos);
  EXPECT_EQ(status.at("outcome").dump(), engine_outcome(*pinned, program).dump());

  Json::Object apply;
  apply.emplace("job", id);
  try {
    (void)client.call("apply", Json{std::move(apply)});
    FAIL() << "apply of a failed fix must be rejected";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 409);
  }
  EXPECT_EQ(scoped.server->store().head_version(), 1u);
}

TEST(BatchedServerTest, DeadlineInsideCoalescedBatchGetsQueuedDiagnostic) {
  // A job whose deadline expires while it waits behind the held gate must
  // fail at dispatch with the queued-deadline diagnostic, never a
  // solver-timeout one.
  ServerOptions options;
  options.workers = 1;
  ScopedServer scoped{options, "deadline_batch"};
  Client client{scoped.socket};

  scoped.server->scheduler().hold();
  const std::uint64_t doomed =
      submit_program(client, {kCheckOnly, {}}, /*deadline_ms=*/std::uint64_t{1});
  const std::uint64_t healthy = submit_program(client, {kCheckOnly, {}});
  // Release the gate only once the doomed job's budget is gone.
  const JobPtr doomed_job = scoped.server->scheduler().find(doomed);
  ASSERT_NE(doomed_job, nullptr);
  while (doomed_job->remaining_ms() != std::optional<std::uint64_t>{0}) std::this_thread::yield();
  scoped.server->scheduler().release();

  const Json doomed_status = wait_result(client, doomed).at("status");
  EXPECT_EQ(doomed_status.at("state").as_string(), "failed") << doomed_status.dump();
  const std::string error = doomed_status.at("outcome").at("error").as_string();
  EXPECT_NE(error.find("deadline exceeded while queued"), std::string::npos) << error;
  EXPECT_EQ(error.find("solver timeout"), std::string::npos) << error;

  // The expired job never poisons the one queued behind it.
  const Json healthy_status = wait_result(client, healthy).at("status");
  EXPECT_EQ(healthy_status.at("state").as_string(), "done");
  EXPECT_TRUE(healthy_status.at("outcome").at("success").as_bool());
}

TEST(BatchedServerTest, SoloPureCheckScansWithoutSmtAndRechecksScanNothing) {
  // The exact scan answers a pure check without a single SMT query,
  // byte-identical to a fresh engine, and so does an identical re-check.
  ServerOptions options;
  options.workers = 2;
  ScopedServer scoped{options, "solo_scan"};
  Client client{scoped.socket};
  const SnapshotPtr head = scoped.server->store().head();
  const auto counters = [&client] {
    const std::string text = client.call("metrics").at("prometheus").as_string();
    return std::pair{prometheus_counter(text, "jinjing_smt_queries_total"),
                     prometheus_counter(text, "jinjing_obligations_executed_total")};
  };

  // Both programs rewrite D:2-in, so they touch obligations. The equivalent
  // rule split changes only dst 1.0.0.0/8, which never crosses D:2-in, so
  // every path clip is empty and the scan walks nothing; the narrowed ACL
  // breaks a class, which the scan walks.
  for (const auto& [program, walks] : {std::pair{equivalence_matrix()[2], false},
                                       std::pair{equivalence_matrix()[3], true}}) {
    const std::string oracle = engine_outcome(*head, program).dump();
    const auto [queries_before, executed_before] = counters();
    const Json first = wait_result(client, submit_program(client, program)).at("status");
    const auto [queries_first, executed_first] = counters();
    EXPECT_EQ(first.at("outcome").dump(), oracle);
    EXPECT_EQ(queries_first, queries_before) << "a pure check issued SMT queries";
    EXPECT_EQ(executed_first > executed_before, walks) << program.program;

    const Json again = wait_result(client, submit_program(client, program)).at("status");
    const auto [queries_again, executed_again] = counters();
    EXPECT_EQ(again.at("outcome").dump(), oracle);
    EXPECT_EQ(queries_again, queries_first);
  }
}

std::uint64_t plan_builds(Client& client) {
  return prometheus_counter(client.call("metrics").at("prometheus").as_string(),
                            "jinjing_plan_builds_total");
}

TEST(PlanForTest, TwoFixJobsOnAFreshServerBuildOnePlan) {
  // Every job adopts its plan bundle from the plan cache, and the first
  // build is cached there, so the second fix plans nothing.
  ScopedServer scoped{ServerOptions{}, "plan_fix"};
  Client client{scoped.socket};
  const CheckProgram fix{kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}};
  const std::uint64_t a = submit_program(client, fix);
  const std::uint64_t b = submit_program(client, fix);
  EXPECT_EQ(wait_result(client, a).at("status").at("state").as_string(), "done");
  EXPECT_EQ(wait_result(client, b).at("status").at("state").as_string(), "done");
  EXPECT_EQ(plan_builds(client), 1u);
}

TEST(PlanForTest, HeldChecksOnAColdVersionBuildThePlanOnce) {
  // Three workers pick up three checks at once on a version nobody has
  // planned: the racing misses wait for one build instead of repeating it.
  ServerOptions options;
  options.workers = 3;
  ScopedServer scoped{options, "plan_race"};
  Client client{scoped.socket};
  scoped.server->scheduler().hold();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(submit_program(client, {kCheckOnly, {}}));
  scoped.server->scheduler().release();
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(wait_result(client, id).at("status").at("outcome").at("success").as_bool());
  }
  EXPECT_EQ(plan_builds(client), 1u);
}

TEST(PlanCacheTest, ChecksAcrossSeventeenAppliesBuildThePlanOnce) {
  // A bundle is the same at every version, so however many applies land
  // between them, the checks of one scope share the first build.
  ServerOptions options;
  options.workers = 1;
  ScopedServer scoped{options, "plan_versions"};
  Client client{scoped.socket};
  EXPECT_TRUE(run_program(client, kCheckOnly).at("status").at("outcome")
                  .at("success").as_bool());
  const auto c1 = *scoped.server->store().head()->topo->find_interface("C:1");
  for (int i = 0; i < 17; ++i) {
    topo::AclUpdate update;
    update.emplace(topo::AclSlot{c1, topo::Dir::In},
                   i % 2 == 0 ? net::Acl{{}, net::Action::Deny} : net::Acl::permit_all());
    (void)scoped.server->store().apply_update(update);
    const Json result = run_program(client, kCheckOnly);
    EXPECT_EQ(result.at("status").at("snapshot").as_u64(), static_cast<std::uint64_t>(i + 2));
    EXPECT_TRUE(result.at("status").at("outcome").at("success").as_bool());
  }
  EXPECT_EQ(plan_builds(client), 1u);
  EXPECT_EQ(plan_cache_stat(client, "plans"), 1u);
  EXPECT_EQ(plan_cache_stat(client, "misses"), 1u);
  EXPECT_EQ(plan_cache_stat(client, "hits"), 17u);
}

TEST(PlanCacheTest, AColdBuildCountsOneMiss) {
  ScopedServer scoped{ServerOptions{}, "plan_miss"};
  Client client{scoped.socket};
  const CheckProgram fix{kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}};
  const std::uint64_t a = submit_program(client, fix);
  const std::uint64_t b = submit_program(client, fix);
  EXPECT_EQ(wait_result(client, a).at("status").at("state").as_string(), "done");
  EXPECT_EQ(wait_result(client, b).at("status").at("state").as_string(), "done");
  EXPECT_EQ(plan_cache_stat(client, "misses"), 1u);
  EXPECT_EQ(plan_cache_stat(client, "hits"), 1u);
}

// ------------------------------------------------- Connection lifecycle

/// A /proc/self/status field in kB (VmSize, VmRSS, ...).
std::uint64_t proc_status_kb(const std::string& field) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) return std::stoull(line.substr(field.size() + 1));
  }
  return 0;
}

std::size_t live_threads() {
  const auto tasks = std::filesystem::directory_iterator{"/proc/self/task"};
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

TEST(ConnectionLifecycleTest, SequentialConnectsLeaveThreadsAndVmSizeFlat) {
  // Every connection is served by its own thread; finished ones must be
  // joined, or each leaves its stack mapped (~8 MB of VmSize) for the life
  // of the server.
  ServerOptions options;
  options.workers = 1;
  ScopedServer scoped{options, "reap"};
  const auto one_call = [&scoped] {
    Client client{scoped.socket};
    (void)client.call("info");
  };
  for (int i = 0; i < 8; ++i) one_call();  // warm-up: allocator arenas, stack cache
  // The accept loop reaps on its next tick (<= 200 ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::size_t threads_before = live_threads();
  const std::uint64_t vm_before = proc_status_kb("VmSize");

  for (int i = 0; i < 300; ++i) one_call();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  EXPECT_LE(live_threads(), threads_before + 2);
  // 300 leaked stacks would add ~2.4 GB; allow 256 MB of allocator noise.
  EXPECT_LT(proc_status_kb("VmSize"), vm_before + 256 * 1024);
}

// ------------------------------------------------- Leases & snapshot pins

TEST(LeaseTest, LeaseRenewReleaseVerbsRoundTrip) {
  ServerOptions options;
  options.workers = 1;
  ScopedServer scoped{options, "lease_verbs"};
  Client client{scoped.socket};

  // Default lease: the head version, the server's maximum window.
  const Json granted = client.call("lease");
  const std::uint64_t lease = granted.at("lease").as_u64();
  EXPECT_EQ(granted.at("version").as_u64(), 1u);
  EXPECT_EQ(granted.at("lease_ms").as_u64(), options.max_lease_ms);
  EXPECT_EQ(scoped.server->store().lease_count(), 1u);

  // A requested window past the cap is clamped, never granted.
  Json::Object big;
  big.emplace("lease_ms", std::uint64_t{1} << 40);
  const Json clamped = client.call("lease", Json{std::move(big)});
  EXPECT_EQ(clamped.at("lease_ms").as_u64(), options.max_lease_ms);

  Json::Object renew;
  renew.emplace("lease", lease);
  renew.emplace("lease_ms", std::uint64_t{1000});
  EXPECT_TRUE(client.call("renew", Json{std::move(renew)}).at("renewed").as_bool());

  Json::Object release;
  release.emplace("lease", lease);
  EXPECT_TRUE(client.call("release", Json{std::move(release)}).at("released").as_bool());
  // Releasing twice is a clean no-op answer, not an error.
  Json::Object again;
  again.emplace("lease", lease);
  EXPECT_FALSE(client.call("release", Json{std::move(again)}).at("released").as_bool());

  // Renewing a dead lease and leasing an unknown version are 404s.
  try {
    Json::Object dead;
    dead.emplace("lease", lease);
    (void)client.call("renew", Json{std::move(dead)});
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 404);
  }
  try {
    Json::Object unknown;
    unknown.emplace("version", 99);
    (void)client.call("lease", Json{std::move(unknown)});
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), 404);
  }
}

TEST(LeaseTest, LeasedVersionSurvivesApplyTrimUntilReleased) {
  ServerOptions options;
  options.workers = 1;
  options.keep_versions = 1;
  ScopedServer scoped{options, "lease_trim"};
  Client client{scoped.socket};

  Json::Object acquire;
  acquire.emplace("version", 1);
  const std::uint64_t lease =
      client.call("lease", Json{std::move(acquire)}).at("lease").as_u64();

  // Deploy a repair: apply advances the head and trims to keep_versions=1,
  // but the leased v1 must stay resolvable.
  CheckProgram fix{kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}};
  const Json result = wait_result(client, submit_program(client, fix));
  ASSERT_TRUE(result.at("status").at("outcome").at("success").as_bool()) << result.dump();
  Json::Object apply;
  apply.emplace("job", result.at("status").at("job").as_u64());
  EXPECT_EQ(client.call("apply", Json{std::move(apply)}).at("version").as_u64(), 2u);

  ASSERT_NE(scoped.server->store().snapshot(1), nullptr);
  // A check pinned to the leased version still runs.
  Json::Object pinned;
  pinned.emplace("program", kCheckOnly);
  pinned.emplace("snapshot", 1);
  const std::uint64_t pinned_id =
      client.call("submit", Json{std::move(pinned)}).at("job").as_u64();
  EXPECT_EQ(wait_result(client, pinned_id).at("status").at("snapshot").as_u64(), 1u);

  // Release, then advance the head once more: the next trim collects v1
  // now that no lease holds it.
  Json::Object release;
  release.emplace("lease", lease);
  EXPECT_TRUE(client.call("release", Json{std::move(release)}).at("released").as_bool());
  (void)scoped.server->store().apply_update({});
  (void)scoped.server->store().trim(options.keep_versions);
  EXPECT_EQ(scoped.server->store().snapshot(1), nullptr);
}

TEST(LeaseTest, ExpiredLeaseIsSweptAndItsVersionCollected) {
  ServerOptions options;
  options.workers = 1;
  options.keep_versions = 1;
  ScopedServer scoped{options, "lease_expiry"};
  Client client{scoped.socket};

  // A short lease on v1, never renewed.
  Json::Object acquire;
  acquire.emplace("version", 1);
  acquire.emplace("lease_ms", std::uint64_t{300});
  (void)client.call("lease", Json{std::move(acquire)});

  // Hold the workers, then queue a check pinned to v1 behind the gate —
  // the lease will lapse while the check is still queued.
  scoped.server->scheduler().hold();
  Json::Object pinned;
  pinned.emplace("program", kCheckOnly);
  pinned.emplace("snapshot", 1);
  const std::uint64_t queued_id =
      client.call("submit", Json{std::move(pinned)}).at("job").as_u64();

  // Advance the head so v1 is only held by the lease (and the queued job's
  // own pin). The accept-loop sweeper must collect the lapsed lease and
  // trim v1 out of the index — the eager collection the lease contract
  // promises — without waiting for another apply.
  (void)scoped.server->store().apply_update({});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (scoped.server->store().snapshot(1) != nullptr &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(scoped.server->store().snapshot(1), nullptr) << "expired lease never swept";
  EXPECT_EQ(scoped.server->store().lease_count(), 0u);
  scoped.server->scheduler().release();

  // The in-flight job is unharmed: its own snapshot pin (not the lease)
  // keeps v1 alive until it finishes, and it answers against v1.
  const Json queued_result = wait_result(client, queued_id);
  EXPECT_EQ(queued_result.at("status").at("state").as_string(), "done")
      << queued_result.dump();
  EXPECT_EQ(queued_result.at("status").at("snapshot").as_u64(), 1u);
  EXPECT_TRUE(queued_result.at("status").at("outcome").at("success").as_bool());

  const std::string metrics = client.call("metrics").at("prometheus").as_string();
  EXPECT_GE(prometheus_counter(metrics, "jinjing_svc_leases_expired_total"), 1u);
}

// ----------------------------------------------------- Worker overlap

TEST(OverlapTest, FixRunsOnTheSideSlotWithoutChangingAnswers) {
  // The oracle server has one worker, the other two.
  ServerOptions serial_options;
  serial_options.workers = 1;
  ScopedServer serial{serial_options, "overlap_oracle"};
  ServerOptions options;
  options.workers = 2;
  ScopedServer overlapped{options, "overlap_on"};
  Client client{overlapped.socket};
  Client oracle_client{serial.socket};

  // The fix runs on one worker; the checks behind it drain on the other
  // while it runs instead of queueing until it finishes.
  CheckProgram fix{kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}};
  const std::uint64_t fix_id = submit_program(client, fix);
  wait_until_worker_busy(*overlapped.server, fix_id);
  std::vector<std::uint64_t> checks;
  for (int i = 0; i < 4; ++i) checks.push_back(submit_program(client, {kCheckOnly, {}}));

  for (const std::uint64_t id : checks) {
    EXPECT_TRUE(wait_result(client, id).at("status").at("outcome").at("success").as_bool());
  }
  const Json fixed = wait_result(client, fix_id);
  ASSERT_EQ(fixed.at("status").at("state").as_string(), "done") << fixed.dump();

  // Running beside the checks must not perturb the fix's answer: the
  // one-worker oracle produces the byte-identical outcome.
  const Json oracle_fixed = wait_result(oracle_client, submit_program(oracle_client, fix));
  EXPECT_EQ(fixed.at("status").at("outcome").dump(),
            oracle_fixed.at("status").at("outcome").dump());
}

/// Fix and generate programs on Figure 1: two repairs that succeed, one
/// that fails, and the three generate shapes (migration, isolate intent,
/// replacement ACL).
std::vector<CheckProgram> engine_programs() {
  return {
      {kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}},
      {"scope A:*, B:*, C:*, D:*\nallow C:1-in, C:2-in, D:1-in\n"
       "modify A:1-in to permit_all, D:2-in to permit_all\ngenerate\n",
       {}},
      {"scope A:*, B:*, C:*, D:*\nallow A:*\nmodify A:1-in to permit_all\ncheck\nfix\n", {}},
      {"scope A:*, B:*, C:*, D:*\nallow A:2-out, A:3-out, A:4-out\n"
       "control A:1 -> D:3 isolate dst 4.0.0.0/8\ngenerate\n",
       {}},
      {kFailingFix, {}},
      {"scope A:*, B:*, C:*, D:*\nallow C:1-in, C:2-in, D:1-in\n"
       "modify D:2-in to D2_tight\ngenerate\n",
       {{"D2_tight", "deny dst 2.0.0.0/8\npermit all\n"}}},
  };
}

TEST(EngineLaneTest, SixEngineJobsOnThreeLanesMatchFreshEnginesAndOverlap) {
  ServerOptions options;
  options.workers = 3;
  ScopedServer scoped{options, "lanes"};
  Client client{scoped.socket};
  const SnapshotPtr pinned = scoped.server->store().head();
  const auto programs = engine_programs();
  std::vector<std::string> oracles;
  for (const CheckProgram& p : programs) oracles.push_back(engine_outcome(*pinned, p).dump());

  // Two of the server's own `svc.job` spans, on different worker threads,
  // that overlap in time.
  const auto jobs_overlapped = [&] {
    std::vector<obs::TraceEvent> jobs;
    for (const obs::TraceEvent& e : scoped.server->registry().trace_events()) {
      if (e.name == obs::Span::SvcJob) jobs.push_back(e);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      for (std::size_t j = i + 1; j < jobs.size(); ++j) {
        if (jobs[i].tid != jobs[j].tid && jobs[i].start_us < jobs[j].start_us + jobs[j].dur_us &&
            jobs[j].start_us < jobs[i].start_us + jobs[i].dur_us) {
          return true;
        }
      }
    }
    return false;
  };

  // Every burst is queued before any job runs and must match the fresh
  // engines. A Figure 1 job takes 30-150 us. The workers that release()
  // wakes together can be queued on one CPU, and there they wait until the
  // running worker blocks or its time slice ends. A burst of six jobs
  // drains on one worker before either happens. So each burst holds ten
  // copies of the six programs: 60 jobs, a few milliseconds of work, and
  // still within the default queue depth of 64. Bursts repeat until two
  // jobs provably ran at once.
  constexpr std::size_t kCopies = 10;
  bool overlapped = false;
  for (int burst = 0; burst < 20 && !overlapped; ++burst) {
    std::vector<std::uint64_t> ids;
    scoped.server->scheduler().hold();
    for (std::size_t copy = 0; copy < kCopies; ++copy) {
      for (const CheckProgram& p : programs) ids.push_back(submit_program(client, p));
    }
    scoped.server->scheduler().release();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Json status = wait_result(client, ids[i]).at("status");
      ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
      EXPECT_EQ(status.at("outcome").dump(), oracles[i % programs.size()])
          << "burst " << burst << " program " << i % programs.size();
    }
    overlapped = jobs_overlapped();
  }
  EXPECT_TRUE(overlapped) << "no two engine jobs provably ran at once";
}

/// Pins the calling thread, and every thread it starts meanwhile, to the
/// first CPU it may run on; restores the thread's affinity when destroyed.
class OneCpu {
 public:
  OneCpu() {
    EXPECT_EQ(sched_getaffinity(0, sizeof saved_, &saved_), 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    EXPECT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  }
  ~OneCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_{};
};

TEST(EngineLaneTest, EveryJobAClientSeesDoneHasItsSpanInTheTrace) {
  // A job's svc.job span closes before the job is published as finished,
  // so once a burst has drained the trace holds exactly one span per job.
  // The server's threads inherit this thread's CPU affinity: on one CPU a
  // woken client runs before the worker that woke it gets the CPU back, so
  // a span closed after the job was published would be missing here.
  const OneCpu pinned;
  ServerOptions options;
  options.workers = 2;
  ScopedServer scoped{options, "job_spans"};
  Client client{scoped.socket};
  // Spans of jobs started since `since`: the ring keeps the newest events,
  // and one burst's events fit in it many times over.
  const auto job_spans = [&](std::uint64_t since) {
    const auto events = scoped.server->registry().trace_events();
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(), [&](const obs::TraceEvent& e) {
          return e.name == obs::Span::SvcJob && e.start_us >= since;
        }));
  };
  const auto programs = engine_programs();
  constexpr std::size_t kCopies = 10;
  for (int burst = 0; burst < 40; ++burst) {
    const std::uint64_t since = scoped.server->registry().now_us();
    std::vector<std::uint64_t> ids;
    scoped.server->scheduler().hold();
    for (std::size_t copy = 0; copy < kCopies; ++copy) {
      for (const CheckProgram& p : programs) ids.push_back(submit_program(client, p));
    }
    scoped.server->scheduler().release();
    for (const std::uint64_t id : ids) {
      ASSERT_EQ(wait_result(client, id).at("status").at("state").as_string(), "done");
    }
    EXPECT_EQ(job_spans(since), ids.size()) << "burst " << burst;
  }

  // The generate programs went through the server's AEC memo, which the
  // gauge reports and the memo's capacity bounds.
  const std::string metrics = client.call("metrics").at("prometheus").as_string();
  const std::uint64_t memo_entries =
      prometheus_counter(metrics, "jinjing_svc_aec_memo_entries");
  EXPECT_GE(memo_entries, 1u);
  EXPECT_LE(memo_entries, core::AecMemo::kCapacity);
}

TEST(EngineLaneTest, JobWaitingForTheOnlyLaneIsStillQueued) {
  // One worker: B cannot start until A has finished, and a pure check C
  // queued behind them (batch priority, so FIFO keeps it last) waits for
  // both like any job; those waits are queueing time, not running time.
  ServerOptions options;
  options.workers = 1;
  ScopedServer scoped{options, "one_lane"};
  Client client{scoped.socket};
  const CheckProgram fix{kCheckFix, {{"A1_new", kA1New}, {"A3_new", kA3New}}};

  scoped.server->scheduler().hold();
  const std::uint64_t a = submit_program(client, fix);
  const std::uint64_t b = submit_program(client, fix);
  Json::Object check;
  check.emplace("program", kCheckOnly);
  check.emplace("priority", "batch");
  const std::uint64_t c = client.call("submit", Json{std::move(check)}).at("job").as_u64();
  scoped.server->scheduler().release();

  const Json status_a = wait_result(client, a).at("status");
  const Json status_b = wait_result(client, b).at("status");
  const Json status_c = wait_result(client, c).at("status");
  ASSERT_EQ(status_a.at("state").as_string(), "done") << status_a.dump();
  ASSERT_EQ(status_b.at("state").as_string(), "done") << status_b.dump();
  ASSERT_EQ(status_c.at("state").as_string(), "done") << status_c.dump();
  EXPECT_GE(status_b.at("queue_seconds").as_number(), status_a.at("run_seconds").as_number());
  EXPECT_EQ(status_b.at("outcome").dump(), status_a.at("outcome").dump());
  EXPECT_GE(status_c.at("queue_seconds").as_number(),
            status_a.at("run_seconds").as_number() + status_b.at("run_seconds").as_number());
  EXPECT_TRUE(status_c.at("outcome").at("success").as_bool());
}

// ------------------------------------------------- Client reconnection

TEST(ClientReconnectTest, CallRetriesAcrossAServerRestartOnTheSameSocket) {
  const std::string socket =
      (std::filesystem::temp_directory_path() /
       ("jinjing_svc_reconnect_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerOptions options;
  options.socket_path = socket;
  options.workers = 1;
  auto server = std::make_unique<Server>(figure1_network(), options);
  server->start();

  ClientOptions copts;
  copts.max_retries = 8;
  copts.backoff_ms = 10;
  copts.backoff_cap_ms = 50;
  Client client{socket, copts};
  EXPECT_GE(client.call("info").at("head_version").as_u64(), 1u);

  // Restart the server: the client's fd is dead, and the next call must
  // reconnect and resend transparently.
  server->request_shutdown();
  server->wait();
  server.reset();
  server = std::make_unique<Server>(figure1_network(), options);
  server->start();
  EXPECT_GE(client.call("info").at("head_version").as_u64(), 1u);

  // RpcErrors are the server's answer, never retried or remapped.
  try {
    (void)client.call("frobnicate");
    FAIL();
  } catch (const RpcError& e) {
    EXPECT_EQ(e.code(), -32601);
  }

  // With the server gone for good, the capped retries run out.
  server->request_shutdown();
  server->wait();
  server.reset();
  std::filesystem::remove(socket);
  EXPECT_THROW((void)client.call("info"), ClientError);
}

}  // namespace
}  // namespace jinjing::svc
