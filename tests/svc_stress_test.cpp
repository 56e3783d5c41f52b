// Soak test (ctest label "slow"): N concurrent clients drive randomized
// check / check+fix jobs at a live server, sprinkle cancellations, and one
// client applies a plan mid-run so later jobs pin a newer snapshot. Every
// job must reach a definite terminal state, and every completed job's
// result must match a sequential oracle engine run against the same
// snapshot.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "config/acl_format.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "svc/client.h"
#include "svc/server.h"

namespace jinjing::svc {
namespace {

struct JobRecord {
  std::uint64_t id = 0;
  std::string program;
  std::map<std::string, std::string> acl_bodies;
  bool cancel_attempted = false;
};

/// A check+fix program for a rule perturbation, together with the ACL
/// bodies a client would ship over the wire.
struct Workload {
  std::string program;
  std::map<std::string, std::string> acl_bodies;
};

std::string scope_line(const gen::Wan& wan) {
  std::string scope = "scope ";
  for (topo::DeviceId d = 0; d < wan.topo.device_count(); ++d) {
    if (d > 0) scope += ", ";
    scope += wan.topo.device_name(d);
  }
  return scope;
}

std::string slot_ref(const gen::Wan& wan, topo::AclSlot slot) {
  return wan.topo.qualified_name(slot.iface) + (slot.dir == topo::Dir::In ? "-in" : "-out");
}

Workload perturb_workload(const gen::Wan& wan, double fraction, unsigned seed,
                          const std::string& commands = "check\nfix\n") {
  const topo::AclUpdate update = gen::perturb_rules(wan, fraction, seed);
  Workload workload;
  std::string modifies;
  std::size_t i = 0;
  for (const auto& [slot, acl] : update) {
    const std::string name = "acl_" + std::to_string(i++);
    modifies += "modify " + slot_ref(wan, slot) + " to " + name + "\n";
    workload.acl_bodies.emplace(name, config::print_acl(acl));
  }
  std::string allow = "allow ";
  for (std::size_t g = 0; g < wan.gateways.size(); ++g) {
    if (g > 0) allow += ", ";
    allow += wan.topo.device_name(wan.gateways[g]);
  }
  workload.program = scope_line(wan) + "\n" + allow + "\n" + modifies + commands;
  return workload;
}

/// A consistency-preserving rebind: the slot's current ACL with its first
/// rule duplicated. First-match semantics make the check pass, so the plan
/// is deployable — but the rule lists differ, so the apply is a real
/// version bump with a non-trivial differential.
Workload duplicate_rule_workload(const gen::Wan& wan, const topo::Topology& head,
                                 topo::AclSlot slot) {
  const net::Acl& acl = head.acl(slot);
  std::vector<net::AclRule> rules{acl.rules().begin(), acl.rules().end()};
  rules.insert(rules.begin(), rules.front());
  Workload workload;
  workload.acl_bodies.emplace("dup", config::print_acl(net::Acl{std::move(rules),
                                                                acl.default_action()}));
  workload.program =
      scope_line(wan) + "\nmodify " + slot_ref(wan, slot) + " to dup\ncheck\n";
  return workload;
}

std::string check_only_program(const gen::Wan& wan) {
  std::string scope = "scope ";
  for (topo::DeviceId d = 0; d < wan.topo.device_count(); ++d) {
    if (d > 0) scope += ", ";
    scope += wan.topo.device_name(d);
  }
  return scope + "\ncheck\n";
}

Json submit_job(Client& client, const std::string& program,
                const std::map<std::string, std::string>& acl_bodies) {
  Json::Object params;
  params.emplace("program", program);
  if (!acl_bodies.empty()) {
    Json::Object acls;
    for (const auto& [name, body] : acl_bodies) acls.emplace(name, body);
    params.emplace("acls", Json{std::move(acls)});
  }
  return client.call("submit", Json{std::move(params)});
}

TEST(SvcStressTest, ConcurrentClientsMatchSequentialOracle) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  config::NetworkFile network;
  network.topo = wan.topo;  // the oracle keeps its own copy via the store
  network.traffic = wan.traffic;

  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("jinjing_svc_stress_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerOptions options;
  options.socket_path = socket_path;
  options.queue_depth = 128;
  options.workers = 3;
  options.keep_versions = 64;  // every snapshot stays resolvable for the oracle
  Server server{std::move(network), options};
  server.start();

  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 5;
  std::mutex records_mutex;
  std::vector<JobRecord> records;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client{socket_path};
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobRecord record;
        const unsigned seed = static_cast<unsigned>(c * 100 + j + 1);
        if (j < 3) {
          record.program = check_only_program(wan);
        } else {
          const Workload workload = perturb_workload(wan, 0.08, seed);
          record.program = workload.program;
          record.acl_bodies = workload.acl_bodies;
        }
        const Json submitted = submit_job(client, record.program, record.acl_bodies);
        record.id = submitted.at("job").as_u64();
        if (j == kJobsPerClient - 1) {
          // Cancellation racing execution: must yield *some* terminal state.
          Json::Object cancel;
          cancel.emplace("job", record.id);
          (void)client.call("cancel", Json{std::move(cancel)});
          record.cancel_attempted = true;
        }
        const std::lock_guard<std::mutex> lock{records_mutex};
        records.push_back(std::move(record));
      }
    });
  }

  // Mid-run apply from a separate session: verify a perturbation against
  // head, deploy the repaired plan, advancing every later job's snapshot.
  {
    Client applier{socket_path};
    const Workload workload = perturb_workload(wan, 0.05, 999);
    const Json submitted = submit_job(applier, workload.program, workload.acl_bodies);
    JobRecord record;
    record.id = submitted.at("job").as_u64();
    record.program = workload.program;
    record.acl_bodies = workload.acl_bodies;
    Json::Object wait;
    wait.emplace("job", record.id);
    const Json result = applier.call("result", Json{std::move(wait)});
    ASSERT_EQ(result.at("status").at("state").as_string(), "done") << result.dump();
    if (result.at("status").at("outcome").at("success").as_bool()) {
      Json::Object apply;
      apply.emplace("job", record.id);
      const Json applied = applier.call("apply", Json{std::move(apply)});
      EXPECT_GE(applied.at("version").as_u64(), 2u);
    }
    const std::lock_guard<std::mutex> lock{records_mutex};
    records.push_back(std::move(record));
  }

  for (auto& thread : clients) thread.join();

  // Every job terminates with a definite status.
  Client checker{socket_path};
  struct Completed {
    JobRecord record;
    Version snapshot = 0;
    bool success = false;
    std::string plan;
  };
  std::vector<Completed> completed;
  for (const auto& record : records) {
    Json::Object wait;
    wait.emplace("job", record.id);
    wait.emplace("timeout_ms", std::uint64_t{300000});
    const Json result = checker.call("result", Json{std::move(wait)});
    ASSERT_TRUE(result.at("done").as_bool()) << "job " << record.id << " never terminated";
    const Json& status = result.at("status");
    const std::string state = status.at("state").as_string();
    EXPECT_TRUE(state == "done" || state == "failed" || state == "cancelled") << state;
    if (state == "failed") {
      ADD_FAILURE() << "job " << record.id << " failed: "
                    << status.at("outcome").at("error").as_string();
    }
    if (state == "done") {
      Completed entry;
      entry.record = record;
      entry.snapshot = status.at("snapshot").as_u64();
      entry.success = status.at("outcome").at("success").as_bool();
      entry.plan = status.at("outcome").at("plan").as_string();
      completed.push_back(std::move(entry));
    }
  }
  EXPECT_GE(completed.size(), static_cast<std::size_t>(kClients * 3));  // checks at least

  // Oracle: a fresh single-threaded engine per job must reproduce every
  // completed job's verdict and plan exactly — the service guarantees
  // reproducible answers by giving every job a fresh SMT session (a reused
  // incremental session can steer Z3 to a different, equally valid, model),
  // so the oracle must be equally fresh.
  for (const auto& entry : completed) {
    const SnapshotPtr snapshot = server.store().snapshot(entry.snapshot);
    ASSERT_NE(snapshot, nullptr) << "snapshot " << entry.snapshot << " trimmed too early";
    core::Engine oracle{*snapshot->topo};

    lai::AclLibrary library;
    library.emplace("permit_all", net::Acl::permit_all());
    for (const auto& [name, body] : entry.record.acl_bodies) {
      library.insert_or_assign(name, config::parse_acl_auto(body));
    }
    const core::EngineReport report =
        oracle.run_program(entry.record.program, library, snapshot->traffic);
    EXPECT_EQ(report.success(), entry.success) << "job " << entry.record.id;
    EXPECT_EQ(core::format_plan(*snapshot->topo, report.final_update), entry.plan)
        << "job " << entry.record.id << " plan diverged from the oracle";
  }

  server.request_shutdown();
  server.wait();
  std::filesystem::remove(socket_path);
}

/// The burst soak at workers=4: clients burst-submit pure-check jobs (no
/// per-job wait) behind the held gate, a mid-burst apply advances the head
/// between submission and dispatch, queued jobs are cancelled, and a
/// check+fix runs on one worker beside the checks. Every completed job must
/// match a fresh single-engine oracle on its pinned snapshot — four workers
/// sharing plan bundles are not allowed to change any client-visible
/// answer.
TEST(SvcStressTest, CoalescedBatchesMatchOracleAtFourWorkers) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  config::NetworkFile network;
  network.topo = wan.topo;
  network.traffic = wan.traffic;

  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("jinjing_svc_stress_batch_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerOptions options;
  options.socket_path = socket_path;
  options.queue_depth = 128;
  options.workers = 4;
  options.keep_versions = 64;  // every snapshot stays resolvable for the oracle
  Server server{std::move(network), options};
  server.start();

  // Hold the workers until the whole burst is queued: every burst job is
  // provably queued when the first worker calls next(), so four workers race
  // on the cold plan by construction. A 12%-perturbation check+fix queues
  // first and runs on one worker beside the checks once the gate lifts.
  server.scheduler().hold();
  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 6;
  std::mutex records_mutex;
  std::vector<JobRecord> records;
  {
    Client fix_client{socket_path};
    const Workload fix = perturb_workload(wan, 0.12, 997);
    JobRecord record;
    record.program = fix.program;
    record.acl_bodies = fix.acl_bodies;
    record.id = submit_job(fix_client, record.program, record.acl_bodies).at("job").as_u64();
    records.push_back(std::move(record));
  }

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client{socket_path};
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobRecord record;
        if (j % 2 == 0) {
          record.program = check_only_program(wan);
        } else {
          // Pure check of a pending perturbation: roughly half of the seeds
          // verify inconsistent, so the burst mixes clean and violated
          // verdicts.
          const unsigned seed = static_cast<unsigned>(c * 100 + j + 11);
          const Workload workload = perturb_workload(wan, 0.06, seed, "check\n");
          record.program = workload.program;
          record.acl_bodies = workload.acl_bodies;
        }
        const Json submitted = submit_job(client, record.program, record.acl_bodies);
        record.id = submitted.at("job").as_u64();
        if (j == kJobsPerClient - 1) {
          Json::Object cancel;
          cancel.emplace("job", record.id);
          (void)client.call("cancel", Json{std::move(cancel)});
          record.cancel_attempted = true;
        }
        const std::lock_guard<std::mutex> lock{records_mutex};
        records.push_back(std::move(record));
      }
    });
  }

  // Advance the head while the burst is in flight: jobs already queued keep
  // their pinned snapshot and must verify against it; jobs submitted
  // afterwards pin the new head.
  (void)server.store().apply_update({});

  for (auto& thread : clients) thread.join();
  server.scheduler().release();

  Client checker{socket_path};
  struct Completed {
    JobRecord record;
    Version snapshot = 0;
    bool success = false;
    std::string plan;
  };
  std::vector<Completed> completed;
  for (const auto& record : records) {
    Json::Object wait;
    wait.emplace("job", record.id);
    wait.emplace("timeout_ms", std::uint64_t{300000});
    const Json result = checker.call("result", Json{std::move(wait)});
    ASSERT_TRUE(result.at("done").as_bool()) << "job " << record.id << " never terminated";
    const Json& status = result.at("status");
    const std::string state = status.at("state").as_string();
    EXPECT_TRUE(state == "done" || state == "cancelled") << status.dump();
    if (state == "done") {
      Completed entry;
      entry.record = record;
      entry.snapshot = status.at("snapshot").as_u64();
      entry.success = status.at("outcome").at("success").as_bool();
      entry.plan = status.at("outcome").at("plan").as_string();
      completed.push_back(std::move(entry));
    }
  }
  EXPECT_GE(completed.size(), static_cast<std::size_t>(kClients * (kJobsPerClient - 1)));

  for (const auto& entry : completed) {
    const SnapshotPtr snapshot = server.store().snapshot(entry.snapshot);
    ASSERT_NE(snapshot, nullptr) << "snapshot " << entry.snapshot << " trimmed too early";
    core::Engine oracle{*snapshot->topo};
    lai::AclLibrary library;
    library.emplace("permit_all", net::Acl::permit_all());
    for (const auto& [name, body] : entry.record.acl_bodies) {
      library.insert_or_assign(name, config::parse_acl_auto(body));
    }
    const core::EngineReport report =
        oracle.run_program(entry.record.program, library, snapshot->traffic);
    EXPECT_EQ(report.success(), entry.success) << "job " << entry.record.id;
    EXPECT_EQ(core::format_plan(*snapshot->topo, report.final_update), entry.plan)
        << "job " << entry.record.id << " plan diverged from the oracle";
  }

  server.request_shutdown();
  server.wait();
  std::filesystem::remove(socket_path);
}

/// The cross-version serving soak: check-only clients race a dedicated
/// applier that keeps advancing the head with consistency-preserving
/// deploys. Every completed job is re-run on a fresh single-threaded engine
/// against its pinned snapshot — a plan bundle shared across versions must
/// never change an answer.
TEST(SvcStressTest, IncrementalServingMatchesOracleUnderConcurrentApplies) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  config::NetworkFile network;
  network.topo = wan.topo;
  network.traffic = wan.traffic;

  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("jinjing_svc_stress_inc_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerOptions options;
  options.socket_path = socket_path;
  options.queue_depth = 128;
  options.workers = 3;
  options.keep_versions = 64;  // every snapshot stays resolvable for the oracle
  Server server{std::move(network), options};
  server.start();

  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 6;
  std::mutex records_mutex;
  std::vector<JobRecord> records;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client{socket_path};
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobRecord record;
        if (j % 2 == 0) {
          record.program = check_only_program(wan);
        } else {
          // Pending-update checks (modify + check, no fix).
          const unsigned seed = static_cast<unsigned>(c * 100 + j + 7);
          const Workload workload = perturb_workload(wan, 0.06, seed, "check\n");
          record.program = workload.program;
          record.acl_bodies = workload.acl_bodies;
        }
        const Json submitted = submit_job(client, record.program, record.acl_bodies);
        record.id = submitted.at("job").as_u64();
        {
          const std::lock_guard<std::mutex> lock{records_mutex};
          records.push_back(record);
        }
        // Wait for this job before submitting the next, so the client's
        // stream interleaves with the applier's version bumps.
        Json::Object wait;
        wait.emplace("job", record.id);
        wait.emplace("timeout_ms", std::uint64_t{300000});
        (void)client.call("result", Json{std::move(wait)});
      }
    });
  }

  // The applier: verify a semantically no-op rebind of a rotating slot and
  // deploy it, advancing the head mid-load. Only this thread applies, so
  // every apply lands without a version conflict.
  std::thread applier_thread{[&] {
    Client applier{socket_path};
    for (int round = 0; round < 4; ++round) {
      const topo::AclSlot slot =
          wan.agg_slots[static_cast<std::size_t>(round) % wan.agg_slots.size()];
      const SnapshotPtr head = server.store().head();
      const Workload workload = duplicate_rule_workload(wan, *head->topo, slot);
      const Json submitted = submit_job(applier, workload.program, workload.acl_bodies);
      JobRecord record;
      record.id = submitted.at("job").as_u64();
      record.program = workload.program;
      record.acl_bodies = workload.acl_bodies;
      Json::Object wait;
      wait.emplace("job", record.id);
      wait.emplace("timeout_ms", std::uint64_t{300000});
      const Json result = applier.call("result", Json{std::move(wait)});
      ASSERT_EQ(result.at("status").at("state").as_string(), "done") << result.dump();
      ASSERT_TRUE(result.at("status").at("outcome").at("success").as_bool())
          << "duplicate-rule rebind must verify as consistent";
      Json::Object apply;
      apply.emplace("job", record.id);
      (void)applier.call("apply", Json{std::move(apply)});
      const std::lock_guard<std::mutex> lock{records_mutex};
      records.push_back(std::move(record));
    }
  }};

  for (auto& thread : clients) thread.join();
  applier_thread.join();
  EXPECT_EQ(server.store().head_version(), 5u);  // 4 applies landed

  // Oracle pass: identical verdict and plan from a from-scratch engine.
  Client checker{socket_path};
  for (const auto& record : records) {
    Json::Object wait;
    wait.emplace("job", record.id);
    wait.emplace("timeout_ms", std::uint64_t{300000});
    const Json result = checker.call("result", Json{std::move(wait)});
    ASSERT_TRUE(result.at("done").as_bool()) << "job " << record.id << " never terminated";
    const Json& status = result.at("status");
    ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();

    const SnapshotPtr snapshot = server.store().snapshot(status.at("snapshot").as_u64());
    ASSERT_NE(snapshot, nullptr);
    core::Engine oracle{*snapshot->topo};
    lai::AclLibrary library;
    library.emplace("permit_all", net::Acl::permit_all());
    for (const auto& [name, body] : record.acl_bodies) {
      library.insert_or_assign(name, config::parse_acl_auto(body));
    }
    const core::EngineReport report =
        oracle.run_program(record.program, library, snapshot->traffic);
    EXPECT_EQ(report.success(), status.at("outcome").at("success").as_bool())
        << "job " << record.id;
    EXPECT_EQ(core::format_plan(*snapshot->topo, report.final_update),
              status.at("outcome").at("plan").as_string())
        << "job " << record.id << " plan diverged from the oracle";
  }

  // Every job shared the one whole-network bundle across the four applies:
  // built once, then hit by every later job.
  const Json plans = checker.call("info").at("plan_cache");
  EXPECT_EQ(plans.at("plans").as_u64(), 1u);
  EXPECT_EQ(plans.at("misses").as_u64(), 1u);
  EXPECT_EQ(plans.at("hits").as_u64(), records.size() - 1);

  server.request_shutdown();
  server.wait();
  std::filesystem::remove(socket_path);
}

}  // namespace
}  // namespace jinjing::svc
