// The execute stage: work-stealing executor unit tests, plus randomized-WAN
// properties that the plan/compile/execute pipeline preserves the sequential
// semantics — identical verdicts across thread counts, a deterministic
// stop_at_first witness, and fixer obligation-skipping that cannot change
// the repair.
#include "core/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "core/engine.h"
#include "core/fixer.h"
#include "core/plan.h"
#include "gen/scenario.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace jinjing::core {
namespace {

// ---------------------------------------------------------------------------
// Executor unit tests.

class ExecutorThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExecutorThreads, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  Executor executor{GetParam()};
  std::vector<std::atomic<int>> hits(kCount);

  const Executor::WorkerFactory factory = [&](std::size_t) -> Executor::Task {
    return [&](std::size_t i, const CancellationToken&) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return false;
    };
  };
  const auto stats = executor.run(kCount, factory);

  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_EQ(stats.executed, kCount);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.stop_index, kCount);
}

TEST_P(ExecutorThreads, EmptyRunIsANoOp) {
  Executor executor{GetParam()};
  const auto stats = executor.run(0, [](std::size_t) -> Executor::Task {
    ADD_FAILURE() << "factory must not be called for an empty run";
    return [](std::size_t, const CancellationToken&) { return false; };
  });
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
}

// Early exit: the final stop_index is the *minimal* index whose task
// requested a stop, every index at or below it runs, and the accounting
// invariant executed + cancelled == count holds — regardless of scheduling.
TEST_P(ExecutorThreads, EarlyExitStopsAtMinimalIndex) {
  constexpr std::size_t kCount = 400;
  const std::set<std::size_t> stops = {137, 260, 399};
  Executor executor{GetParam()};

  for (int repeat = 0; repeat < 10; ++repeat) {
    std::vector<std::atomic<int>> hits(kCount);
    const Executor::WorkerFactory factory = [&](std::size_t) -> Executor::Task {
      return [&](std::size_t i, const CancellationToken&) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        return stops.count(i) > 0;
      };
    };
    const auto stats = executor.run(kCount, factory);

    EXPECT_EQ(stats.stop_index, 137u) << "repeat " << repeat;
    EXPECT_EQ(stats.executed + stats.cancelled, kCount);
    for (std::size_t i = 0; i <= 137; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " below the bound must run";
    }
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_LE(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ExecutorThreads, ExceptionsPropagateToCaller) {
  Executor executor{GetParam()};
  const Executor::WorkerFactory factory = [&](std::size_t) -> Executor::Task {
    return [&](std::size_t i, const CancellationToken&) {
      if (i == 57) throw std::runtime_error{"obligation 57 failed"};
      return false;
    };
  };
  EXPECT_THROW((void)executor.run(200, factory), std::runtime_error);

  // The pool survives a throwing job and runs the next one normally.
  std::atomic<std::size_t> ran{0};
  const auto stats = executor.run(100, [&](std::size_t) -> Executor::Task {
    return [&](std::size_t, const CancellationToken&) {
      ran.fetch_add(1, std::memory_order_relaxed);
      return false;
    };
  });
  EXPECT_EQ(ran.load(), 100u);
  EXPECT_EQ(stats.executed, 100u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecutorThreads, ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) { return "T" + std::to_string(info.param); });

// A skewed workload (a few long tasks up front) must still complete every
// index: thieves split the loaded ranges rather than idling.
TEST(Executor, SkewedWorkloadCompletesUnderStealing) {
  constexpr std::size_t kCount = 64;
  Executor executor{4};
  std::vector<std::atomic<int>> hits(kCount);
  const Executor::WorkerFactory factory = [&](std::size_t) -> Executor::Task {
    return [&](std::size_t i, const CancellationToken&) {
      if (i < 2) std::this_thread::sleep_for(std::chrono::milliseconds{20});
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return false;
    };
  };
  const auto stats = executor.run(kCount, factory);
  EXPECT_EQ(stats.executed, kCount);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

// The factory is invoked once per participating worker, with distinct ids.
TEST(Executor, WorkerFactoryReceivesDistinctIds) {
  Executor executor{4};
  std::mutex mutex;
  std::set<std::size_t> ids;
  const auto stats = executor.run(256, [&](std::size_t worker_id) -> Executor::Task {
    {
      const std::lock_guard<std::mutex> lock{mutex};
      EXPECT_TRUE(ids.insert(worker_id).second) << "duplicate worker id " << worker_id;
    }
    return [](std::size_t, const CancellationToken&) {
      std::this_thread::sleep_for(std::chrono::microseconds{200});
      return false;
    };
  });
  EXPECT_EQ(stats.executed, 256u);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
  for (const auto id : ids) EXPECT_LT(id, 4u);
}

// Cancellation tokens observe an early exit requested at a lower index.
TEST(Executor, TokenObservesEarlyExit) {
  Executor executor{1};  // sequential: index order is ascending, deterministic
  std::vector<bool> cancelled_after_stop;
  const auto stats = executor.run(10, [&](std::size_t) -> Executor::Task {
    return [&](std::size_t i, const CancellationToken& token) {
      if (i > 3) cancelled_after_stop.push_back(token.cancelled());
      return i == 3;
    };
  });
  EXPECT_EQ(stats.stop_index, 3u);
  // Sequentially, indices 4..9 are skipped before their body runs.
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_EQ(stats.cancelled, 6u);
  EXPECT_TRUE(cancelled_after_stop.empty());
}

// ---------------------------------------------------------------------------
// Randomized-WAN pipeline properties.

gen::WanParams tiny_wan(unsigned seed) {
  gen::WanParams p;
  p.cores = 2;
  p.aggs = 2;
  p.cells = 2;
  p.gateways_per_cell = 2;
  p.prefixes_per_gateway = 2;
  p.rules_per_acl = 10;
  p.seed = seed;
  return p;
}

/// Exact per-path consistency verdict via the header-space engine.
bool oracle_consistent(const gen::Wan& wan, const topo::AclUpdate& update) {
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    if (!(topo::path_permitted_set(before, path) & carried)
             .equals(topo::path_permitted_set(after, path) & carried)) {
      return false;
    }
  }
  return true;
}

CheckResult run_check(const gen::Wan& wan, const topo::AclUpdate& update, unsigned threads,
                      bool stop_at_first) {
  smt::SmtContext smt;
  CheckOptions options;
  options.threads = threads;
  options.stop_at_first = stop_at_first;
  Checker checker{smt, wan.topo, wan.scope, options};
  return checker.check(update, wan.traffic);
}

// Plan-executed parallel checking agrees with the sequential path on the
// verdict, the violated-obligation count and the exactness of every witness.
class PlanExecutionParity : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlanExecutionParity, ParallelMatchesSequential) {
  const auto wan = gen::make_wan(tiny_wan(800 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.05, GetParam());

  const auto sequential = run_check(wan, update, 1, /*stop_at_first=*/false);
  const auto parallel = run_check(wan, update, 4, /*stop_at_first=*/false);

  EXPECT_EQ(sequential.consistent, oracle_consistent(wan, update));
  EXPECT_EQ(parallel.consistent, sequential.consistent);
  EXPECT_EQ(parallel.violations.size(), sequential.violations.size());
  EXPECT_EQ(parallel.fec_count, sequential.fec_count);
  EXPECT_EQ(parallel.obligation_count, sequential.obligation_count);
  // Without early exit, every obligation runs on both paths.
  EXPECT_EQ(sequential.obligations_executed, sequential.obligation_count);
  EXPECT_EQ(parallel.obligations_executed, parallel.obligation_count);

  // Every parallel witness is a genuine violation.
  smt::SmtContext smt;
  Checker checker{smt, wan.topo, wan.scope};
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  for (const auto& v : parallel.violations) {
    const auto& path = checker.paths()[v.path_index];
    EXPECT_EQ(topo::path_permits(before, path, v.witness), v.decision_before);
    EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after);
    EXPECT_NE(v.decision_before, v.decision_after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanExecutionParity, ::testing::Range(1u, 6u));

// stop_at_first under parallel execution returns a *deterministic* first
// violation: repeated runs across thread counts yield the same witness on
// the same path (the executor's CAS-min bound plus the checker's
// fresh-session re-derivation).
class StopAtFirstDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(StopAtFirstDeterminism, WitnessIsStableAcrossRunsAndThreadCounts) {
  const auto wan = gen::make_wan(tiny_wan(900 + GetParam()));
  // Heavier perturbation: several violated obligations make the race real.
  const auto update = gen::perturb_rules(wan, 0.10, GetParam());
  if (oracle_consistent(wan, update)) GTEST_SKIP() << "perturbation happens to be consistent";

  std::optional<Violation> first;
  for (const unsigned threads : {2u, 4u, 2u, 4u}) {
    const auto result = run_check(wan, update, threads, /*stop_at_first=*/true);
    ASSERT_FALSE(result.consistent);
    ASSERT_EQ(result.violations.size(), 1u);
    const auto& v = result.violations.front();
    if (!first) {
      first = v;
      continue;
    }
    EXPECT_EQ(v.witness, first->witness) << "threads " << threads;
    EXPECT_EQ(v.path_index, first->path_index) << "threads " << threads;
    EXPECT_EQ(v.decision_before, first->decision_before);
    EXPECT_EQ(v.decision_after, first->decision_after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StopAtFirstDeterminism, ::testing::Range(1u, 6u));

// The fixer's touched-slot obligation skipping is invisible in the result:
// the repaired update is identical (not merely equivalent) to the one the
// full seed-style sweep produces, and both satisfy the exact oracle.
class FixerReplanParity : public ::testing::TestWithParam<unsigned> {};

TEST_P(FixerReplanParity, SkippingUntouchedObligationsPreservesTheRepair) {
  const auto wan = gen::make_wan(tiny_wan(1000 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.06, GetParam());

  FixOptions with_skip;
  with_skip.replan_touched_only = true;
  Planner skip_planner{wan.topo, wan.scope};
  Fixer skipping{skip_planner, with_skip};
  const auto a = skipping.fix(update, wan.traffic, wan.topo.bound_slots());

  FixOptions no_skip;
  no_skip.replan_touched_only = false;
  Planner sweep_planner{wan.topo, wan.scope};
  Fixer sweeping{sweep_planner, no_skip};
  const auto b = sweeping.fix(update, wan.traffic, wan.topo.bound_slots());

  ASSERT_EQ(a.success, b.success);
  ASSERT_TRUE(a.success);
  EXPECT_TRUE(a.fixed_update == b.fixed_update);
  EXPECT_TRUE(oracle_consistent(wan, a.fixed_update));
  EXPECT_EQ(a.obligations, b.obligations);
  EXPECT_GE(a.obligations_skipped, b.obligations_skipped);
  EXPECT_EQ(b.obligations_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixerReplanParity, ::testing::Range(1u, 5u));

// ---------------------------------------------------------------------------
// Engine session reuse.

// check; fix; check through ONE engine reuses the cached plan and check
// session across commands — and still repairs correctly.
TEST(EngineSession, CheckFixCheckReusesPlanAndStaysCorrect) {
  const auto wan = gen::make_wan(tiny_wan(42));
  const auto update = gen::perturb_rules(wan, 0.08, 7);
  if (oracle_consistent(wan, update)) GTEST_SKIP() << "perturbation happens to be consistent";

  Engine engine{wan.topo};
  lai::UpdateTask task;
  task.scope = wan.scope;
  task.allowed = wan.topo.bound_slots();
  task.modify = update;
  task.commands = {lai::Command::Check, lai::Command::Fix, lai::Command::Check};
  const auto report = engine.run(task, wan.traffic);

  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_FALSE(report.outcomes[0].check->consistent);
  EXPECT_TRUE(report.outcomes[1].fix->success);
  EXPECT_TRUE(report.outcomes[2].check->consistent);
  EXPECT_TRUE(report.success());
  EXPECT_TRUE(oracle_consistent(wan, report.final_update));

  // The trailing check planned nothing: the obligation plan was built once
  // by the first command and served from the checker's cache afterwards.
  EXPECT_GT(report.outcomes[0].check->plan_seconds, 0.0);
  EXPECT_EQ(report.outcomes[2].check->plan_seconds, 0.0);

  // A second task on the same engine (same scope) also replans nothing.
  lai::UpdateTask again;
  again.scope = wan.scope;
  again.modify = gen::perturb_rules(wan, 0.04, 11);
  again.commands = {lai::Command::Check};
  const auto second = engine.run(again, wan.traffic);
  ASSERT_EQ(second.outcomes.size(), 1u);
  EXPECT_EQ(second.outcomes[0].check->plan_seconds, 0.0);
  EXPECT_EQ(second.outcomes[0].check->consistent, oracle_consistent(wan, again.modify));
}

// The plan IR itself: obligations cover every (entry, class) combination in
// classifier order, and `touches` is exact about slot membership.
TEST(VerifyPlanIr, ObligationsAreOrderedAndSlotAware) {
  const auto wan = gen::make_wan(tiny_wan(77));
  smt::SmtContext smt;
  Checker checker{smt, wan.topo, wan.scope};
  const auto& plan = checker.plan(wan.traffic);

  ASSERT_GT(plan.size(), 0u);
  EXPECT_EQ(plan.stats().fec_count, plan.size());
  EXPECT_EQ(plan.stats().path_count, checker.paths().size());

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& o = plan.obligations()[i];
    EXPECT_EQ(o.index, i);
    ASSERT_NE(o.fec, nullptr);
    // Feasible paths are ascending and genuinely feasible.
    for (std::size_t k = 1; k < o.paths.size(); ++k) EXPECT_LT(o.paths[k - 1], o.paths[k]);
    // Slots are exactly the union over the obligation's paths.
    for (const auto& slot : o.slots) {
      topo::AclUpdate touching;
      touching.emplace(slot, net::Acl::permit_all());
      EXPECT_TRUE(touches(o, touching));
    }
    topo::AclUpdate empty_update;
    EXPECT_FALSE(touches(o, empty_update));
  }

  // An update rewriting every bound slot touches exactly the obligations
  // with a bound slot on some feasible path (hops may carry unbound slots,
  // which no update can rewrite).
  topo::AclUpdate all;
  for (const auto slot : wan.topo.bound_slots()) all.emplace(slot, net::Acl::permit_all());
  EXPECT_EQ(plan.live_count(all, /*has_controls=*/false),
            static_cast<std::size_t>(
                std::count_if(plan.obligations().begin(), plan.obligations().end(),
                              [&](const Obligation& o) {
                                return std::any_of(o.slots.begin(), o.slots.end(), [&](auto slot) {
                                  return all.find(slot) != all.end();
                                });
                              })));
  // Control intents force every obligation live.
  EXPECT_EQ(plan.live_count(all, /*has_controls=*/true), plan.size());
}

}  // namespace
}  // namespace jinjing::core
