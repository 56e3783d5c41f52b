// Randomized cross-config matrix: the checker and fixer must produce the
// same verdicts — validated against the exact header-space oracle — at
// every thread count, and the observability counters must be consistent
// with the options that produced them.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/fixer.h"
#include "gen/scenario.h"
#include "obs/stats.h"
#include "topo/paths.h"

namespace jinjing {
namespace {

/// The matrix cells: worker threads for obligation execution and
/// equivalence-class refinement.
constexpr std::array<unsigned, 3> kMatrix = {1, 2, 8};

std::string to_string(unsigned threads) { return "t" + std::to_string(threads); }

gen::WanParams matrix_wan(unsigned seed) {
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

core::CheckOptions check_options(unsigned threads) {
  core::CheckOptions options;
  options.stop_at_first = false;
  options.threads = threads;
  return options;
}

// Every cell of the matrix agrees with the oracle, finds the same number of
// violations (with genuine witnesses), and records counters consistent with
// the options that produced them.
class FullMatrixSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FullMatrixSweep, VerdictsAgreeAndCountersMatchOptions) {
  const auto wan = gen::make_wan(matrix_wan(1000 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.05, GetParam());
  const bool expected = oracle_consistent(wan, update);
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};

  std::optional<std::size_t> violation_count;
  for (const unsigned threads : kMatrix) {
    SCOPED_TRACE(to_string(threads));
    obs::StatsRegistry registry;
    core::CheckResult result;
    {
      const obs::ScopedRegistry installed{registry};
      smt::SmtContext smt;
      core::Checker checker{smt, wan.topo, wan.scope, check_options(threads)};
      result = checker.check(update, wan.traffic);

      // Witnesses must be genuine in every configuration.
      for (const auto& v : result.violations) {
        const auto& path = checker.paths()[v.path_index];
        EXPECT_EQ(topo::path_permits(before, path, v.witness), v.decision_before);
        EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after);
        EXPECT_NE(v.decision_before, v.decision_after);
      }
    }

    EXPECT_EQ(result.consistent, expected);
    // With stop_at_first off, every cell enumerates the same violating FECs.
    if (!violation_count) violation_count = result.violations.size();
    EXPECT_EQ(result.violations.size(), *violation_count);

    // Counter/option consistency, on a registry scoped to exactly this run.
    const auto total = [&](obs::Counter c) { return registry.total(c); };
    EXPECT_GT(total(obs::Counter::SmtQueries), 0u);
    EXPECT_GT(total(obs::Counter::SmtQueriesCached), 0u);
    EXPECT_LE(total(obs::Counter::SmtQueriesCached), total(obs::Counter::SmtQueries));
    if (threads == 1) {
      EXPECT_EQ(total(obs::Counter::ExecutorSteals), 0u);
    }
    EXPECT_EQ(total(obs::Counter::PlanBuilds), 1u);
    EXPECT_EQ(total(obs::Counter::PlanCacheHits), 0u);
    EXPECT_GE(total(obs::Counter::FecCacheMisses), 1u);
    EXPECT_GT(total(obs::Counter::ObligationsPlanned), 0u);
    EXPECT_EQ(total(obs::Counter::ObligationsExecuted),
              total(obs::Counter::ObligationsPlanned));
    EXPECT_EQ(total(obs::Counter::ObligationsCancelled), 0u);
    EXPECT_GE(total(obs::Counter::ExecutorRuns), 1u);
    EXPECT_EQ(total(obs::Counter::SmtTimeouts), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullMatrixSweep, ::testing::Range(1u, 6u));

// Witness determinism across thread counts. Two distinct guarantees:
//  - stop_at_first=false: the violating FECs (and hence verdict and
//    violation count) are identical across thread counts; the witness
//    *packets* are solver-model-dependent and only need to be genuine.
//  - stop_at_first=true, parallel: the executor reports the minimal
//    violating obligation and re-derives its witness on a fresh Z3 context,
//    so the reported violation is byte-identical for every thread count > 1.
class WitnessDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(WitnessDeterminism, FullSweepCountsAgreeAcrossThreadCounts) {
  const auto wan = gen::make_wan(matrix_wan(2000 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.06, GetParam());
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};

  std::optional<std::size_t> reference_count;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(to_string(threads));
    smt::SmtContext smt;
    core::CheckOptions options;
    options.stop_at_first = false;
    options.threads = threads;
    core::Checker checker{smt, wan.topo, wan.scope, options};
    const auto result = checker.check(update, wan.traffic);

    if (!reference_count) reference_count = result.violations.size();
    EXPECT_EQ(result.violations.size(), *reference_count);
    for (const auto& v : result.violations) {
      const auto& path = checker.paths()[v.path_index];
      EXPECT_EQ(topo::path_permits(before, path, v.witness), v.decision_before);
      EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after);
    }
  }
}

TEST_P(WitnessDeterminism, FirstWitnessIdenticalAcrossParallelRuns) {
  const auto wan = gen::make_wan(matrix_wan(2000 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.06, GetParam());
  // These seeds perturb enough rules to break consistency; the oracle
  // confirms it so the determinism assertions below are never vacuous.
  ASSERT_FALSE(oracle_consistent(wan, update));

  std::optional<core::Violation> reference;
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(to_string(threads));
    smt::SmtContext smt;
    core::CheckOptions options;
    options.threads = threads;
    core::Checker checker{smt, wan.topo, wan.scope, options};
    auto result = checker.check(update, wan.traffic);
    EXPECT_FALSE(result.consistent);
    ASSERT_EQ(result.violations.size(), 1u);

    if (!reference) {
      reference = std::move(result.violations[0]);
      continue;
    }
    EXPECT_EQ(result.violations[0].witness, reference->witness);
    EXPECT_EQ(result.violations[0].path_index, reference->path_index);
    EXPECT_EQ(result.violations[0].decision_before, reference->decision_before);
    EXPECT_EQ(result.violations[0].decision_after, reference->decision_after);
  }

  // The sequential first-found violation lives in the same minimal
  // obligation: its verdict agrees and its witness is genuine.
  smt::SmtContext smt;
  core::Checker sequential{smt, wan.topo, wan.scope};
  const auto result = sequential.check(update, wan.traffic);
  EXPECT_FALSE(result.consistent);
  ASSERT_EQ(result.violations.size(), 1u);
  const auto& v = result.violations[0];
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  const auto& path = sequential.paths()[v.path_index];
  EXPECT_EQ(topo::path_permits(before, path, v.witness), v.decision_before);
  EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessDeterminism, ::testing::Range(1u, 4u));

// The fixer reaches the same outcome in every cell, and every successful
// repair is accepted by the exact oracle.
class FixerMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(FixerMatrix, OutcomesAgreeAcrossMatrix) {
  const auto wan = gen::make_wan(matrix_wan(3000 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.06, GetParam());

  std::optional<bool> reference_success;
  for (const unsigned threads : kMatrix) {
    SCOPED_TRACE(to_string(threads));
    core::Planner planner{wan.topo, wan.scope, check_options(threads)};
    core::Fixer fixer{planner};
    const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots());

    if (!reference_success) reference_success = fix.success;
    EXPECT_EQ(fix.success, *reference_success);
    if (fix.success) EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixerMatrix, ::testing::Range(1u, 3u));

}  // namespace
}  // namespace jinjing
