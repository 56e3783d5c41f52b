// Randomized cross-config matrix: the checker and fixer must produce the
// same verdicts — validated against the exact header-space oracle — in
// every planning and lowering configuration, and the observability
// counters must be consistent with the options that produced them.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/fixer.h"
#include "gen/scenario.h"
#include "obs/stats.h"
#include "topo/paths.h"

namespace jinjing {
namespace {

/// The matrix cells: per-entry or global FECs, and the Theorem 4.1
/// differential lowering or the basic one.
struct Cell {
  bool per_entry_fec;
  bool differential;
};
constexpr std::array<Cell, 4> kMatrix = {
    Cell{true, true}, Cell{true, false}, Cell{false, true}, Cell{false, false}};

std::string to_string(const Cell& cell) {
  return std::string{cell.per_entry_fec ? "per-entry" : "global"} +
         (cell.differential ? "/differential" : "/basic");
}

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

core::CheckOptions check_options(const Cell& cell) {
  core::CheckOptions options;
  options.stop_at_first = false;
  options.per_entry_fec = cell.per_entry_fec;
  options.use_differential = cell.differential;
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

  // Violated obligations per FEC mode (index: per_entry_fec).
  std::array<std::optional<std::size_t>, 2> violation_count;
  for (const Cell& cell : kMatrix) {
    SCOPED_TRACE(to_string(cell));
    obs::StatsRegistry registry;
    core::CheckResult result;
    {
      const obs::ScopedRegistry installed{registry};
      smt::SmtContext smt;
      core::Checker checker{smt, wan.topo, wan.scope, check_options(cell)};
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
    // With stop_at_first off, both lowerings enumerate the same violating
    // FECs of one plan.
    auto& count = violation_count[cell.per_entry_fec];
    if (!count) count = result.violations.size();
    EXPECT_EQ(result.violations.size(), *count);

    // Counter/option consistency, on a registry scoped to exactly this run.
    const auto total = [&](obs::Counter c) { return registry.total(c); };
    EXPECT_GT(total(obs::Counter::SmtQueries), 0u);
    EXPECT_GT(total(obs::Counter::SmtQueriesCached), 0u);
    EXPECT_LE(total(obs::Counter::SmtQueriesCached), total(obs::Counter::SmtQueries));
    EXPECT_EQ(total(obs::Counter::PlanBuilds), 1u);
    EXPECT_EQ(total(obs::Counter::PlanCacheHits), 0u);
    EXPECT_EQ(total(obs::Counter::ObligationsPlanned), result.obligation_count);
    EXPECT_GT(total(obs::Counter::ObligationsPlanned), 0u);
    EXPECT_EQ(total(obs::Counter::ObligationsExecuted),
              total(obs::Counter::ObligationsPlanned));
    EXPECT_EQ(total(obs::Counter::ObligationsCancelled), 0u);
    EXPECT_EQ(total(obs::Counter::SmtSessionsBuilt), 1u);
    EXPECT_EQ(total(obs::Counter::SmtTimeouts), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullMatrixSweep, ::testing::Range(1u, 6u));

// The fixer reaches the same outcome in every cell, and every successful
// repair is accepted by the exact oracle.
class FixerMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(FixerMatrix, OutcomesAgreeAcrossMatrix) {
  const auto wan = gen::make_wan(matrix_wan(3000 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.06, GetParam());

  std::optional<bool> reference_success;
  for (const Cell& cell : kMatrix) {
    SCOPED_TRACE(to_string(cell));
    core::Planner planner{wan.topo, wan.scope, check_options(cell)};
    core::Fixer fixer{planner};
    const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots());

    if (!reference_success) reference_success = fix.success;
    EXPECT_EQ(fix.success, *reference_success);
    if (fix.success) {
      EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixerMatrix, ::testing::Range(1u, 3u));

}  // namespace
}  // namespace jinjing
