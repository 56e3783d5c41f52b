#include "core/incremental.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/checker.h"
#include "gen/fixtures.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "smt/context.h"

namespace jinjing::core {
namespace {

using gen::Figure1;

/// A semantically no-op rebind of a slot: the bound ACL with its first rule
/// duplicated. First-match semantics make it equivalent, but the rule lists
/// differ, so it is a real (non-empty) update with an empty differential.
net::Acl duplicate_first_rule(const topo::Topology& topo, topo::AclSlot slot) {
  const net::Acl& acl = topo.acl(slot);
  std::vector<net::AclRule> rules{acl.rules().begin(), acl.rules().end()};
  EXPECT_FALSE(rules.empty());
  rules.insert(rules.begin(), rules.front());
  return net::Acl{std::move(rules), acl.default_action()};
}

std::shared_ptr<const PlanBundle> figure1_bundle(const Figure1& f) {
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, {}};
  return checker.share_plan(f.traffic);
}

TEST(IncrementalPlanner, AcquireMissesThenHitsAfterInstall) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner;
  const topo::AclUpdate update = f.running_example_update();

  EXPECT_FALSE(planner.acquire(1, f.scope, f.traffic, update).valid());
  EXPECT_EQ(planner.stats().misses, 1u);

  const auto bundle = figure1_bundle(f);
  planner.install(1, f.scope, bundle);
  const IncrementalLease lease = planner.acquire(1, f.scope, f.traffic, update);
  ASSERT_TRUE(lease.valid());
  EXPECT_EQ(lease.bundle.get(), bundle.get());  // shared, not copied
  EXPECT_EQ(lease.version, 1u);
  EXPECT_TRUE(lease.clean.empty());  // no verdicts committed yet
  EXPECT_EQ(planner.stats().hits, 1u);
  EXPECT_EQ(planner.stats().cached_plans, 1u);
  EXPECT_EQ(planner.stats().cached_obligations, bundle->plan.size());

  // Re-installing for the same (version, scope, entering) is a no-op.
  planner.install(1, f.scope, figure1_bundle(f));
  EXPECT_EQ(planner.acquire(1, f.scope, f.traffic, update).bundle.get(), bundle.get());
}

TEST(IncrementalPlanner, CommitVerdictsAreReturnedForTheExactUpdateOnly) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner;
  const auto bundle = figure1_bundle(f);
  planner.install(1, f.scope, bundle);

  const topo::AclUpdate update = f.running_example_update();
  planner.commit(1, f.scope, f.traffic, update,
                 std::vector<bool>(bundle->plan.size(), true));

  const IncrementalLease same = planner.acquire(1, f.scope, f.traffic, update);
  ASSERT_TRUE(same.valid());
  ASSERT_EQ(same.clean.size(), bundle->plan.size());
  for (const bool bit : same.clean) EXPECT_TRUE(bit);

  // A different pending update must not inherit those verdicts.
  topo::AclUpdate other;
  other.emplace(topo::AclSlot{f.D2, topo::Dir::In}, net::Acl::permit_all());
  const IncrementalLease fresh = planner.acquire(1, f.scope, f.traffic, other);
  ASSERT_TRUE(fresh.valid());
  EXPECT_TRUE(fresh.clean.empty());
}

TEST(IncrementalPlanner, RecordApplyRebasesAndInvalidatesSelectively) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner;
  const auto bundle = figure1_bundle(f);
  ASSERT_EQ(bundle->plan.size(), 5u);  // FECs {1},{2,3},{4},{5,6},{7}
  planner.install(1, f.scope, bundle);

  const topo::AclUpdate pending = f.running_example_update();
  planner.commit(1, f.scope, f.traffic, pending,
                 std::vector<bool>(bundle->plan.size(), true));

  // Apply delta: C1-in additionally denies dst 5/8. Differential = that one
  // rule, so only the obligation whose class meets dst 5/8 AND whose paths
  // traverse C1 — the {5,6} class — loses its verdict.
  topo::AclUpdate delta;
  delta.emplace(topo::AclSlot{f.C1, topo::Dir::In},
                net::Acl::parse({"deny dst 7.0.0.0/8", "deny dst 5.0.0.0/8", "permit all"}));
  planner.record_apply(1, 2, f.topo, delta);

  EXPECT_EQ(planner.stats().rebases, 1u);
  EXPECT_EQ(planner.stats().invalidations, 1u);
  EXPECT_EQ(planner.stats().fallbacks, 0u);

  const IncrementalLease rebased = planner.acquire(2, f.scope, f.traffic, pending);
  ASSERT_TRUE(rebased.valid());
  EXPECT_EQ(rebased.bundle.get(), bundle.get());
  ASSERT_EQ(rebased.clean.size(), bundle->plan.size());
  for (const Obligation& o : bundle->plan.obligations()) {
    const bool meets_diff = o.fec->intersects(Figure1::traffic_class(5));
    EXPECT_EQ(rebased.clean[o.index], !meets_diff) << "obligation " << o.index;
  }

  // The base-version entry is retained for jobs still pinned to it.
  const IncrementalLease base = planner.acquire(1, f.scope, f.traffic, pending);
  ASSERT_TRUE(base.valid());
  for (const bool bit : base.clean) EXPECT_TRUE(bit);
}

TEST(IncrementalPlanner, EmptyDifferentialInvalidatesNothing) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner;
  const auto bundle = figure1_bundle(f);
  planner.install(1, f.scope, bundle);
  const topo::AclUpdate pending = f.running_example_update();
  planner.commit(1, f.scope, f.traffic, pending,
                 std::vector<bool>(bundle->plan.size(), true));

  // Rebind A1-in to its identical ACL: Definition 4.1 yields no
  // differential rules, so every verdict survives even though every
  // obligation's paths traverse A1.
  topo::AclUpdate delta;
  const topo::AclSlot a1{f.A1, topo::Dir::In};
  delta.emplace(a1, f.topo.acl(a1));
  planner.record_apply(1, 2, f.topo, delta);

  EXPECT_EQ(planner.stats().invalidations, 0u);
  const IncrementalLease lease = planner.acquire(2, f.scope, f.traffic, pending);
  ASSERT_TRUE(lease.valid());
  ASSERT_EQ(lease.clean.size(), bundle->plan.size());
  for (const bool bit : lease.clean) EXPECT_TRUE(bit);
}

TEST(IncrementalPlanner, ChainBudgetDropsEntriesAtTheLimit) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner{{.max_delta_chain = 2}};
  planner.install(1, f.scope, figure1_bundle(f));

  topo::AclUpdate delta;
  const topo::AclSlot a1{f.A1, topo::Dir::In};
  delta.emplace(a1, duplicate_first_rule(f.topo, a1));

  planner.record_apply(1, 2, f.topo, delta);  // chain 1
  planner.record_apply(2, 3, f.topo, delta);  // chain 2 — at the budget
  EXPECT_TRUE(planner.acquire(3, f.scope, f.traffic, {}).valid());
  planner.record_apply(3, 4, f.topo, delta);  // over budget: dropped
  EXPECT_FALSE(planner.acquire(4, f.scope, f.traffic, {}).valid());
  EXPECT_GE(planner.stats().fallbacks, 1u);
}

TEST(IncrementalPlanner, DisabledPlannerNeverCaches) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner{{.max_delta_chain = 0}};
  planner.install(1, f.scope, figure1_bundle(f));
  EXPECT_FALSE(planner.acquire(1, f.scope, f.traffic, {}).valid());
  EXPECT_EQ(planner.stats().cached_plans, 0u);
}

TEST(IncrementalCheck, SkipsUntouchedAndReusesCommittedVerdicts) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner;
  planner.install(1, f.scope, figure1_bundle(f));

  // A consistent update touching every obligation (all paths enter at A1).
  topo::AclUpdate update;
  const topo::AclSlot a1{f.A1, topo::Dir::In};
  update.emplace(a1, duplicate_first_rule(f.topo, a1));

  IncrementalLease lease = planner.acquire(1, f.scope, f.traffic, update);
  ASSERT_TRUE(lease.valid());
  CheckOptions options;
  options.adopted_plan = lease.bundle;
  {
    smt::SmtContext smt;
    Checker checker{smt, f.topo, f.scope, options};
    const IncrementalOutcome out = run_incremental_check(checker, lease, update);
    EXPECT_TRUE(out.result.consistent);
    EXPECT_EQ(out.result.obligations_executed, 5u);
    EXPECT_EQ(out.reused, 0u);
    EXPECT_EQ(out.skipped, 0u);
    planner.commit(1, f.scope, f.traffic, update, out.clean);
  }
  // Second check of the same pending update: everything is proven already.
  lease = planner.acquire(1, f.scope, f.traffic, update);
  ASSERT_TRUE(lease.valid());
  {
    smt::SmtContext smt;
    Checker checker{smt, f.topo, f.scope, options};
    const IncrementalOutcome out = run_incremental_check(checker, lease, update);
    EXPECT_TRUE(out.result.consistent);
    EXPECT_EQ(out.result.obligations_executed, 0u);
    EXPECT_EQ(out.reused, 5u);
  }

  // An update touching only D2-in leaves the obligations whose paths avoid
  // D2 ({1}, {5,6}, {7}) trivially consistent.
  topo::AclUpdate d2_update;
  const topo::AclSlot d2{f.D2, topo::Dir::In};
  d2_update.emplace(d2, duplicate_first_rule(f.topo, d2));
  const IncrementalLease d2_lease = planner.acquire(1, f.scope, f.traffic, d2_update);
  ASSERT_TRUE(d2_lease.valid());
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options};
  const IncrementalOutcome out = run_incremental_check(checker, d2_lease, d2_update);
  EXPECT_TRUE(out.result.consistent);
  EXPECT_EQ(out.skipped, 3u);
  EXPECT_EQ(out.result.obligations_executed, 2u);
}

TEST(IncrementalCheck, FindsTheSameViolationsAsAFullCheck) {
  const auto f = gen::make_figure1();
  IncrementalPlanner planner;
  planner.install(1, f.scope, figure1_bundle(f));
  const topo::AclUpdate update = f.running_example_update();

  const IncrementalLease lease = planner.acquire(1, f.scope, f.traffic, update);
  ASSERT_TRUE(lease.valid());
  CheckOptions options;
  options.adopted_plan = lease.bundle;
  smt::SmtContext smt;
  Checker incremental{smt, f.topo, f.scope, options};
  const IncrementalOutcome out = run_incremental_check(incremental, lease, update);

  smt::SmtContext fresh_smt;
  Checker fresh{fresh_smt, f.topo, f.scope, {}};
  const CheckResult full = fresh.check(update, f.traffic);

  EXPECT_EQ(out.result.consistent, full.consistent);
  EXPECT_FALSE(out.result.consistent);
  ASSERT_FALSE(out.result.violations.empty());
  EXPECT_TRUE(Figure1::traffic_class(1).contains(out.result.violations.front().witness) ||
              Figure1::traffic_class(2).contains(out.result.violations.front().witness));
}

/// End-to-end oracle: interleave pending checks and applied deltas across a
/// chain of versions on the synthetic WAN, answering every check both
/// incrementally (shared bundle, delta-scoped execution, committed
/// verdicts) and with a from-scratch checker. Verdicts must always agree.
TEST(IncrementalCheck, AgreesWithFreshCheckerAcrossVersions) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  IncrementalPlanner planner;
  std::vector<std::shared_ptr<const topo::Topology>> versions;
  versions.push_back(std::make_shared<const topo::Topology>(wan.topo));
  std::uint64_t version = 1;
  const CheckOptions base_options;

  for (unsigned round = 1; round <= 4; ++round) {
    const topo::AclUpdate pending = gen::perturb_rules(wan, 0.05, 40 + round);
    const topo::Topology& current = *versions.back();

    bool incremental_consistent = false;
    smt::SmtContext smt;
    const IncrementalLease lease = planner.acquire(version, wan.scope, wan.traffic, pending);
    if (lease.valid()) {
      CheckOptions adopted = base_options;
      adopted.adopted_plan = lease.bundle;
      Checker checker{smt, current, wan.scope, adopted};
      const IncrementalOutcome out = run_incremental_check(checker, lease, pending);
      incremental_consistent = out.result.consistent;
      planner.commit(version, wan.scope, wan.traffic, pending, out.clean);
    } else {
      Checker checker{smt, current, wan.scope, base_options};
      const CheckResult result = checker.check(pending, wan.traffic);
      incremental_consistent = result.consistent;
      planner.install(version, wan.scope, checker.share_plan(wan.traffic));
      if (result.consistent) {
        planner.commit(version, wan.scope, wan.traffic, pending,
                       std::vector<bool>(result.obligation_count, true));
      }
    }

    smt::SmtContext oracle_smt;
    Checker oracle{oracle_smt, current, wan.scope, base_options};
    EXPECT_EQ(incremental_consistent, oracle.check(pending, wan.traffic).consistent)
        << "round " << round << " at version " << version;

    // Advance the version chain with an applied perturbation.
    const topo::AclUpdate delta = gen::perturb_rules(wan, 0.03, 900 + round);
    topo::Topology next = current;
    for (const auto& [slot, acl] : delta) next.bind_acl(slot, acl);
    planner.record_apply(version, version + 1, current, delta);
    versions.push_back(std::make_shared<const topo::Topology>(std::move(next)));
    ++version;
  }

  const IncrementalStats stats = planner.stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.rebases, 3u);
}

}  // namespace
}  // namespace jinjing::core
