// Set-algebra check scans: every outcome must be identical to a fresh
// single-job Checker::check of the same update — verdict, minimal violated
// obligation, canonical witness — whatever changed-region clip every path
// walk is restricted to; cancellation or expiry of one item must never
// perturb the others.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/diff.h"
#include "gen/fixtures.h"
#include "gen/wan.h"
#include "topo/paths.h"

namespace jinjing::core {
namespace {

struct Fixture {
  gen::Figure1 f = gen::make_figure1();
  smt::SmtContext smt;
  CheckOptions options;
  Checker checker{smt, f.topo, f.scope, options};
  BatchAlgebra algebra = build_batch_algebra(f.topo, checker.share_plan(f.traffic));
};

topo::AclUpdate subprefix_perturbation(const gen::Figure1& f) {
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.D2, topo::Dir::In},
                 net::Acl::parse({"deny dst 1.0.0.0/8", "deny dst 2.0.0.0/9", "permit all"}));
  return update;
}

topo::AclUpdate equivalent_rewrite(const gen::Figure1& f) {
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.D2, topo::Dir::In},
                 net::Acl::parse({"deny dst 1.0.0.0/9", "deny dst 1.128.0.0/9",
                                  "deny dst 2.0.0.0/8", "permit all"}));
  return update;
}

std::vector<BatchItem> items_for(const std::vector<topo::AclUpdate>& updates) {
  std::vector<BatchItem> items;
  for (const auto& update : updates) items.push_back(BatchItem{&update, {}, {}});
  return items;
}

/// The solo oracle: a fresh checker over the same planning problem.
CheckResult solo_check(Fixture& fx, const topo::AclUpdate& update,
                       bool stop_at_first = true) {
  CheckOptions options;
  options.stop_at_first = stop_at_first;
  smt::SmtContext smt;
  Checker checker{smt, fx.f.topo, fx.f.scope, options};
  return checker.check(update, fx.f.traffic);
}

void expect_same_verdict(const CheckResult& batch, const CheckResult& solo,
                         const std::string& tag) {
  EXPECT_EQ(batch.consistent, solo.consistent) << tag;
  ASSERT_EQ(batch.violations.size(), solo.violations.size()) << tag;
  for (std::size_t i = 0; i < batch.violations.size(); ++i) {
    const Violation& b = batch.violations[i];
    const Violation& s = solo.violations[i];
    // The SMT path may pick any witness packet of the changed region, so
    // packets are not compared bit-for-bit; the *location* of the minimal
    // violation (path, decision flip, blamed slot) must agree exactly.
    EXPECT_EQ(b.path_index, s.path_index) << tag;
    EXPECT_EQ(b.decision_before, s.decision_before) << tag;
    EXPECT_EQ(b.decision_after, s.decision_after) << tag;
    EXPECT_EQ(b.changed_slot.has_value(), s.changed_slot.has_value()) << tag;
  }
}

TEST(BatchAlgebraTest, ClippedSidesMatchFullClassSides) {
  // Each path is walked only over its changed region. Outside the clip the
  // full-class before and after sides agree, inside it the clipped walks are
  // the full sides restricted to it, and the scan's per-obligation verdict
  // is the full-class comparison.
  Fixture fx;
  const std::vector<topo::AclUpdate> updates = {
      fx.f.running_example_update(), equivalent_rewrite(fx.f), subprefix_perturbation(fx.f)};
  const topo::ConfigView base{fx.f.topo};
  const auto& bundle = *fx.algebra.bundle;
  BatchRunOptions options;
  options.stop_at_first = false;
  const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items_for(updates), options);
  for (std::size_t u = 0; u < updates.size(); ++u) {
    const topo::ConfigView after{fx.f.topo, &updates[u]};
    const ChangedRegions changed = changed_regions(base, updates[u]);
    std::size_t violated = 0;
    for (const Obligation& o : bundle.plan.obligations()) {
      bool equal = true;
      for (const std::size_t p : o.paths) {
        const topo::Path& path = bundle.paths[p];
        const net::PacketSet full_before = topo::path_permitted_set(base, path) & *o.fec;
        const net::PacketSet full_after = topo::path_permitted_set(after, path) & *o.fec;
        const net::PacketSet clip = path_clip(changed, {}, path, *o.fec);
        const std::string tag =
            "update " + std::to_string(u) + " obligation " + std::to_string(o.index);
        EXPECT_TRUE((full_before - clip).equals(full_after - clip)) << tag;
        EXPECT_TRUE(topo::clipped_path_set(base, path, clip).equals(full_before & clip)) << tag;
        EXPECT_TRUE(topo::clipped_path_set(after, path, clip).equals(full_after & clip)) << tag;
        equal = equal && full_before.equals(full_after);
      }
      violated += equal ? 0 : 1;
    }
    // With every obligation scanned, one violation per differing obligation.
    EXPECT_EQ(outcomes[u].result.violations.size(), violated) << "update " << u;
  }
}

TEST(BatchRunTest, MatchesFreshCheckerAcrossUpdateShapes) {
  Fixture fx;
  const std::vector<topo::AclUpdate> updates = {
      {},                                   // no-op: consistent
      fx.f.running_example_update(),        // the paper's inconsistency
      equivalent_rewrite(fx.f),             // rule split, same model
      subprefix_perturbation(fx.f),         // violation inside one class
  };
  const auto items = items_for(updates);
  const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items);
  ASSERT_EQ(outcomes.size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_FALSE(outcomes[i].cancelled);
    EXPECT_FALSE(outcomes[i].deadline_expired);
    expect_same_verdict(outcomes[i].result, solo_check(fx, updates[i]),
                        "update " + std::to_string(i));
  }
}

TEST(BatchRunTest, AllViolationsModeMatchesCheckerWithoutEarlyStop) {
  Fixture fx;
  const std::vector<topo::AclUpdate> updates = {fx.f.running_example_update()};
  const auto items = items_for(updates);
  BatchRunOptions options;
  options.stop_at_first = false;
  const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items, options);
  const CheckResult solo = solo_check(fx, updates[0], /*stop_at_first=*/false);
  EXPECT_FALSE(outcomes[0].result.consistent);
  EXPECT_EQ(outcomes[0].result.violations.size(), solo.violations.size());
}

TEST(BatchRunTest, CancellationDropsOneJobWithoutPoisoningBatchmates) {
  Fixture fx;
  const std::vector<topo::AclUpdate> updates = {
      {},
      fx.f.running_example_update(),  // cancelled mid-batch
      subprefix_perturbation(fx.f),
  };
  std::vector<BatchItem> items = items_for(updates);
  items[1].probes.cancelled = [] { return true; };
  const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items);

  EXPECT_TRUE(outcomes[1].cancelled);
  EXPECT_TRUE(outcomes[1].result.violations.empty());

  EXPECT_FALSE(outcomes[0].cancelled);
  expect_same_verdict(outcomes[0].result, solo_check(fx, updates[0]), "noop");
  EXPECT_FALSE(outcomes[2].cancelled);
  expect_same_verdict(outcomes[2].result, solo_check(fx, updates[2]), "subprefix");
}

TEST(BatchRunTest, DeadlineExpiryIsPerJobAndFlagged) {
  Fixture fx;
  const std::vector<topo::AclUpdate> updates = {fx.f.running_example_update(), {}};
  std::vector<BatchItem> items = items_for(updates);
  items[0].probes.expired = [] { return true; };
  const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items);

  EXPECT_TRUE(outcomes[0].deadline_expired);
  EXPECT_FALSE(outcomes[0].cancelled);
  EXPECT_TRUE(outcomes[0].result.violations.empty());

  EXPECT_FALSE(outcomes[1].deadline_expired);
  expect_same_verdict(outcomes[1].result, solo_check(fx, updates[1]), "noop");
}

/// An update that re-binds every gateway slot to its current ACL rewrites
/// slots without changing any decision: its changed regions are empty, so
/// every path clip of the obligations it touches is empty, and those
/// obligations are skipped, never walked.
TEST(BatchRunTest, ObligationsWithEmptyClipsCountAsSkipped) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  smt::SmtContext smt;
  Checker checker{smt, wan.topo, wan.scope, CheckOptions{}};
  const BatchAlgebra algebra = build_batch_algebra(wan.topo, checker.share_plan(wan.traffic));
  const topo::ConfigView base{wan.topo};
  topo::AclUpdate update;
  for (const topo::AclSlot& slot : wan.gateway_slots) update.emplace(slot, base.acl(slot));
  const auto& obligations = algebra.bundle->plan.obligations();
  ASSERT_TRUE(std::any_of(obligations.begin(), obligations.end(),
                          [&](const Obligation& o) { return touches(o, update); }))
      << "the rebind touches no obligation; the test checks nothing";

  const auto outcome = run_check_batch(wan.topo, algebra, {BatchItem{&update, {}, {}}});
  const CheckResult& result = outcome[0].result;
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.obligations_executed, 0u);
  EXPECT_EQ(result.obligations_cancelled, 0u);
  EXPECT_EQ(result.obligation_count, obligations.size());
}

}  // namespace
}  // namespace jinjing::core
