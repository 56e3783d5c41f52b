// Set-algebra batch execution: every outcome must be identical to a fresh
// single-job Checker::check of the same update — verdict, minimal violated
// obligation, canonical witness — regardless of executor width, of which
// scan first filled the lazily computed before-sets, and of which sound
// subset of proven-clean obligations the caller passes in; cancellation or
// expiry of one job must never perturb batchmates.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/checker.h"
#include "gen/fixtures.h"
#include "gen/scenario.h"
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

TEST(BatchAlgebraTest, BeforeSetsMatchUnclippedPathSemantics) {
  Fixture fx;
  // A scan fills the sets of the obligations the running example touches;
  // the rest are filled here on first access. Both must be the unclipped
  // path semantics intersected with the class.
  const std::vector<topo::AclUpdate> updates = {fx.f.running_example_update()};
  BatchRunOptions options;
  options.stop_at_first = false;
  (void)run_check_batch(fx.f.topo, fx.algebra, items_for(updates), options);

  const topo::ConfigView base{fx.f.topo};
  const auto& obligations = fx.algebra.bundle->plan.obligations();
  ASSERT_FALSE(obligations.empty());
  for (const Obligation& o : obligations) {
    const auto& before = fx.algebra.before(o.index);
    ASSERT_EQ(before.size(), o.paths.size());
    for (std::size_t k = 0; k < o.paths.size(); ++k) {
      const net::PacketSet full =
          topo::path_permitted_set(base, fx.algebra.bundle->paths[o.paths[k]]) & *o.fec;
      EXPECT_TRUE(before[k].equals(full)) << "obligation " << o.index << " path " << k;
    }
    // Filled once: a second access returns the same kept sets.
    EXPECT_EQ(&fx.algebra.before(o.index), &before);
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

TEST(BatchRunTest, DeterministicAcrossExecutorWidths) {
  Fixture fx;
  const std::vector<topo::AclUpdate> updates = {
      fx.f.running_example_update(),
      {},
      subprefix_perturbation(fx.f),
  };
  const auto items = items_for(updates);

  const auto reference = run_check_batch(fx.f.topo, fx.algebra, items);
  for (const unsigned threads : {2u, 4u}) {
    for (const std::size_t max_shards : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
      Executor executor{threads};
      BatchRunOptions options;
      options.executor = &executor;
      options.max_shards = max_shards;
      const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items, options);
      ASSERT_EQ(outcomes.size(), reference.size());
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const std::string tag = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(max_shards) +
                                " job=" + std::to_string(i);
        EXPECT_EQ(outcomes[i].result.consistent, reference[i].result.consistent) << tag;
        ASSERT_EQ(outcomes[i].result.violations.size(),
                  reference[i].result.violations.size())
            << tag;
        for (std::size_t v = 0; v < outcomes[i].result.violations.size(); ++v) {
          // Witnesses are re-derived sequentially after the fan-out, so
          // they must agree bit-for-bit, not just in location.
          EXPECT_EQ(to_string(outcomes[i].result.violations[v].witness),
                    to_string(reference[i].result.violations[v].witness))
              << tag;
          EXPECT_EQ(outcomes[i].result.violations[v].path_index,
                    reference[i].result.violations[v].path_index)
              << tag;
        }
        EXPECT_EQ(outcomes[i].clean, reference[i].clean) << tag;
      }
    }
  }
}

/// The multi-core scaling sweep the soak harness leans on: one coalesced
/// unit over the layered WAN (whose obligations span many entry points, so
/// sharding actually splits work across cores), swept over executor widths
/// {2, 4, 8} crossed with shard counts. Every (width, shards) cell must
/// reproduce the single-threaded reference bit for bit — verdicts, the
/// full violation list, witness packets, and the per-obligation clean
/// vector. Any divergence here would surface in the soak as an oracle
/// mismatch that depends on the machine's core count.
TEST(BatchRunTest, WanSweepStableAcrossWidthsAndShardCounts) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  smt::SmtContext smt;
  CheckOptions check_options;
  Checker checker{smt, wan.topo, wan.scope, check_options};
  const BatchAlgebra algebra = build_batch_algebra(wan.topo, checker.share_plan(wan.traffic));

  // A mixed unit: no-op, two distinct seeded perturbations, and one
  // perturbation repeated (coalesced duplicates must not share outcomes by
  // accident).
  const std::vector<topo::AclUpdate> updates = {
      {},
      gen::perturb_rules(wan, 0.10, 71),
      gen::perturb_rules(wan, 0.25, 72),
      gen::perturb_rules(wan, 0.10, 71),
  };
  const auto items = items_for(updates);

  BatchRunOptions reference_options;
  reference_options.stop_at_first = false;  // full violation lists, not prefixes
  const auto reference = run_check_batch(wan.topo, algebra, items, reference_options);
  ASSERT_EQ(reference.size(), updates.size());
  // Identical updates produce identical outcomes even in the reference.
  ASSERT_EQ(reference[1].result.violations.size(), reference[3].result.violations.size());

  for (const unsigned threads : {2u, 4u, 8u}) {
    for (const std::size_t max_shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{64}}) {
      Executor executor{threads};
      BatchRunOptions options;
      options.executor = &executor;
      options.max_shards = max_shards;
      options.stop_at_first = false;
      const auto outcomes = run_check_batch(wan.topo, algebra, items, options);
      ASSERT_EQ(outcomes.size(), reference.size());
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const std::string tag = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(max_shards) +
                                " job=" + std::to_string(i);
        EXPECT_EQ(outcomes[i].result.consistent, reference[i].result.consistent) << tag;
        EXPECT_EQ(outcomes[i].clean, reference[i].clean) << tag;
        ASSERT_EQ(outcomes[i].result.violations.size(),
                  reference[i].result.violations.size())
            << tag;
        for (std::size_t v = 0; v < outcomes[i].result.violations.size(); ++v) {
          const Violation& got = outcomes[i].result.violations[v];
          const Violation& want = reference[i].result.violations[v];
          EXPECT_EQ(got.path_index, want.path_index) << tag;
          EXPECT_EQ(got.decision_before, want.decision_before) << tag;
          EXPECT_EQ(got.decision_after, want.decision_after) << tag;
          // Bit-for-bit witness stability across every width × shard cell.
          EXPECT_EQ(to_string(got.witness), to_string(want.witness)) << tag;
        }
      }
    }
  }
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
  Executor executor{2};
  BatchRunOptions options;
  options.executor = &executor;
  const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items, options);

  EXPECT_TRUE(outcomes[0].deadline_expired);
  EXPECT_FALSE(outcomes[0].cancelled);
  EXPECT_TRUE(outcomes[0].result.violations.empty());

  EXPECT_FALSE(outcomes[1].deadline_expired);
  expect_same_verdict(outcomes[1].result, solo_check(fx, updates[1]), "noop");
}

TEST(BatchRunTest, CleanVectorSeparatesProvenFromViolatedObligations) {
  Fixture fx;
  const std::vector<topo::AclUpdate> updates = {{}, fx.f.running_example_update()};
  const auto items = items_for(updates);
  BatchRunOptions options;
  options.stop_at_first = false;  // scan everything so clean[] is complete
  const auto outcomes = run_check_batch(fx.f.topo, fx.algebra, items, options);

  // A no-op touches nothing: every obligation is trivially proven.
  const std::size_t count = fx.algebra.bundle->plan.obligations().size();
  ASSERT_EQ(outcomes[0].clean.size(), count);
  for (std::size_t i = 0; i < count; ++i) EXPECT_TRUE(outcomes[0].clean[i]) << i;

  // The breaking update leaves its violated obligations dirty — exactly as
  // many as it reports violations.
  std::size_t dirty = 0;
  for (std::size_t i = 0; i < count; ++i) dirty += outcomes[1].clean[i] ? 0 : 1;
  EXPECT_EQ(dirty, outcomes[1].result.violations.size());
  EXPECT_GE(dirty, 1u);
}

/// Outcomes must agree bit for bit: verdict, clean vector, and every
/// violation's location and witness.
void expect_identical(const BatchOutcome& got, const BatchOutcome& want,
                      const std::string& tag) {
  EXPECT_EQ(got.result.consistent, want.result.consistent) << tag;
  EXPECT_EQ(got.clean, want.clean) << tag;
  ASSERT_EQ(got.result.violations.size(), want.result.violations.size()) << tag;
  for (std::size_t v = 0; v < got.result.violations.size(); ++v) {
    const Violation& g = got.result.violations[v];
    const Violation& w = want.result.violations[v];
    EXPECT_EQ(g.path_index, w.path_index) << tag;
    EXPECT_EQ(g.decision_before, w.decision_before) << tag;
    EXPECT_EQ(g.decision_after, w.decision_after) << tag;
    EXPECT_EQ(to_string(g.witness), to_string(w.witness)) << tag;
  }
}

/// Re-binds the base ACL verbatim at the first `count` gateway slots: the
/// update touches obligations but changes no decision.
topo::AclUpdate verbatim_rebind(const gen::Wan& wan, std::size_t count) {
  const topo::ConfigView base{wan.topo};
  topo::AclUpdate update;
  for (std::size_t i = 0; i < count && i < wan.gateway_slots.size(); ++i) {
    update.emplace(wan.gateway_slots[i], base.acl(wan.gateway_slots[i]));
  }
  return update;
}

/// The delta cache's verdict reuse as a filter: passing the clean bits of
/// an earlier run — or any subset of them, which is just as sound — must
/// not move the verdict, the minimal violated obligation or its witness.
TEST(BatchRunTest, CleanBitFilterPreservesOutcomesOnRandomWanUpdates) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  smt::SmtContext smt;
  Checker checker{smt, wan.topo, wan.scope, CheckOptions{}};
  const BatchAlgebra algebra = build_batch_algebra(wan.topo, checker.share_plan(wan.traffic));

  std::vector<topo::AclUpdate> updates = {verbatim_rebind(wan, 4)};
  for (unsigned seed = 1; seed <= 6; ++seed) {
    updates.push_back(gen::perturb_rules(wan, 0.02 * seed, 500 + seed));
  }
  std::mt19937 rng{2024};
  for (const bool stop_at_first : {true, false}) {
    BatchRunOptions options;
    options.stop_at_first = stop_at_first;
    const auto unfiltered = run_check_batch(wan.topo, algebra, items_for(updates), options);
    ASSERT_TRUE(std::any_of(unfiltered.begin(), unfiltered.end(),
                            [](const BatchOutcome& o) { return !o.result.consistent; }))
        << "no random update broke consistency; the filter is never tested on a violation";
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const std::string tag = "update " + std::to_string(i) +
                              (stop_at_first ? " stop_at_first" : " all");
      // The full earlier verdict set, then random subsets of it.
      std::vector<std::vector<bool>> filters = {unfiltered[i].clean};
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<bool> subset = unfiltered[i].clean;
        for (std::size_t b = 0; b < subset.size(); ++b) subset[b] = subset[b] && rng() % 2 == 0;
        filters.push_back(std::move(subset));
      }
      for (const auto& filter : filters) {
        const auto outcome = run_check_batch(
            wan.topo, algebra, {BatchItem{&updates[i], {}, filter}}, options);
        expect_identical(outcome[0], unfiltered[i], tag);
        EXPECT_LE(outcome[0].result.obligations_executed,
                  unfiltered[i].result.obligations_executed)
            << tag;
      }
    }
  }

  // A fully clean re-check scans nothing: the verbatim rebind touches
  // obligations, all proven consistent by the first run.
  const auto first = run_check_batch(wan.topo, algebra, {BatchItem{&updates[0], {}}});
  ASSERT_TRUE(first[0].result.consistent);
  ASSERT_GT(first[0].result.obligations_executed, 0u);
  const auto recheck =
      run_check_batch(wan.topo, algebra, {BatchItem{&updates[0], {}, first[0].clean}});
  EXPECT_TRUE(recheck[0].result.consistent);
  EXPECT_EQ(recheck[0].result.obligations_executed, 0u);
  EXPECT_EQ(recheck[0].result.obligations_cancelled, 0u);
}

/// Lazy fill under contention: many jobs over shared obligations race to
/// fill the same before-sets on a 4-wide executor. Each width starts from a
/// fresh algebra, so every run fills the sets itself, and all must agree.
TEST(BatchRunTest, LazyBeforeSetsAgreeAcrossExecutorWidths) {
  const gen::Wan wan = gen::make_wan(gen::small_wan());
  smt::SmtContext smt;
  Checker checker{smt, wan.topo, wan.scope, CheckOptions{}};
  const auto bundle = checker.share_plan(wan.traffic);

  std::vector<topo::AclUpdate> updates;
  for (unsigned seed = 1; seed <= 12; ++seed) {
    updates.push_back(gen::perturb_rules(wan, 0.05, 700 + seed % 4));
  }
  updates.push_back(verbatim_rebind(wan, wan.gateway_slots.size()));
  const auto items = items_for(updates);

  std::vector<std::vector<BatchOutcome>> runs;
  for (const unsigned threads : {1u, 2u, 4u}) {
    const BatchAlgebra algebra = build_batch_algebra(wan.topo, bundle);
    Executor executor{threads};
    BatchRunOptions options;
    options.stop_at_first = false;
    options.executor = &executor;
    runs.push_back(run_check_batch(wan.topo, algebra, items, options));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[r].size(); ++i) {
      expect_identical(runs[r][i], runs[0][i],
                       "run " + std::to_string(r) + " job " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace jinjing::core
