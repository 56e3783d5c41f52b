// Property suite for delta FEC refinement: refine_delta must reproduce
// from-scratch refinement bit-for-bit (same classes, same order, same cube
// representation) across chain depths, including the empty-delta and
// full-rewrite cases; the AEC overlay memo must be bit-identical to an
// uncached derivation and stay within its capacity; the planner's
// stale-verdict sub-atom path must agree with a cold full check.
#include "topo/fec_delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/aec.h"
#include "core/checker.h"
#include "core/incremental.h"
#include "gen/fixtures.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "net/acl_algebra.h"
#include "obs/stats.h"

namespace jinjing {
namespace {

/// Bit-identity: same atom count, and atom i has exactly the same cubes in
/// the same order on both sides. Strictly stronger than partition equality.
void expect_identical(const std::vector<net::PacketSet>& got,
                      const std::vector<net::PacketSet>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].cubes(), want[i].cubes()) << label << " atom " << i;
  }
}

/// Random ACL-shaped predicate generator (prefix + optional port range),
/// the same family the refinement property tests use.
class PredicateGen {
 public:
  explicit PredicateGen(unsigned seed) : rng_(seed) {}

  net::PacketSet next() {
    std::uniform_int_distribution<int> octet(0, 255);
    std::uniform_int_distribution<int> len_choice(0, 2);
    std::uniform_int_distribution<int> action(0, 1);
    std::uniform_int_distribution<int> n_rules(1, 4);
    std::vector<net::AclRule> rules;
    const int n = n_rules(rng_);
    for (int i = 0; i < n; ++i) {
      net::Match m;
      const std::uint8_t lens[] = {8, 16, 24};
      m.dst = net::Prefix{net::Ipv4{10, static_cast<std::uint8_t>(octet(rng_)),
                                    static_cast<std::uint8_t>(octet(rng_)), 0},
                          lens[len_choice(rng_)]};
      if (octet(rng_) < 80) m.dport = net::PortRange{100, 9000};
      rules.push_back({action(rng_) ? net::Action::Permit : net::Action::Deny, m});
    }
    return net::permitted_set(net::Acl{rules, net::Action::Deny});
  }

  std::vector<net::PacketSet> batch(std::size_t lo, std::size_t hi) {
    std::uniform_int_distribution<std::size_t> count(lo, hi);
    std::vector<net::PacketSet> out;
    const std::size_t n = count(rng_);
    for (std::size_t i = 0; i < n; ++i) out.push_back(next());
    return out;
  }

 private:
  std::mt19937 rng_;
};

gen::WanParams randomized_params(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> small(1, 2);
  std::uniform_int_distribution<std::size_t> rules(4, 10);
  gen::WanParams params;
  params.cores = small(rng) + 1;
  params.aggs = small(rng) + 1;
  params.cells = small(rng);
  params.gateways_per_cell = small(rng);
  params.prefixes_per_gateway = small(rng);
  params.rules_per_acl = rules(rng);
  params.seed = seed;
  return params;
}

/// The in-scope forwarding predicates of a WAN — the real refinement input
/// the serving stack carries across versions.
std::vector<net::PacketSet> scope_predicates(const gen::Wan& wan) {
  std::vector<net::PacketSet> preds;
  for (const auto& edge : wan.topo.edges()) {
    if (wan.scope.contains_interface(wan.topo, edge.from) &&
        wan.scope.contains_interface(wan.topo, edge.to)) {
      preds.push_back(edge.predicate);
    }
  }
  return preds;
}

class FecDeltaProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FecDeltaProperty, DeltaIsBitIdenticalToFromScratch) {
  PredicateGen gen{GetParam()};
  const auto universe = net::PacketSet::all();
  for (int trial = 0; trial < 4; ++trial) {
    const auto base_preds = gen.batch(1, 5);
    const auto changed = gen.batch(1, 3);
    auto combined = base_preds;
    combined.insert(combined.end(), changed.begin(), changed.end());
    const auto base = topo::refine_into_atoms(universe, base_preds);
    const auto scratch = topo::refine_into_atoms(universe, combined);
    const auto delta = topo::refine_delta(base, changed);
    expect_identical(delta.atoms, scratch, "delta");
    EXPECT_EQ(delta.reused + delta.split, base.size());
    // touched[i] iff the atom lies inside some changed predicate (atoms
    // are uniform w.r.t. every predicate, so intersects == contains).
    ASSERT_EQ(delta.touched.size(), delta.atoms.size());
    for (std::size_t i = 0; i < delta.atoms.size(); ++i) {
      const bool meets = std::any_of(changed.begin(), changed.end(), [&](const auto& d) {
        return d.intersects(delta.atoms[i]);
      });
      EXPECT_EQ(delta.touched[i], meets) << "atom " << i;
    }
  }
}

TEST_P(FecDeltaProperty, DeltaOnWanPredicatesMatchesFromScratch) {
  const auto wan = gen::make_wan(randomized_params(GetParam()));
  const auto preds = scope_predicates(wan);
  if (preds.size() < 2) GTEST_SKIP() << "degenerate wan";
  // Split the real predicate list: refine the first part from scratch,
  // carry the rest across as the delta — the versioned-churn shape.
  const std::size_t cut = preds.size() - std::min<std::size_t>(3, preds.size() - 1);
  const std::vector<net::PacketSet> base_preds(preds.begin(), preds.begin() + cut);
  const std::vector<net::PacketSet> changed(preds.begin() + cut, preds.end());
  const auto base = topo::refine_into_atoms(wan.traffic, base_preds);
  const auto scratch = topo::refine_into_atoms(wan.traffic, preds);
  const auto delta = topo::refine_delta(base, changed);
  expect_identical(delta.atoms, scratch, "delta");
}

TEST_P(FecDeltaProperty, ChainedDeltasMatchFromScratchAtEveryDepth) {
  PredicateGen gen{GetParam() + 100};
  const auto universe = net::PacketSet::all();
  const auto base_preds = gen.batch(2, 4);
  auto atoms = topo::refine_into_atoms(universe, base_preds);
  auto combined = base_preds;
  // Chain depth 8: each hop applies a small delta to the previous hop's
  // output, exactly how successive applies chain partitions forward.
  for (int depth = 1; depth <= 8; ++depth) {
    const auto changed = gen.batch(1, 2);
    combined.insert(combined.end(), changed.begin(), changed.end());
    atoms = topo::refine_delta(atoms, changed).atoms;
    const auto scratch = topo::refine_into_atoms(universe, combined);
    expect_identical(atoms, scratch, "chained delta");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FecDeltaProperty, ::testing::Range(1u, 7u));

TEST(FecDelta, EmptyDeltaIsIdentity) {
  PredicateGen gen{42};
  const auto universe = net::PacketSet::all();
  const auto preds = gen.batch(2, 4);
  const auto base = topo::refine_into_atoms(universe, preds);
  const auto delta = topo::refine_delta(base, {});
  expect_identical(delta.atoms, base, "empty delta");
  EXPECT_EQ(delta.reused, base.size());
  EXPECT_EQ(delta.split, 0u);
  EXPECT_TRUE(std::none_of(delta.touched.begin(), delta.touched.end(),
                           [](bool touched) { return touched; }));
}

TEST(FecDelta, FullRewriteTouchesEveryAtom) {
  PredicateGen gen{43};
  const auto universe = net::PacketSet::all();
  const auto preds = gen.batch(2, 4);
  // A delta predicate covering the whole universe meets every atom: nothing
  // passes through, and the result still matches from-scratch refinement.
  const std::vector<net::PacketSet> changed{universe};
  auto combined = preds;
  combined.push_back(universe);
  const auto base = topo::refine_into_atoms(universe, preds);
  const auto scratch = topo::refine_into_atoms(universe, combined);
  const auto delta = topo::refine_delta(base, changed);
  expect_identical(delta.atoms, scratch, "full rewrite");
  EXPECT_EQ(delta.split, base.size());
  EXPECT_EQ(delta.reused, 0u);
  EXPECT_TRUE(std::all_of(delta.touched.begin(), delta.touched.end(),
                          [](bool touched) { return touched; }));
}

TEST(AecOverlayCache, MemoizedOverlayIsBitIdentical) {
  const auto wan = gen::make_wan(gen::small_wan());
  const topo::ConfigView view{wan.topo};
  std::vector<topo::AclSlot> slots;
  for (const auto slot : wan.topo.bound_slots()) {
    if (wan.scope.contains_interface(wan.topo, slot.iface)) slots.push_back(slot);
  }
  ASSERT_FALSE(slots.empty());
  core::AecMemo memo;
  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};
  const auto cold = core::acl_equivalence_classes(view, slots, wan.traffic, {}, {}, &memo);
  const auto uncached = core::acl_equivalence_classes(view, slots, wan.traffic);
  expect_identical(cold, uncached, "overlay cold");
  EXPECT_EQ(registry.total(obs::Counter::AecMemoMisses), 1u);
  EXPECT_EQ(memo.entries(), 1u);
  const auto warm = core::acl_equivalence_classes(view, slots, wan.traffic, {}, {}, &memo);
  // An exact-match hit, no re-derivation.
  EXPECT_EQ(registry.total(obs::Counter::AecMemoMisses), 1u);
  EXPECT_EQ(registry.total(obs::Counter::AecMemoHits), 1u);
  EXPECT_EQ(registry.total(obs::Counter::FecDeltaReusedAtoms), cold.size());
  EXPECT_EQ(memo.entries(), 1u);
  expect_identical(warm, cold, "overlay warm");
}

TEST(AecOverlayCache, MemoEvictsTheLeastRecentlyUsedPastItsCapacity) {
  core::AecMemo memo;
  const auto universe = [](unsigned i) {
    net::Match m;
    m.dst = net::Prefix{net::Ipv4{10, static_cast<std::uint8_t>(i), 0, 0}, 16};
    return net::PacketSet{m.cube()};
  };
  const auto atoms = std::make_shared<const std::vector<net::PacketSet>>();
  for (unsigned i = 0; i < core::AecMemo::kCapacity; ++i) memo.store(universe(i), {}, atoms);
  EXPECT_EQ(memo.entries(), core::AecMemo::kCapacity);
  ASSERT_NE(memo.find(universe(0), {}), nullptr);  // entry 0 becomes the most recent
  memo.store(universe(200), {}, atoms);
  EXPECT_EQ(memo.entries(), core::AecMemo::kCapacity);
  EXPECT_NE(memo.find(universe(0), {}), nullptr);
  EXPECT_EQ(memo.find(universe(1), {}), nullptr);  // the least recently used is gone
  EXPECT_NE(memo.find(universe(200), {}), nullptr);
}

TEST(IncrementalDelta, StaleVerdictSubAtomPathAgreesWithColdCheck) {
  // The full loop: prove a pending update at version 1, absorb an apply of
  // the same update (invalidating the verdicts its diff touches), then
  // re-check at version 2 — the stale verdicts take the delta-refined
  // sub-atom path and the outcome must equal a cold full check.
  const auto wan = gen::make_wan(gen::small_wan());
  const topo::AclUpdate update = gen::ingress_to_egress_update(wan);

  core::CheckOptions options;
  options.stop_at_first = false;
  core::IncrementalPlanner planner;

  smt::SmtContext smt1;
  core::Checker checker1{smt1, wan.topo, wan.scope, options};
  planner.install(1, wan.scope, checker1.share_plan(wan.traffic));
  core::IncrementalLease lease1 = planner.acquire(1, wan.scope, wan.traffic, update);
  ASSERT_TRUE(lease1.valid());
  const auto outcome1 = core::run_incremental_check(checker1, lease1, update);
  planner.commit(1, wan.scope, wan.traffic, update, outcome1.clean);

  // Apply the update: version 2 differs exactly by its differential.
  planner.record_apply(1, 2, wan.topo, update);
  topo::Topology applied = wan.topo;
  for (const auto& [slot, acl] : update) applied.bind_acl(slot, acl);

  core::IncrementalLease lease2 = planner.acquire(2, wan.scope, wan.traffic, update);
  ASSERT_TRUE(lease2.valid());
  core::CheckOptions adopted = options;
  adopted.adopted_plan = lease2.bundle;
  smt::SmtContext smt2;
  core::Checker checker2{smt2, applied, wan.scope, adopted};
  const auto outcome2 = core::run_incremental_check(checker2, lease2, update);

  smt::SmtContext smt3;
  core::Checker cold{smt3, applied, wan.scope, options};
  const auto full = cold.check(update, wan.traffic, {});
  EXPECT_EQ(outcome2.result.consistent, full.consistent);
  EXPECT_EQ(outcome2.result.violations.size(), full.violations.size());
  // At least part of the work was served without queries: every obligation
  // is either untouched, reused, delta-refined, or fully executed.
  EXPECT_EQ(outcome2.skipped + outcome2.reused + outcome2.result.obligations_executed,
            lease2.bundle->plan.size());
}

}  // namespace
}  // namespace jinjing
