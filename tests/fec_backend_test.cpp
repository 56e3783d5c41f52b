// Exactness regression for equivalence-class refinement: the classes must
// be exactly the atoms of the predicates (checked against a
// definition-level oracle), and the checker's verdicts and witnesses must
// agree with the exact header-space oracle.
#include "topo/fec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/checker.h"
#include "gen/fixtures.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace jinjing::topo {
namespace {

/// Definition-level oracle for Eq. 2: `classes` are the atoms of
/// `predicates` over `universe` iff they are nonempty, pairwise disjoint
/// and cover `universe`, every predicate is constant on each class, and no
/// two classes share a predicate signature (the partition is the coarsest
/// one: merging any two classes would split some predicate).
void expect_atoms_of(const net::PacketSet& universe,
                     const std::vector<const net::PacketSet*>& predicates,
                     const std::vector<net::PacketSet>& classes) {
  net::PacketSet covered;
  std::set<std::vector<bool>> signatures;
  for (const auto& cls : classes) {
    EXPECT_FALSE(cls.is_empty());
    EXPECT_FALSE(covered.intersects(cls));
    covered = (covered | cls).compact();
    std::vector<bool> signature;
    signature.reserve(predicates.size());
    for (const auto* pred : predicates) {
      const bool inside = pred->intersects(cls);
      EXPECT_TRUE(!inside || pred->contains(cls));
      signature.push_back(inside);
    }
    EXPECT_TRUE(signatures.insert(std::move(signature)).second) << "two classes share a signature";
  }
  EXPECT_TRUE(covered.equals(universe));
}

/// The forwarding predicates of edges inside the scope (the global FEC
/// input).
std::vector<const net::PacketSet*> scope_predicates(const Topology& topo, const Scope& scope) {
  std::vector<const net::PacketSet*> preds;
  for (const auto& edge : topo.edges()) {
    if (scope.contains_interface(topo, edge.from) && scope.contains_interface(topo, edge.to)) {
      preds.push_back(&edge.predicate);
    }
  }
  return preds;
}

/// The forwarding predicates of in-scope edges reachable from `entry` (the
/// per-entry FEC input).
std::vector<const net::PacketSet*> reachable_predicates(const Topology& topo, const Scope& scope,
                                                        InterfaceId entry) {
  std::vector<const net::PacketSet*> preds;
  std::vector<bool> seen(topo.interface_count(), false);
  std::vector<InterfaceId> frontier{entry};
  seen[entry] = true;
  while (!frontier.empty()) {
    const InterfaceId at = frontier.back();
    frontier.pop_back();
    for (const auto ei : topo.out_edges(at)) {
      const Edge& edge = topo.edges()[ei];
      if (!scope.contains_interface(topo, edge.to)) continue;
      preds.push_back(&edge.predicate);
      if (!seen[edge.to]) {
        seen[edge.to] = true;
        frontier.push_back(edge.to);
      }
    }
  }
  return preds;
}

gen::WanParams randomized_params(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> small(1, 2);
  std::uniform_int_distribution<std::size_t> rules(4, 10);
  std::uniform_int_distribution<std::size_t> asym(0, 4);
  gen::WanParams params;
  params.cores = small(rng) + 1;
  params.aggs = small(rng) + 1;
  params.cells = small(rng);
  params.gateways_per_cell = small(rng);
  params.prefixes_per_gateway = small(rng);
  params.rules_per_acl = rules(rng);
  params.asymmetry = asym(rng);
  params.seed = seed;
  return params;
}

// Refinement against the atom oracle (Eq. 2) and across thread counts.
class BackendEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(BackendEquivalence, GlobalFecsMatchOnRandomWan) {
  const auto wan = gen::make_wan(randomized_params(GetParam()));
  const auto classes = forwarding_equivalence_classes(wan.topo, wan.scope, wan.traffic);
  expect_atoms_of(wan.traffic, scope_predicates(wan.topo, wan.scope), classes);
}

TEST_P(BackendEquivalence, PerEntryClassesMatchOnRandomWan) {
  const auto wan = gen::make_wan(randomized_params(GetParam()));
  const auto per_entry = per_entry_equivalence_classes(wan.topo, wan.scope, wan.traffic);
  const auto entries = entry_interfaces(wan.topo, wan.scope);
  ASSERT_EQ(per_entry.size(), entries.size());
  for (std::size_t i = 0; i < per_entry.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(entries[i]));
    EXPECT_EQ(per_entry[i].entry, entries[i]);
    expect_atoms_of(wan.traffic, reachable_predicates(wan.topo, wan.scope, entries[i]),
                    per_entry[i].classes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalence, ::testing::Range(1u, 9u));

TEST(BackendEquivalence, RefineIntoAtomsMatchesOnRandomSets) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> octet(0, 255);
  std::uniform_int_distribution<int> len_choice(0, 2);
  std::uniform_int_distribution<int> action(0, 1);
  const auto random_set = [&] {
    std::vector<net::AclRule> rules;
    std::uniform_int_distribution<int> n_rules(1, 4);
    const int n = n_rules(rng);
    for (int i = 0; i < n; ++i) {
      net::Match m;
      const std::uint8_t lens[] = {8, 16, 24};
      m.dst = net::Prefix{net::Ipv4{10, static_cast<std::uint8_t>(octet(rng)),
                                    static_cast<std::uint8_t>(octet(rng)), 0},
                          lens[len_choice(rng)]};
      if (octet(rng) < 80) m.dport = net::PortRange{100, 9000};
      rules.push_back({action(rng) ? net::Action::Permit : net::Action::Deny, m});
    }
    return net::permitted_set(net::Acl{rules, net::Action::Deny});
  };
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<net::PacketSet> preds;
    std::uniform_int_distribution<int> n_preds(1, 5);
    const int n = n_preds(rng);
    for (int i = 0; i < n; ++i) preds.push_back(random_set());
    std::vector<const net::PacketSet*> refs;
    for (const auto& pred : preds) refs.push_back(&pred);
    const auto universe = net::PacketSet::all();
    expect_atoms_of(universe, refs, refine_into_atoms(universe, preds));
  }
}

/// Exact per-path consistency verdict via the header-space engine.
bool oracle_consistent(const Topology& topo, const Scope& scope, const net::PacketSet& traffic,
                       const AclUpdate& update) {
  const ConfigView before{topo};
  const ConfigView after{topo, &update};
  for (const auto& path : enumerate_paths(topo, scope)) {
    const auto carried = forwarding_set(topo, path) & traffic;
    if (carried.is_empty()) continue;
    if (!(path_permitted_set(before, path) & carried)
             .equals(path_permitted_set(after, path) & carried)) {
      return false;
    }
  }
  return true;
}

/// Checker::check against the header-space oracle: same verdict, and every
/// reported witness is a genuine decision change on its path.
void expect_check_matches_oracle(core::Checker& checker, const Topology& topo,
                                 const Scope& scope, const net::PacketSet& traffic,
                                 const AclUpdate& update) {
  const auto result = checker.check(update, traffic);
  EXPECT_EQ(result.consistent, oracle_consistent(topo, scope, traffic, update));
  EXPECT_EQ(result.consistent, result.violations.empty());
  const ConfigView before{topo};
  const ConfigView after{topo, &update};
  for (const auto& v : result.violations) {
    const auto& path = checker.paths()[v.path_index];
    EXPECT_EQ(path_permits(before, path, v.witness), v.decision_before);
    EXPECT_EQ(path_permits(after, path, v.witness), v.decision_after);
    EXPECT_NE(v.decision_before, v.decision_after);
  }
}

TEST(CheckerOracle, VerdictsAndWitnessesMatchHeaderSpaceOracle) {
  {
    SCOPED_TRACE("figure 1");
    const auto f = gen::make_figure1();
    smt::SmtContext smt;
    core::CheckOptions o;
    o.stop_at_first = false;
    core::Checker checker{smt, f.topo, f.scope, o};
    expect_check_matches_oracle(checker, f.topo, f.scope, f.traffic, {});
    expect_check_matches_oracle(checker, f.topo, f.scope, f.traffic,
                                f.running_example_update());
    const auto result = checker.check(f.running_example_update(), f.traffic);
    EXPECT_EQ(result.violations.size(), 2u);  // FECs {1} and {2,3}
    EXPECT_EQ(result.fec_count, 5u);
  }
  {
    SCOPED_TRACE("small WAN");
    const auto wan = gen::make_wan(gen::small_wan());
    smt::SmtContext smt;
    core::Checker checker{smt, wan.topo, wan.scope};
    expect_check_matches_oracle(checker, wan.topo, wan.scope, wan.traffic, {});
    // §7 Scenario 2 (ingress→egress ACL relocation) breaks intra-cell
    // reachability.
    const auto scenario2 = gen::ingress_to_egress_update(wan);
    EXPECT_FALSE(oracle_consistent(wan.topo, wan.scope, wan.traffic, scenario2));
    expect_check_matches_oracle(checker, wan.topo, wan.scope, wan.traffic, scenario2);
    for (unsigned seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("perturbation seed " + std::to_string(seed));
      expect_check_matches_oracle(checker, wan.topo, wan.scope, wan.traffic,
                                  gen::perturb_rules(wan, 0.05, seed));
    }
  }
}

/// The checker's one configuration: hypercube sets (engine 0) and the
/// incremental session solver. The suite has a single instance, named
/// after that configuration so its test names stay stable.
struct SessionModes {
  std::uint8_t set_engine;
  bool incremental;
};

class CheckerBackendModes : public ::testing::TestWithParam<SessionModes> {};

TEST_P(CheckerBackendModes, AgreesWithSeedPipelineOnFigure1) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  core::CheckOptions o;
  o.stop_at_first = false;
  core::Checker checker{smt, f.topo, f.scope, o};
  EXPECT_TRUE(checker.check({}, f.traffic).consistent);
  const auto result = checker.check(f.running_example_update(), f.traffic);
  EXPECT_FALSE(result.consistent);
  EXPECT_EQ(result.violations.size(), 2u);  // FECs {1} and {2,3}
  EXPECT_EQ(result.fec_count, 5u);
}

TEST_P(CheckerBackendModes, AgreesOnWanScenario) {
  const auto wan = gen::make_wan(gen::small_wan());
  smt::SmtContext smt;
  core::Checker checker{smt, wan.topo, wan.scope};
  EXPECT_TRUE(checker.check({}, wan.traffic).consistent);
  // §7 Scenario 2 (ingress→egress ACL relocation) breaks intra-cell
  // reachability.
  EXPECT_FALSE(checker.check(gen::ingress_to_egress_update(wan), wan.traffic).consistent);
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckerBackendModes,
                         ::testing::Values(SessionModes{0, true}),
                         [](const ::testing::TestParamInfo<SessionModes>&) {
                           return std::string("hypercube_incremental");
                         });

}  // namespace
}  // namespace jinjing::topo
