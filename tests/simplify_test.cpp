#include "core/simplify.h"

#include <gtest/gtest.h>

#include <random>

#include "net/acl_algebra.h"
#include "reference_simplify.h"

namespace jinjing::core {
namespace {

using net::Acl;

TEST(Simplify, PaperRunningExampleA1) {
  // §4.2: after fixing, A1 = "permit 1/8, permit 2/8, deny 1/8, deny 2/8,
  // deny 6/8, permit all" and simplification removes the first four rules.
  const auto fixed = Acl::parse({"permit dst 1.0.0.0/8", "permit dst 2.0.0.0/8",
                                 "deny dst 1.0.0.0/8", "deny dst 2.0.0.0/8", "deny dst 6.0.0.0/8",
                                 "permit all"});
  // (The explicit trailing "permit all" also folds into the implicit
  // default action of our ACL model.)
  const auto simplified = simplify(fixed);
  ASSERT_EQ(simplified.size(), 1u);
  EXPECT_EQ(simplified.rules()[0], net::parse_rule("deny dst 6.0.0.0/8"));
  EXPECT_TRUE(net::equivalent(fixed, simplified));
}

TEST(Simplify, KeepsNonRedundantRules) {
  const auto acl = Acl::parse({"permit dst 1.2.0.0/16", "deny dst 1.0.0.0/8", "permit all"});
  const auto simplified = simplify(acl);
  EXPECT_EQ(simplified.size(), 2u);  // permit-all is redundant, others are not
  EXPECT_TRUE(net::equivalent(acl, simplified));
}

TEST(Simplify, ShadowedRuleRemoved) {
  const auto acl = Acl::parse({"deny dst 1.0.0.0/8", "permit dst 1.2.0.0/16"});
  const auto simplified = simplify(acl);
  EXPECT_EQ(simplified.size(), 1u);
  EXPECT_TRUE(net::equivalent(acl, simplified));
}

TEST(Simplify, TrailingPermitAllMatchingDefaultRemoved) {
  const auto acl = Acl::parse({"deny dst 1.0.0.0/8", "permit all"});
  const auto simplified = simplify(acl);
  EXPECT_EQ(simplified.size(), 1u);
}

TEST(Simplify, EmptyAclUnchanged) {
  EXPECT_EQ(simplify(Acl::permit_all()).size(), 0u);
}

TEST(Simplify, Idempotent) {
  const auto acl = Acl::parse({"permit dst 1.0.0.0/8", "deny dst 1.0.0.0/8", "deny dst 2.0.0.0/8",
                               "permit all"});
  const auto once = simplify(acl);
  const auto twice = simplify(once);
  EXPECT_EQ(once, twice);
}

TEST(SimplifyOn, UniverseRestrictedRemoval) {
  // Within universe dst 1/8, the deny 2/8 rule is unobservable.
  net::HyperCube u;
  u.set_interval(net::Field::DstIp, net::parse_prefix("1.0.0.0/8").interval());
  const net::PacketSet universe{u};
  const auto acl = Acl::parse({"deny dst 2.0.0.0/8", "deny dst 1.0.0.0/8"});
  const auto simplified = simplify_on(acl, universe);
  ASSERT_EQ(simplified.size(), 1u);
  EXPECT_EQ(simplified.rules()[0], net::parse_rule("deny dst 1.0.0.0/8"));
}

TEST(Simplify, TwinPermitRulesKeepExactlyOne) {
  // Each twin is redundant alone but not jointly: exactly one must stay.
  const Acl acl{Acl::parse({"permit dst 1.0.0.0/8", "permit dst 1.0.0.0/8"}).rules(),
                net::Action::Deny};
  const auto simplified = simplify(acl);
  ASSERT_EQ(simplified.size(), 1u);
  EXPECT_EQ(simplified.rules()[0], net::parse_rule("permit dst 1.0.0.0/8"));
  EXPECT_TRUE(net::equivalent(acl, simplified));
}

Acl random_acl(std::mt19937& rng) {
  std::uniform_int_distribution<int> octet(0, 4);
  std::uniform_int_distribution<int> action(0, 1);
  std::uniform_int_distribution<int> n_rules(0, 10);
  std::uniform_int_distribution<int> len_choice(0, 2);

  std::vector<net::AclRule> rules;
  const int n = n_rules(rng);
  for (int i = 0; i < n; ++i) {
    net::Match m;
    const std::uint8_t lens[] = {8, 16, 0};
    m.dst = net::Prefix{net::Ipv4{static_cast<std::uint8_t>(octet(rng)), 0, 0, 0},
                        lens[len_choice(rng)]};
    rules.push_back({action(rng) ? net::Action::Permit : net::Action::Deny, m});
  }
  return Acl{rules, action(rng) ? net::Action::Permit : net::Action::Deny};
}

/// A union of two or three random cubes, each a destination /8 or /16 and
/// a source /8 or the whole source space.
net::PacketSet random_universe(std::mt19937& rng) {
  std::uniform_int_distribution<int> octet(0, 4);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> cubes(2, 3);
  net::PacketSet universe;
  for (int k = cubes(rng); k > 0; --k) {
    net::HyperCube cube;
    const net::Prefix dst{net::Ipv4{static_cast<std::uint8_t>(octet(rng)),
                                    static_cast<std::uint8_t>(octet(rng)), 0, 0},
                          static_cast<std::uint8_t>(coin(rng) ? 8 : 16)};
    cube.set_interval(net::Field::DstIp, dst.interval());
    if (coin(rng)) {
      const net::Prefix src{net::Ipv4{static_cast<std::uint8_t>(10 + octet(rng)), 0, 0, 0}, 8};
      cube.set_interval(net::Field::SrcIp, src.interval());
    }
    universe = universe | net::PacketSet{cube};
  }
  return universe;
}

/// Checks that `simplified` is exact on `universe` and irredundant there
/// (dropping any one rule changes the permitted set), and records its rule
/// count beside the reference fixpoint's.
void expect_exact_and_irredundant(const Acl& acl, const Acl& simplified,
                                  const net::PacketSet& universe) {
  EXPECT_LE(simplified.size(), acl.size());
  EXPECT_TRUE(net::equivalent_on(acl, simplified, universe))
      << to_string(acl) << "--\n" << to_string(simplified);
  for (std::size_t i = 0; i < simplified.size(); ++i) {
    std::vector<net::AclRule> without = simplified.rules();
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(net::equivalent_on(simplified, Acl{without, simplified.default_action()},
                                    universe))
        << "rule " << i << " is redundant in\n" << to_string(simplified);
  }
  const Acl reference = test::reference_simplify_on(acl, universe);
  EXPECT_TRUE(net::equivalent_on(acl, reference, universe));
  ::testing::Test::RecordProperty("rules", static_cast<int>(simplified.size()));
  ::testing::Test::RecordProperty("reference_rules", static_cast<int>(reference.size()));
}

// Property: simplification preserves the exact decision model, never grows
// the ACL and leaves no redundant rule, for random rule lists — on the
// whole header space and on a random multi-cube universe.
class SimplifyProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimplifyProperty, EquivalentAndNoLarger) {
  std::mt19937 rng(GetParam());
  const Acl acl = random_acl(rng);
  expect_exact_and_irredundant(acl, simplify(acl), net::PacketSet::all());
}

TEST_P(SimplifyProperty, ExactAndIrredundantOnUniverse) {
  std::mt19937 rng(GetParam());
  const Acl acl = random_acl(rng);
  const net::PacketSet universe = random_universe(rng);
  expect_exact_and_irredundant(acl, simplify_on(acl, universe), universe);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperty, ::testing::Range(1u, 31u));

}  // namespace
}  // namespace jinjing::core
