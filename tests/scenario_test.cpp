#include "gen/scenario.h"

#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/fixer.h"
#include "core/generator.h"
#include "lai/parser.h"
#include "lai/printer.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace jinjing::gen {
namespace {

TEST(Perturb, TouchesRequestedFraction) {
  const auto wan = make_wan(small_wan());
  const auto update = perturb_rules(wan, 0.05, 7);
  EXPECT_FALSE(update.empty());
  for (const auto& [slot, acl] : update) {
    const auto& original = wan.topo.acl(slot);
    EXPECT_EQ(acl.size(), original.size());  // mutations never drop rules
    std::size_t changed = 0;
    for (std::size_t i = 0; i < acl.size(); ++i) {
      if (acl.rules()[i] != original.rules()[i]) ++changed;
    }
    EXPECT_GE(changed, 1u);
    // Trailing permit-all preserved.
    EXPECT_EQ(acl.rules().back(), net::AclRule::permit_all());
  }
}

TEST(Perturb, HigherFractionChangesMoreRules) {
  const auto wan = make_wan(medium_wan());
  const auto count_changes = [&](double f) {
    std::size_t changed = 0;
    for (const auto& [slot, acl] : perturb_rules(wan, f, 5)) {
      const auto& original = wan.topo.acl(slot);
      for (std::size_t i = 0; i < acl.size(); ++i) {
        if (acl.rules()[i] != original.rules()[i]) ++changed;
      }
    }
    return changed;
  };
  EXPECT_LT(count_changes(0.01), count_changes(0.05));
}

TEST(Perturb, DeterministicPerSeed) {
  const auto wan = make_wan(small_wan());
  const auto a = perturb_rules(wan, 0.03, 42);
  const auto b = perturb_rules(wan, 0.03, 42);
  EXPECT_EQ(a.size(), b.size());
  for (const auto& [slot, acl] : a) EXPECT_EQ(acl, b.at(slot));
}

TEST(Scenario, PerturbationCheckAndFixEndToEnd) {
  // Figure 4a/4b semantics on the small WAN: check the perturbed update,
  // fix it, and verify the fix re-checks clean.
  const auto wan = make_wan(small_wan());
  const auto update = perturb_rules(wan, 0.05, 3);

  smt::SmtContext smt;
  core::CheckOptions check_options;
  check_options.stop_at_first = false;
  core::Checker checker{smt, wan.topo, wan.scope, check_options};
  const auto check = checker.check(update, wan.traffic);

  if (!check.consistent) {
    smt::SmtContext smt2;
    core::Fixer fixer{smt2, wan.topo, wan.scope};
    std::vector<topo::AclSlot> allowed = wan.topo.bound_slots();
    const auto fix = fixer.fix(update, wan.traffic, allowed);
    ASSERT_TRUE(fix.success);

    smt::SmtContext smt3;
    core::Checker recheck{smt3, wan.topo, wan.scope};
    EXPECT_TRUE(recheck.check(fix.fixed_update, wan.traffic).consistent);
  }
}

TEST(Scenario, MigrationSpecMovesMiddleToLower) {
  const auto wan = make_wan(small_wan());
  const auto spec = migration_spec(wan);
  EXPECT_EQ(spec.sources, wan.agg_slots);
  EXPECT_EQ(spec.targets, wan.gateway_slots);
}

TEST(Scenario, MigrationGenerateIsValidOnSmallWan) {
  const auto wan = make_wan(small_wan());
  core::GenerateOptions options;
  options.universe = wan.traffic;
  core::Generator generator{wan.topo, wan.scope, options};
  const auto result = generator.generate(migration_spec(wan));
  ASSERT_TRUE(result.success);

  // Exact reachability preservation on every routed path.
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &result.update};
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    EXPECT_TRUE((topo::path_permitted_set(before, path) & carried)
                    .equals(topo::path_permitted_set(after, path) & carried))
        << to_string(wan.topo, path);
  }
}

TEST(Scenario, ControlOpenIntentsCountAndClamp) {
  const auto wan = make_wan(small_wan());
  const auto sc1 = control_open(wan, 1, 9);
  EXPECT_EQ(sc1.opened, wan.gateways.size());
  const auto huge = control_open(wan, 1000, 9);
  EXPECT_EQ(huge.opened, wan.gateways.size() * wan.params.prefixes_per_gateway * 4);
}

TEST(Scenario, ControlOpenGenerateSatisfiesIntents) {
  const auto wan = make_wan(small_wan());
  const auto sc = control_open(wan, 2, 13);

  core::GenerateOptions options;
  options.universe = wan.traffic;
  core::Generator generator{wan.topo, wan.scope, options};
  const auto result = generator.generate(sc.spec, sc.intents);
  ASSERT_TRUE(result.success);

  smt::SmtContext smt2;
  core::Checker checker{smt2, wan.topo, wan.scope};
  EXPECT_TRUE(checker.check(result.update, wan.traffic, sc.intents).consistent);
}

TEST(Scenario, IngressToEgressRelocationBreaksPeerTraffic) {
  // §7 Scenario 2: the relocation looks innocuous but blocks intra-cell
  // traffic to gateway-protected subnets; check must catch it.
  const auto wan = make_wan(small_wan());
  const auto update = ingress_to_egress_update(wan);

  smt::SmtContext smt;
  core::Checker checker{smt, wan.topo, wan.scope};
  const auto result = checker.check(update, wan.traffic);
  ASSERT_FALSE(result.consistent);

  // And fix repairs it within the gateway layer.
  smt::SmtContext smt2;
  core::Fixer fixer{smt2, wan.topo, wan.scope};
  const auto fix = fixer.fix(update, wan.traffic, gateway_layer_allow(wan));
  ASSERT_TRUE(fix.success);
  smt::SmtContext smt3;
  core::Checker recheck{smt3, wan.topo, wan.scope};
  EXPECT_TRUE(recheck.check(fix.fixed_update, wan.traffic).consistent);
}

TEST(Scenario, LaiProgramsParseAndCount) {
  const auto wan = make_wan(small_wan());

  const auto check_fix = check_fix_program(wan, perturb_rules(wan, 0.03, 3));
  const auto migration = migration_program(wan);
  const auto open_prog = control_open_program(wan, control_open(wan, 1, 9));

  for (const auto* text : {&check_fix, &migration, &open_prog}) {
    EXPECT_NO_THROW((void)lai::parse(*text)) << *text;
  }
  // Table 5 flavor: program size grows with the number of opened prefixes.
  const auto open_many = control_open_program(wan, control_open(wan, 4, 9));
  EXPECT_GT(lai::line_count(lai::parse(open_many)), lai::line_count(lai::parse(open_prog)));
}

}  // namespace
}  // namespace jinjing::gen
