#include "core/fixer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/checker.h"
#include "gen/fixtures.h"
#include "net/acl_algebra.h"

namespace jinjing::core {
namespace {

using gen::Figure1;

std::vector<topo::AclSlot> allow_a_and_b(const gen::Figure1& f) {
  std::vector<topo::AclSlot> allowed;
  for (const auto iface : {f.A1, f.A2, f.A3, f.A4, f.B1, f.B2}) {
    allowed.push_back({iface, topo::Dir::In});
    allowed.push_back({iface, topo::Dir::Out});
  }
  return allowed;
}

TEST(Fixer, RunningExampleNeighborhoodsAreTraffic1And2) {
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result = fixer.fix(f.running_example_update(), f.traffic, allow_a_and_b(f));

  ASSERT_EQ(result.neighborhoods.size(), 2u);
  std::vector<net::PacketSet> sets;
  for (const auto& n : result.neighborhoods) sets.push_back(n.set);
  EXPECT_TRUE(std::any_of(sets.begin(), sets.end(), [](const net::PacketSet& s) {
    return s.equals(Figure1::traffic_class(1));
  }));
  EXPECT_TRUE(std::any_of(sets.begin(), sets.end(), [](const net::PacketSet& s) {
    return s.equals(Figure1::traffic_class(2));
  }));
}

TEST(Fixer, RunningExampleProducesThePaperPlan) {
  const auto f = gen::make_figure1();
  FixOptions options;
  options.simplify_result = false;  // inspect the raw prepended rules
  Planner planner{f.topo, f.scope};
  Fixer fixer{planner, options};
  const auto result = fixer.fix(f.running_example_update(), f.traffic, allow_a_and_b(f));

  ASSERT_TRUE(result.success);
  // The paper's plan: permit 1/8 and 2/8 at A1 (p0 must stay open) and deny
  // 2/8 at A2 (p2 must stay closed for traffic 2).
  const auto find_action = [&](topo::InterfaceId iface) {
    return std::find_if(result.actions.begin(), result.actions.end(),
                        [iface](const FixAction& a) { return a.slot.iface == iface; });
  };
  const auto a1 = find_action(f.A1);
  ASSERT_NE(a1, result.actions.end());
  EXPECT_EQ(a1->slot.dir, topo::Dir::In);
  ASSERT_EQ(a1->rules.size(), 2u);
  for (const auto& rule : a1->rules) {
    EXPECT_EQ(rule.action, net::Action::Permit);
    EXPECT_TRUE(rule.match.dst == net::parse_prefix("1.0.0.0/8") ||
                rule.match.dst == net::parse_prefix("2.0.0.0/8"));
  }

  // Traffic 2 on p2 must stay denied; with A and B allowed, one of the p2
  // hops before C gets the deny (the paper's solver picked A2).
  const auto deny_action =
      std::find_if(result.actions.begin(), result.actions.end(), [&](const FixAction& a) {
        return a.slot.iface != f.A1 &&
               std::any_of(a.rules.begin(), a.rules.end(), [](const net::AclRule& r) {
                 return r.action == net::Action::Deny &&
                        r.match.dst == net::parse_prefix("2.0.0.0/8");
               });
      });
  ASSERT_NE(deny_action, result.actions.end());
  EXPECT_TRUE(deny_action->slot.iface == f.A2 || deny_action->slot.iface == f.B1 ||
              deny_action->slot.iface == f.B2);
}

TEST(Fixer, FixedUpdatePassesCheck) {
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result = fixer.fix(f.running_example_update(), f.traffic, allow_a_and_b(f));
  ASSERT_TRUE(result.success);

  smt::SmtContext smt2;
  Checker checker{smt2, f.topo, f.scope};
  const auto check = checker.check(result.fixed_update, f.traffic);
  EXPECT_TRUE(check.consistent) << "fix output must re-check clean";
}

TEST(Fixer, SimplifiedFixedA1MatchesPaper) {
  // With simplification on, A1 collapses to "deny 6/8" + default permit
  // modulo the fixing permits that remain load-bearing... in the paper the
  // final simplified A1 keeps only "deny dst 6.0.0.0/8, permit all".
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result = fixer.fix(f.running_example_update(), f.traffic, allow_a_and_b(f));
  ASSERT_TRUE(result.success);
  const auto& a1 = result.fixed_update.at({f.A1, topo::Dir::In});
  // Exact decision-model check instead of rule-list text: equivalent to
  // the paper's two-rule ACL.
  EXPECT_TRUE(net::equivalent(
      a1, net::Acl::parse({"deny dst 6.0.0.0/8", "permit all"})));
}

TEST(Fixer, ConsistentUpdateNeedsNoFix) {
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result = fixer.fix({}, f.traffic, allow_a_and_b(f));
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.neighborhoods.empty());
  EXPECT_TRUE(result.actions.empty());
}

TEST(Fixer, ReportsFailureWhenAllowTooNarrow) {
  // Allow nothing: the running-example violations cannot be repaired.
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result = fixer.fix(f.running_example_update(), f.traffic, {});
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(std::any_of(result.neighborhoods.begin(), result.neighborhoods.end(),
                          [](const NeighborhoodReport& n) { return !n.solved; }));
}

TEST(Fixer, PlacementConstraintKeepsForbiddenDevicesClean) {
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result = fixer.fix(f.running_example_update(), f.traffic, allow_a_and_b(f));
  for (const auto& action : result.actions) {
    const auto device = f.topo.device_of(action.slot.iface);
    EXPECT_TRUE(device == f.A || device == f.B)
        << "fix touched forbidden device " << f.topo.device_name(device);
  }
}

TEST(Fixer, FixWithControlIntent) {
  // Intent: open traffic 6 from A1 to C3 (currently denied by A1). Fix must
  // repair the no-op update so 6 reaches C3 but stays denied towards D3.
  const auto f = gen::make_figure1();
  lai::ControlIntent open6;
  open6.from = {f.A1};
  open6.to = {f.C3};
  open6.verb = lai::ControlVerb::Open;
  open6.header = Figure1::traffic_class(6);

  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result = fixer.fix({}, f.traffic, allow_a_and_b(f), {open6});
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(result.actions.empty());

  smt::SmtContext smt2;
  Checker checker{smt2, f.topo, f.scope};
  EXPECT_TRUE(checker.check(result.fixed_update, f.traffic, {open6}).consistent);
}

TEST(Fixer, IntentBoundaryInsideANeighborhoodIsRespected) {
  // isolate dst 1.0.0.0/9 from A1 to D3 cuts traffic class 1 in half. The
  // fixed update must keep the lower half denied towards D3 while the
  // upper half keeps its pre-update reachability, so no neighborhood may
  // straddle the intent's header.
  const auto f = gen::make_figure1();
  lai::ControlIntent isolate;
  isolate.from = {f.A1};
  isolate.to = {f.D3};
  isolate.verb = lai::ControlVerb::Isolate;
  net::HyperCube half;
  half.set_interval(net::Field::DstIp, net::parse_prefix("1.0.0.0/9").interval());
  isolate.header = net::PacketSet{half};

  Planner planner{f.topo, f.scope};
  Fixer fixer{planner};
  const auto result =
      fixer.fix(f.running_example_update(), f.traffic, allow_a_and_b(f), {isolate});
  ASSERT_TRUE(result.success);
  for (const auto& n : result.neighborhoods) {
    EXPECT_TRUE(isolate.header.contains(n.set) || !isolate.header.intersects(n.set))
        << "neighborhood " << net::to_string(n.set) << " straddles the intent header";
  }

  smt::SmtContext smt2;
  Checker checker{smt2, f.topo, f.scope};
  const auto check = checker.check(result.fixed_update, f.traffic, {isolate});
  EXPECT_TRUE(check.consistent) << "witness "
                                << (check.violations.empty()
                                        ? std::string("-")
                                        : net::to_string(check.violations.front().witness));
}

}  // namespace
}  // namespace jinjing::core
