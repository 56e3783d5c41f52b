// Checking within a management scope Ω smaller than the network — the
// paper's normal deployment mode ("a cluster, a layer of routers, an
// availability zone"): devices outside Ω are invisible, traffic crossing
// the scope boundary defines the border interfaces.
#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/engine.h"
#include "core/fixer.h"
#include "gen/fixtures.h"
#include "lai/parser.h"
#include "lai/sema.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace jinjing::core {
namespace {

using gen::Figure1;

/// The sub-scope {A, B} of Figure 1: entry A1; exits A3, A4 (toward C/D)
/// and B2 (toward C).
topo::Scope ab_scope(const gen::Figure1& f) {
  topo::Scope scope;
  scope.add(f.A);
  scope.add(f.B);
  return scope;
}

TEST(SubScope, PathsStopAtTheBoundary) {
  const auto f = gen::make_figure1();
  const auto paths = topo::enumerate_paths(f.topo, ab_scope(f));
  for (const auto& p : paths) {
    for (const auto& hop : p.hops()) {
      const auto device = f.topo.device_of(hop.iface);
      EXPECT_TRUE(device == f.A || device == f.B) << to_string(f.topo, p);
    }
  }
  // <A:1, A:2, B:1, B:2> plus the two single-device exits <A:1, A:3>,
  // <A:1, A:4>.
  EXPECT_EQ(paths.size(), 3u);
}

TEST(SubScope, CheckIgnoresOutOfScopeChanges) {
  // Changing D2 is invisible to a scope that ends at A/B.
  const auto f = gen::make_figure1();
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.D2, topo::Dir::In}, net::Acl::permit_all());

  smt::SmtContext smt;
  Checker checker{smt, f.topo, ab_scope(f), {}};
  EXPECT_TRUE(checker.check(update, f.traffic).consistent);
}

TEST(SubScope, CheckCatchesInScopeViolation) {
  // Moving D2's denies onto A1 *is* visible: traffic 1/2 no longer exits
  // the sub-scope toward D.
  const auto f = gen::make_figure1();
  const auto update = f.running_example_update();

  smt::SmtContext smt;
  Checker checker{smt, f.topo, ab_scope(f), {}};
  const auto result = checker.check(update, f.traffic);
  ASSERT_FALSE(result.consistent);
  EXPECT_TRUE(Figure1::traffic_class(1).contains(result.violations[0].witness) ||
              Figure1::traffic_class(2).contains(result.violations[0].witness));
}

TEST(SubScope, FixRepairsWithinTheScope) {
  const auto f = gen::make_figure1();
  const auto update = f.running_example_update();

  std::vector<topo::AclSlot> allowed;
  for (const auto iface : {f.A1, f.A2, f.A3, f.A4, f.B1, f.B2}) {
    allowed.push_back({iface, topo::Dir::In});
    allowed.push_back({iface, topo::Dir::Out});
  }

  Planner planner{f.topo, ab_scope(f)};
  Fixer fixer{planner};
  const auto fix = fixer.fix(update, f.traffic, allowed);
  ASSERT_TRUE(fix.success);

  smt::SmtContext smt2;
  Checker checker{smt2, f.topo, ab_scope(f)};
  EXPECT_TRUE(checker.check(fix.fixed_update, f.traffic).consistent);
  // Only in-scope interfaces were touched.
  for (const auto& action : fix.actions) {
    const auto device = f.topo.device_of(action.slot.iface);
    EXPECT_TRUE(device == f.A || device == f.B);
  }
}

TEST(SubScope, LaiProgramWithNarrowScope) {
  // The full LAI pipeline on the sub-scope. Moving "deny 6/8" from A1 to
  // the egress A4 is inconsistent within {A,B}: traffic 6 used to be
  // dropped before reaching A3 (exit to C) too.
  const auto f = gen::make_figure1();
  lai::AclLibrary lib;
  lib.emplace("pa", net::Acl::permit_all());
  lib.emplace("deny6", net::Acl::parse({"deny dst 6.0.0.0/8", "permit all"}));

  const auto program = lai::parse(R"(
scope A, B
allow A:*, B:*
modify A:1-in to pa, A:4-out to deny6
check
fix
)");
  const auto task = lai::resolve(program, f.topo, lib);
  EXPECT_EQ(task.scope.size(), 2u);

  Engine engine{f.topo};
  const auto report = engine.run(task, f.traffic);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_FALSE(report.outcomes[0].check->consistent);
  EXPECT_TRUE(report.outcomes[1].fix->success);

  smt::SmtContext smt;
  Checker checker{smt, f.topo, task.scope};
  EXPECT_TRUE(checker.check(report.final_update, f.traffic).consistent);
}

}  // namespace
}  // namespace jinjing::core
