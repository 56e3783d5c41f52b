// Integration tests: full LAI programs through the engine — the three
// Table 1 task rows, end to end.
#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/deploy.h"
#include "gen/fixtures.h"
#include "lai/parser.h"
#include "net/acl_algebra.h"
#include "obs/stats.h"
#include "topo/paths.h"

namespace jinjing::core {
namespace {

using gen::Figure1;

lai::AclLibrary running_example_library() {
  lai::AclLibrary lib;
  lib.emplace("A1p", net::Acl::parse({"deny dst 1.0.0.0/8", "deny dst 2.0.0.0/8",
                                      "deny dst 6.0.0.0/8", "permit all"}));
  lib.emplace("A3p", net::Acl::parse({"deny dst 7.0.0.0/8", "permit all"}));
  lib.emplace("permit_all", net::Acl::permit_all());
  return lib;
}

// Table 1 row 1: ACL update plan checking and fixing (the §3.2 example).
constexpr const char* kCheckFixProgram = R"(
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify A:1-in to A1p, A:3-out to A3p, C:1-in to permit_all, D:2-in to permit_all
check
fix
)";

TEST(Engine, RunningExampleCheckThenFix) {
  const auto f = gen::make_figure1();
  Engine engine{f.topo};
  const auto report = engine.run_program(kCheckFixProgram, running_example_library(), f.traffic);

  ASSERT_EQ(report.outcomes.size(), 2u);
  // check: "the system outputs inconsistent".
  ASSERT_TRUE(report.outcomes[0].check.has_value());
  EXPECT_FALSE(report.outcomes[0].check->consistent);
  // fix: produces a plan.
  ASSERT_TRUE(report.outcomes[1].fix.has_value());
  EXPECT_TRUE(report.outcomes[1].fix->success);

  // The final plan re-checks clean.
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope};
  EXPECT_TRUE(checker.check(report.final_update, f.traffic).consistent);
}

// Table 1 row 2: ACL migration via generate.
constexpr const char* kMigrationProgram = R"(
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify A:1-in to permit_all, D:2-in to permit_all
generate
)";

TEST(Engine, MigrationProgramGeneratesValidPlan) {
  const auto f = gen::make_figure1();
  Engine engine{f.topo};
  lai::AclLibrary lib;
  lib.emplace("permit_all", net::Acl::permit_all());
  const auto report = engine.run_program(kMigrationProgram, lib, f.traffic);

  ASSERT_EQ(report.outcomes.size(), 1u);
  ASSERT_TRUE(report.outcomes[0].generate.has_value());
  EXPECT_TRUE(report.outcomes[0].generate->success);

  // Exact validity: all path decisions on entering traffic preserved.
  const topo::ConfigView before{f.topo};
  const topo::ConfigView after{f.topo, &report.final_update};
  for (const auto& path : topo::enumerate_paths(f.topo, f.scope)) {
    const auto carried = topo::forwarding_set(f.topo, path) & f.traffic;
    if (carried.is_empty()) continue;
    EXPECT_TRUE((topo::path_permitted_set(before, path) & carried)
                    .equals(topo::path_permitted_set(after, path) & carried))
        << to_string(f.topo, path);
  }
}

// Table 1 row 3: opening/isolating traffic for a service via control.
constexpr const char* kIsolateProgram = R"(
scope A:*, B:*, C:*, D:*
allow A:2-out, A:3-out, A:4-out
control A:1 -> D:3 isolate dst 4.0.0.0/8
generate
)";

TEST(Engine, IsolateProgramBlocksTraffic) {
  const auto f = gen::make_figure1();
  Engine engine{f.topo};
  const auto report = engine.run_program(kIsolateProgram, {}, f.traffic);
  ASSERT_TRUE(report.success());

  // After the update traffic 4 cannot reach D3 on any path, while other
  // decisions (e.g. 5 to C3, 3 to D3) are untouched.
  const topo::ConfigView after{f.topo, &report.final_update};
  for (const auto& path : topo::enumerate_paths(f.topo, f.scope)) {
    const auto carried = topo::forwarding_set(f.topo, path);
    if (!carried.intersects(Figure1::traffic_class(4))) continue;
    if (path.exit() != f.D3) continue;
    EXPECT_FALSE(topo::path_permits(after, path, Figure1::traffic_packet(4)))
        << to_string(f.topo, path);
  }
  EXPECT_TRUE(topo::path_permits(after,
                                 topo::enumerate_paths(f.topo, f.scope).front(),
                                 Figure1::traffic_packet(3)));

  // And the new plan checks out against the same intent.
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope};
  lai::ControlIntent isolate4;
  isolate4.from = {f.A1};
  isolate4.to = {f.D3};
  isolate4.verb = lai::ControlVerb::Isolate;
  isolate4.header = Figure1::traffic_class(4);
  EXPECT_TRUE(checker.check(report.final_update, f.traffic, {isolate4}).consistent);
}

TEST(Engine, GenerateWithArbitraryReplacement) {
  // Equation 8 extended beyond permit-all sources: replace D2's ACL with a
  // tighter one (only the 2/8 deny survives) and regenerate the targets so
  // overall reachability is preserved.
  const auto f = gen::make_figure1();
  Engine engine{f.topo};
  lai::AclLibrary lib;
  lib.emplace("D2_tight", net::Acl::parse({"deny dst 2.0.0.0/8", "permit all"}));
  const auto report = engine.run_program(R"(
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify D:2-in to D2_tight
generate
)",
                                         lib, f.traffic);
  ASSERT_TRUE(report.success());

  // The plan keeps the replacement at D2 verbatim...
  const auto d2 = report.final_update.at({f.D2, topo::Dir::In});
  EXPECT_TRUE(net::equivalent(d2, lib.at("D2_tight")));

  // ...and the whole update preserves the original reachability exactly.
  const topo::ConfigView before{f.topo};
  const topo::ConfigView after{f.topo, &report.final_update};
  for (const auto& path : topo::enumerate_paths(f.topo, f.scope)) {
    const auto carried = topo::forwarding_set(f.topo, path) & f.traffic;
    if (carried.is_empty()) continue;
    EXPECT_TRUE((topo::path_permitted_set(before, path) & carried)
                    .equals(topo::path_permitted_set(after, path) & carried))
        << to_string(f.topo, path);
  }
}

TEST(Engine, TrailingCheckValidatesTheRepairedPlan) {
  // "check fix check": the second check runs against the *fixed* plan and
  // comes back consistent.
  const auto f = gen::make_figure1();
  Engine engine{f.topo};
  const auto report = engine.run_program(R"(
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify A:1-in to A1p, A:3-out to A3p, C:1-in to permit_all, D:2-in to permit_all
check
fix
check
)",
                                         running_example_library(), f.traffic);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_FALSE(report.outcomes[0].check->consistent);
  EXPECT_TRUE(report.outcomes[1].fix->success);
  EXPECT_TRUE(report.outcomes[2].check->consistent);
  EXPECT_TRUE(report.success());
}

TEST(Engine, ConsistentCheckReportsSuccess) {
  const auto f = gen::make_figure1();
  Engine engine{f.topo};
  const auto report = engine.run_program("scope A:*, B:*, C:*, D:*\ncheck", {}, f.traffic);
  EXPECT_TRUE(report.success());
  EXPECT_TRUE(report.final_update.empty());
}

// Deadlines are cooperative: every command polls the job's probes between
// its units of work, so an already-expired budget stops a fix (or a
// generate, or a check) with the deadline diagnostic — there is no solver
// whose timeout could fire instead.
TEST(Engine, ExpiredProbeFailsEveryCommandWithDeadlineExceeded) {
  const auto f = gen::make_figure1();
  const auto task =
      lai::resolve(lai::parse(kCheckFixProgram), f.topo, running_example_library());
  StopProbes expired;
  expired.expired = [] { return true; };
  StopProbes cancelled;
  cancelled.cancelled = [] { return true; };
  for (const auto command : {lai::Command::Fix, lai::Command::Generate, lai::Command::Check}) {
    Engine engine{f.topo};
    topo::AclUpdate current = task.modify;
    try {
      (void)engine.run_command(task, command, current, f.traffic, expired);
      ADD_FAILURE() << lai::to_string(command) << " ran past an expired deadline";
    } catch (const Interrupted& e) {
      EXPECT_TRUE(e.deadline());
      const std::string what = e.what();
      EXPECT_NE(what.find("deadline exceeded"), std::string::npos) << what;
      EXPECT_EQ(what.find("solver timeout"), std::string::npos) << what;
    }
    try {
      (void)engine.run_command(task, command, current, f.traffic, cancelled);
      ADD_FAILURE() << lai::to_string(command) << " ran past a cancellation";
    } catch (const Interrupted& e) {
      EXPECT_FALSE(e.deadline());
    }
    // The update under work is left as it was.
    EXPECT_EQ(current, task.modify);
  }
}

// One engine plans a scope once: the check, the fix's violation search and
// the trailing check all read the same planner. A generate on that engine
// then answers exactly as one on a fresh engine.
TEST(Engine, OnePlannerServesEveryCommandOfAScope) {
  const auto f = gen::make_figure1();
  Engine engine{f.topo};
  {
    obs::StatsRegistry registry;
    const obs::ScopedRegistry installed{registry};
    const auto report = engine.run_program(R"(
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify A:1-in to A1p, A:3-out to A3p, C:1-in to permit_all, D:2-in to permit_all
check
fix
check
)",
                                           running_example_library(), f.traffic);
    ASSERT_TRUE(report.success());
    EXPECT_EQ(registry.total(obs::Counter::PlanBuilds), 1u);
  }

  constexpr const char* kCheckGenerate = R"(
scope A:*, B:*, C:*, D:*
allow C:1-in, C:2-in, D:1-in
modify A:1-in to permit_all, D:2-in to permit_all
check
generate
)";
  const auto warm = engine.run_program(kCheckGenerate, running_example_library(), f.traffic);
  Engine fresh{f.topo};
  const auto cold = fresh.run_program(kCheckGenerate, running_example_library(), f.traffic);
  ASSERT_TRUE(warm.success());
  EXPECT_EQ(format_plan(f.topo, warm.final_update), format_plan(f.topo, cold.final_update));
}

}  // namespace
}  // namespace jinjing::core
