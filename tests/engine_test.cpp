// Integration tests: full LAI programs through the engine — the three
// Table 1 task rows, end to end.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/checker.h"
#include "core/deploy.h"
#include "gen/fixtures.h"
#include "gen/scenario.h"
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

// ---------------------------------------------------------------------------
// Randomized-WAN engine sessions and the plan IR.

gen::WanParams tiny_wan(unsigned seed) {
  gen::WanParams p;
  p.cores = 2;
  p.aggs = 2;
  p.cells = 2;
  p.gateways_per_cell = 2;
  p.prefixes_per_gateway = 2;
  p.rules_per_acl = 10;
  p.seed = seed;
  return p;
}

/// Exact per-path consistency verdict via the header-space engine.
bool oracle_consistent(const gen::Wan& wan, const topo::AclUpdate& update) {
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    if (!(topo::path_permitted_set(before, path) & carried)
             .equals(topo::path_permitted_set(after, path) & carried)) {
      return false;
    }
  }
  return true;
}

// check; fix; check through ONE engine reuses the cached plan across
// commands — and still repairs correctly.
TEST(EngineSession, CheckFixCheckReusesPlanAndStaysCorrect) {
  const auto wan = gen::make_wan(tiny_wan(42));
  const auto update = gen::perturb_rules(wan, 0.08, 7);
  if (oracle_consistent(wan, update)) GTEST_SKIP() << "perturbation happens to be consistent";

  Engine engine{wan.topo};
  lai::UpdateTask task;
  task.scope = wan.scope;
  task.allowed = wan.topo.bound_slots();
  task.modify = update;
  task.commands = {lai::Command::Check, lai::Command::Fix, lai::Command::Check};
  const auto report = engine.run(task, wan.traffic);

  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_FALSE(report.outcomes[0].check->consistent);
  EXPECT_TRUE(report.outcomes[1].fix->success);
  EXPECT_TRUE(report.outcomes[2].check->consistent);
  EXPECT_TRUE(report.success());
  EXPECT_TRUE(oracle_consistent(wan, report.final_update));

  // The trailing check planned nothing: the obligation plan was built once
  // by the first command and served from the planner's cache afterwards.
  EXPECT_GT(report.outcomes[0].check->plan_seconds, 0.0);
  EXPECT_EQ(report.outcomes[2].check->plan_seconds, 0.0);

  // A second task on the same engine (same scope) also replans nothing.
  lai::UpdateTask again;
  again.scope = wan.scope;
  again.modify = gen::perturb_rules(wan, 0.04, 11);
  again.commands = {lai::Command::Check};
  const auto second = engine.run(again, wan.traffic);
  ASSERT_EQ(second.outcomes.size(), 1u);
  EXPECT_EQ(second.outcomes[0].check->plan_seconds, 0.0);
  EXPECT_EQ(second.outcomes[0].check->consistent, oracle_consistent(wan, again.modify));
}

// The plan IR itself: obligations cover every (entry, class) combination in
// classifier order, and `touches` is exact about slot membership.
TEST(VerifyPlanIr, ObligationsAreOrderedAndSlotAware) {
  const auto wan = gen::make_wan(tiny_wan(77));
  Planner planner{wan.topo, wan.scope};
  const auto& plan = planner.plan(wan.traffic);

  ASSERT_GT(plan.size(), 0u);
  EXPECT_EQ(plan.stats().fec_count, plan.size());
  EXPECT_EQ(plan.stats().path_count, planner.paths().size());

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto& o = plan.obligations()[i];
    EXPECT_EQ(o.index, i);
    ASSERT_NE(o.fec, nullptr);
    // Feasible paths are ascending and genuinely feasible.
    for (std::size_t k = 1; k < o.paths.size(); ++k) EXPECT_LT(o.paths[k - 1], o.paths[k]);
    // Slots are exactly the union over the obligation's paths.
    for (const auto& slot : o.slots) {
      topo::AclUpdate touching;
      touching.emplace(slot, net::Acl::permit_all());
      EXPECT_TRUE(touches(o, touching));
    }
    topo::AclUpdate empty_update;
    EXPECT_FALSE(touches(o, empty_update));
  }

  // An update rewriting every bound slot touches exactly the obligations
  // with a bound slot on some feasible path (hops may carry unbound slots,
  // which no update can rewrite).
  topo::AclUpdate all;
  for (const auto slot : wan.topo.bound_slots()) all.emplace(slot, net::Acl::permit_all());
  EXPECT_EQ(plan.live_count(all, /*has_controls=*/false),
            static_cast<std::size_t>(
                std::count_if(plan.obligations().begin(), plan.obligations().end(),
                              [&](const Obligation& o) {
                                return std::any_of(o.slots.begin(), o.slots.end(), [&](auto slot) {
                                  return all.find(slot) != all.end();
                                });
                              })));
  // Control intents force every obligation live.
  EXPECT_EQ(plan.live_count(all, /*has_controls=*/true), plan.size());
}

}  // namespace
}  // namespace jinjing::core
