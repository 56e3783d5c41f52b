#include "core/checker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <type_traits>

#include "core/batch.h"
#include "gen/fixtures.h"
#include "gen/scenario.h"
#include "topo/paths.h"

namespace jinjing::core {
namespace {

using gen::Figure1;

// gtest prints a parameter without a printer as its raw bytes, and those bytes
// become part of each test's listed name. Naming the bytes after the bool keeps
// them zero; left as padding they would carry whatever the stack held, and the
// names would change from one process to the next.
struct CheckerModes {
  bool differential;
  std::uint8_t reserved[3]{};
  smt::EncoderStrategy encoder;
};
static_assert(std::has_unique_object_representations_v<CheckerModes>,
              "CheckerModes must have no padding bytes");

class CheckerAllModes : public ::testing::TestWithParam<CheckerModes> {
 protected:
  CheckOptions options() const {
    CheckOptions o;
    o.use_differential = GetParam().differential;
    o.encoder = GetParam().encoder;
    return o;
  }
};

TEST_P(CheckerAllModes, NoOpUpdateIsConsistent) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options()};
  const auto result = checker.check({}, f.traffic);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.fec_count, 5u);
  EXPECT_EQ(result.path_count, 4u);
  EXPECT_TRUE(result.violations.empty());
}

TEST_P(CheckerAllModes, RunningExampleIsInconsistent) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options()};
  const auto update = f.running_example_update();
  const auto result = checker.check(update, f.traffic);
  EXPECT_FALSE(result.consistent);
  ASSERT_FALSE(result.violations.empty());
  // The witness must belong to traffic 1 or 2 — the classes whose p0
  // reachability the update breaks.
  const auto& v = result.violations.front();
  EXPECT_TRUE(Figure1::traffic_class(1).contains(v.witness) ||
              Figure1::traffic_class(2).contains(v.witness))
      << to_string(v.witness);
  EXPECT_TRUE(v.decision_before);
  EXPECT_FALSE(v.decision_after);
}

TEST_P(CheckerAllModes, AllViolatedFecsFoundWithoutEarlyStop) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  auto o = options();
  o.stop_at_first = false;
  Checker checker{smt, f.topo, f.scope, o};
  const auto update = f.running_example_update();
  const auto result = checker.check(update, f.traffic);
  // Exactly the FECs {1} and {2,3} are broken (traffic 3 shares FEC with 2
  // but is not denied by the moved rules — the violation packet for that
  // FEC must be from 2.0.0.0/8).
  EXPECT_EQ(result.violations.size(), 2u);
}

TEST_P(CheckerAllModes, EquivalentRewriteIsConsistent) {
  // Splitting a /8 deny into two /9 denies changes the rules but not the
  // decision model: check must accept it.
  const auto f = gen::make_figure1();
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.D2, topo::Dir::In},
                 net::Acl::parse({"deny dst 1.0.0.0/9", "deny dst 1.128.0.0/9",
                                  "deny dst 2.0.0.0/8", "permit all"}));
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options()};
  EXPECT_TRUE(checker.check(update, f.traffic).consistent);
}

TEST_P(CheckerAllModes, SubPrefixPerturbationCaught) {
  // Narrowing D2's deny from 2/8 to 2.0/9 permits 2.128.0.0/9 on p2 — an
  // inconsistency strictly inside one traffic class.
  const auto f = gen::make_figure1();
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.D2, topo::Dir::In},
                 net::Acl::parse({"deny dst 1.0.0.0/8", "deny dst 2.0.0.0/9", "permit all"}));
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options()};
  const auto result = checker.check(update, f.traffic);
  ASSERT_FALSE(result.consistent);
  EXPECT_TRUE(net::parse_prefix("2.128.0.0/9").contains(result.violations[0].witness.dip));
}

TEST_P(CheckerAllModes, DeadRuleChangeOnUnroutedPathIsConsistent) {
  // D2's "deny 1/8" is dead in this network: traffic 1 is only routed on
  // p0, which avoids D2. Narrowing it must therefore pass the check.
  const auto f = gen::make_figure1();
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.D2, topo::Dir::In},
                 net::Acl::parse({"deny dst 1.0.0.0/9", "deny dst 2.0.0.0/8", "permit all"}));
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options()};
  EXPECT_TRUE(checker.check(update, f.traffic).consistent);
}

TEST_P(CheckerAllModes, ChangeOutsideEnteringTrafficIgnored) {
  // Denying 99.0.0.0/8 at A1 changes no decision for the traffic that
  // actually enters the scope (1-7/8).
  const auto f = gen::make_figure1();
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.A1, topo::Dir::In},
                 net::Acl::parse({"deny dst 99.0.0.0/8", "deny dst 6.0.0.0/8", "permit all"}));
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options()};
  EXPECT_TRUE(checker.check(update, f.traffic).consistent);
}

TEST_P(CheckerAllModes, ViolationsCarryBlame) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope, options()};
  const auto result = checker.check(f.running_example_update(), f.traffic);
  ASSERT_FALSE(result.consistent);
  const auto& v = result.violations.front();
  ASSERT_TRUE(v.changed_slot.has_value());
  // The flip happens at A1's new top denies.
  EXPECT_EQ(v.changed_slot->iface, f.A1);
  EXPECT_EQ(v.before_rule, "permit all");
  EXPECT_TRUE(v.after_rule == "deny dst 1.0.0.0/8" || v.after_rule == "deny dst 2.0.0.0/8")
      << v.after_rule;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CheckerAllModes,
    ::testing::Values(
        CheckerModes{.differential = true, .encoder = smt::EncoderStrategy::Tree},
        CheckerModes{.differential = true, .encoder = smt::EncoderStrategy::Sequential},
        CheckerModes{.differential = false, .encoder = smt::EncoderStrategy::Tree},
        CheckerModes{.differential = false, .encoder = smt::EncoderStrategy::Sequential}),
    [](const auto& info) {
      return std::string(info.param.differential ? "Diff" : "Basic") +
             (info.param.encoder == smt::EncoderStrategy::Tree ? "Tree" : "Seq");
    });

TEST(Checker, DifferentialUsesFewerOrEqualQueriesAndAgrees) {
  const auto f = gen::make_figure1();
  const auto update = f.running_example_update();

  smt::SmtContext smt_basic;
  CheckOptions basic;
  basic.use_differential = false;
  basic.stop_at_first = false;
  Checker basic_checker{smt_basic, f.topo, f.scope, basic};
  const auto basic_result = basic_checker.check(update, f.traffic);

  smt::SmtContext smt_diff;
  CheckOptions diff;
  diff.use_differential = true;
  diff.stop_at_first = false;
  Checker diff_checker{smt_diff, f.topo, f.scope, diff};
  const auto diff_result = diff_checker.check(update, f.traffic);

  EXPECT_EQ(basic_result.consistent, diff_result.consistent);
  EXPECT_EQ(basic_result.violations.size(), diff_result.violations.size());
}

TEST(Checker, FeasiblePathsMatchPaperExample) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope};
  // [2]_FEC = traffic {2,3} travels on p0 and p2 only (§4.1 example) plus
  // no path to C3.
  const auto fec2 = Figure1::traffic_class(2) | Figure1::traffic_class(3);
  const auto feasible = checker.feasible_paths(fec2);
  ASSERT_EQ(feasible.size(), 2u);
  for (const auto pi : feasible) {
    const auto name = to_string(f.topo, checker.paths()[pi]);
    EXPECT_TRUE(name == "<A:1, A:4, D:1, D:3>" ||
                name == "<A:1, A:2, B:1, B:2, C:2, C:4, D:2, D:3>")
        << name;
  }
}

TEST(DesiredDecision, ControlVerbsAndPriority) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope};
  const auto& paths = checker.paths();
  // Find <A:1, A:3, C:1, C:3>.
  std::size_t pi = paths.size();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (to_string(f.topo, paths[i]) == "<A:1, A:3, C:1, C:3>") pi = i;
  }
  ASSERT_LT(pi, paths.size());

  // "maintain dst 7/8" then "isolate all": 7/8 keeps its original decision,
  // everything else is denied (the paper's §6 priority example).
  lai::ControlIntent maintain7;
  maintain7.from = {f.A1};
  maintain7.to = {f.C3};
  maintain7.verb = lai::ControlVerb::Maintain;
  maintain7.header = Figure1::traffic_class(7);
  lai::ControlIntent isolate_all;
  isolate_all.from = {f.A1};
  isolate_all.to = {f.C3};
  isolate_all.verb = lai::ControlVerb::Isolate;
  isolate_all.header = net::PacketSet::all();
  const std::vector<lai::ControlIntent> controls = {maintain7, isolate_all};

  EXPECT_EQ(desired_decision(controls, paths[pi], Figure1::traffic_packet(7), true), true);
  EXPECT_EQ(desired_decision(controls, paths[pi], Figure1::traffic_packet(7), false), false);
  EXPECT_EQ(desired_decision(controls, paths[pi], Figure1::traffic_packet(5), true), false);

  // An intent that does not span the path is ignored.
  lai::ControlIntent other;
  other.from = {f.A1};
  other.to = {f.D3};
  other.verb = lai::ControlVerb::Isolate;
  other.header = net::PacketSet::all();
  EXPECT_EQ(desired_decision({other}, paths[pi], Figure1::traffic_packet(5), true), true);
}

TEST(Checker, ControlOpenDetectsUnsatisfiedIntent) {
  // Intent: open traffic 6 from A1 to C3. The no-op update leaves A1's
  // "deny 6/8" in place, so the desired reachability is violated.
  const auto f = gen::make_figure1();
  lai::ControlIntent open6;
  open6.from = {f.A1};
  open6.to = {f.C3};
  open6.verb = lai::ControlVerb::Open;
  open6.header = Figure1::traffic_class(6);

  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope};
  const auto result = checker.check({}, f.traffic, {open6});
  ASSERT_FALSE(result.consistent);
  EXPECT_TRUE(Figure1::traffic_class(6).contains(result.violations[0].witness));

  // An update that removes the deny satisfies the intent... but must not
  // break traffic 6's isolation on the D3 paths? Traffic 6 to D3 was denied
  // by A1 before; opening only A1->C3 while keeping A1->D3 intact is
  // impossible by changing A1 alone, so a correct update adds a deny on A4.
  topo::AclUpdate update;
  update.emplace(topo::AclSlot{f.A1, topo::Dir::In}, net::Acl::permit_all());
  update.emplace(topo::AclSlot{f.A4, topo::Dir::Out},
                 net::Acl::parse({"deny dst 6.0.0.0/8", "permit all"}));
  const auto fixed = checker.check(update, f.traffic, {open6});
  EXPECT_TRUE(fixed.consistent);
}


TEST(CheckerMonolithic, AgreesWithClassifiedVerdicts) {
  const auto f = gen::make_figure1();
  smt::SmtContext smt;
  Checker checker{smt, f.topo, f.scope};

  // No-op: consistent.
  EXPECT_TRUE(checker.check_monolithic({}, f.traffic).consistent);

  // Running example: inconsistent, with a genuine routable witness.
  const auto update = f.running_example_update();
  const auto result = checker.check_monolithic(update, f.traffic);
  ASSERT_FALSE(result.consistent);
  ASSERT_EQ(result.violations.size(), 1u);
  const auto& v = result.violations.front();
  const topo::ConfigView before{f.topo};
  const topo::ConfigView after{f.topo, &update};
  EXPECT_NE(topo::path_permits(before, checker.paths()[v.path_index], v.witness),
            topo::path_permits(after, checker.paths()[v.path_index], v.witness));

  // Equivalent rewrites stay consistent.
  topo::AclUpdate rewrite;
  rewrite.emplace(topo::AclSlot{f.D2, topo::Dir::In},
                  net::Acl::parse({"deny dst 1.0.0.0/9", "deny dst 1.128.0.0/9",
                                   "deny dst 2.0.0.0/8", "permit all"}));
  EXPECT_TRUE(checker.check_monolithic(rewrite, f.traffic).consistent);
}

// ---------------------------------------------------------------------------
// Randomized-WAN plan execution.

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

CheckResult run_check(const gen::Wan& wan, const topo::AclUpdate& update, bool stop_at_first) {
  smt::SmtContext smt;
  CheckOptions options;
  options.stop_at_first = stop_at_first;
  Checker checker{smt, wan.topo, wan.scope, options};
  return checker.check(update, wan.traffic);
}

// The SMT checker and the exact set scan execute the same plan: they agree
// on the verdict and on how many obligations are violated, the checker runs
// every obligation when it may not stop early, and every checker witness
// is genuine. (The name predates the removal of parallel execution, which
// this suite once compared with the sequential run.)
class PlanExecutionParity : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlanExecutionParity, ParallelMatchesSequential) {
  const auto wan = gen::make_wan(tiny_wan(800 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.05, GetParam());

  smt::SmtContext smt;
  CheckOptions options;
  options.stop_at_first = false;
  Checker checker{smt, wan.topo, wan.scope, options};
  const auto checked = checker.check(update, wan.traffic);
  const BatchAlgebra algebra = build_batch_algebra(wan.topo, checker.share_plan(wan.traffic));
  BatchRunOptions run;
  run.stop_at_first = false;
  const auto scanned =
      run_check_batch(wan.topo, algebra, {BatchItem{&update, {}, {}}}, run).front().result;

  EXPECT_EQ(checked.consistent, oracle_consistent(wan, update));
  EXPECT_EQ(scanned.consistent, checked.consistent);
  EXPECT_EQ(scanned.violations.size(), checked.violations.size());
  EXPECT_EQ(scanned.fec_count, checked.fec_count);
  EXPECT_EQ(scanned.obligation_count, checked.obligation_count);
  // Without early exit, the checker runs every obligation.
  EXPECT_EQ(checked.obligations_executed, checked.obligation_count);
  EXPECT_EQ(checked.obligations_cancelled, 0u);

  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  for (const auto& v : checked.violations) {
    const auto& path = checker.paths()[v.path_index];
    EXPECT_EQ(topo::path_permits(before, path, v.witness), v.decision_before);
    EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after);
    EXPECT_NE(v.decision_before, v.decision_after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanExecutionParity, ::testing::Range(1u, 6u));

// stop_at_first returns a deterministic first violation: repeated runs on
// fresh checkers yield the same witness on the same path, and the
// obligations after the first violated one count as cancelled. (The name
// predates the removal of the thread-count axis.)
class StopAtFirstDeterminism : public ::testing::TestWithParam<unsigned> {};

TEST_P(StopAtFirstDeterminism, WitnessIsStableAcrossRunsAndThreadCounts) {
  const auto wan = gen::make_wan(tiny_wan(900 + GetParam()));
  // Heavier perturbation: several violated obligations.
  const auto update = gen::perturb_rules(wan, 0.10, GetParam());
  if (oracle_consistent(wan, update)) GTEST_SKIP() << "perturbation happens to be consistent";

  std::optional<Violation> first;
  for (int run = 0; run < 4; ++run) {
    const auto result = run_check(wan, update, /*stop_at_first=*/true);
    ASSERT_FALSE(result.consistent);
    ASSERT_EQ(result.violations.size(), 1u);
    EXPECT_EQ(result.obligations_executed + result.obligations_cancelled,
              result.obligation_count);
    const auto& v = result.violations.front();
    if (!first) {
      first = v;
      continue;
    }
    EXPECT_EQ(v.witness, first->witness) << "run " << run;
    EXPECT_EQ(v.path_index, first->path_index) << "run " << run;
    EXPECT_EQ(v.decision_before, first->decision_before);
    EXPECT_EQ(v.decision_after, first->decision_after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StopAtFirstDeterminism, ::testing::Range(1u, 6u));

}  // namespace
}  // namespace jinjing::core
