#include "core/placement.h"

#include <gtest/gtest.h>

#include "gen/fixtures.h"

namespace jinjing::core {
namespace {

using gen::Figure1;

MigrationSpec figure1_migration(const gen::Figure1& f) {
  MigrationSpec spec;
  spec.sources = f.migration_sources();
  spec.targets = f.migration_targets();
  return spec;
}

/// The Table 3 classes in a fixed order: [1], [3], [6], [7].
std::vector<net::PacketSet> table3_classes() {
  return {
      Figure1::traffic_class(1) | Figure1::traffic_class(2),
      Figure1::traffic_class(3) | Figure1::traffic_class(4) | Figure1::traffic_class(5),
      Figure1::traffic_class(6),
      Figure1::traffic_class(7),
  };
}

TEST(Placement, Figure1MigrationMatchesTable4Decisions) {
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  PlacementSolver solver{planner};
  const auto result = solver.solve(figure1_migration(f), table3_classes());

  ASSERT_TRUE(result.success);
  // [3], [6], [7] solve at AEC level; [1] needs DECs (§5.3).
  EXPECT_EQ(result.aec_solutions.size(), 3u);
  ASSERT_TRUE(result.dec_solutions.contains(0));
  EXPECT_FALSE(result.aec_solutions.contains(0));

  const topo::AclSlot c1{f.C1, topo::Dir::In};
  const topo::AclSlot c2{f.C2, topo::Dir::In};
  const topo::AclSlot d1{f.D1, topo::Dir::In};

  // Table 4b row [3]: permit everywhere.
  const auto& sol3 = result.aec_solutions.at(1);
  EXPECT_TRUE(sol3.decision.at(c1));
  EXPECT_TRUE(sol3.decision.at(c2));
  EXPECT_TRUE(sol3.decision.at(d1));

  // §5.2: class [6] must be denied on all target interfaces.
  const auto& sol6 = result.aec_solutions.at(2);
  EXPECT_FALSE(sol6.decision.at(c1));
  EXPECT_FALSE(sol6.decision.at(c2));
  EXPECT_FALSE(sol6.decision.at(d1));

  // Table 4b row [7]: deny at C1, permit at C2 and D1.
  const auto& sol7 = result.aec_solutions.at(3);
  EXPECT_FALSE(sol7.decision.at(c1));
  EXPECT_TRUE(sol7.decision.at(c2));
  EXPECT_TRUE(sol7.decision.at(d1));

  // §5.3/§5.4: [1]_DEC permits everywhere; [2]_DEC is denied at C2.
  const auto& decs = result.dec_solutions.at(0);
  ASSERT_EQ(decs.size(), 2u);
  for (const auto& dec : decs) {
    EXPECT_TRUE(dec.dec_level);
    EXPECT_TRUE(dec.decision.at(d1));
    EXPECT_TRUE(dec.decision.at(c1));
    if (dec.cls.equals(Figure1::traffic_class(2))) {
      EXPECT_FALSE(dec.decision.at(c2)) << "[2]_DEC must be denied at C2";
    } else {
      ASSERT_TRUE(dec.cls.equals(Figure1::traffic_class(1)));
      EXPECT_TRUE(dec.decision.at(c2));
    }
  }
}

TEST(Placement, EmptyTargetsUnsolvableWhenChangeNeeded) {
  // Removing A1's ACL with no targets cannot preserve traffic 6 isolation.
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  PlacementSolver solver{planner};
  MigrationSpec spec;
  spec.sources = {topo::AclSlot{f.A1, topo::Dir::In}};
  const auto result = solver.solve(spec, {Figure1::traffic_class(6)});
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.unsolved.empty());
}

TEST(Placement, NoOpMigrationSolvesTrivially) {
  // No sources, no targets, classes already consistent: nothing to solve,
  // success with empty decisions.
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  PlacementSolver solver{planner};
  const auto result = solver.solve({}, table3_classes());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.aec_solutions.size(), 4u);
}

TEST(Placement, ControlOpenForcesPermitOnTargets) {
  // generate with control (§6): open traffic 6 from A1 to C3, with targets
  // on the egress side; A1's deny moves out of the way as a source.
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  PlacementSolver solver{planner};

  lai::ControlIntent open6;
  open6.from = {f.A1};
  open6.to = {f.C3};
  open6.verb = lai::ControlVerb::Open;
  open6.header = Figure1::traffic_class(6);

  MigrationSpec spec;
  spec.sources = {topo::AclSlot{f.A1, topo::Dir::In}};
  spec.targets = {topo::AclSlot{f.A3, topo::Dir::Out}, topo::AclSlot{f.A4, topo::Dir::Out},
                  topo::AclSlot{f.A2, topo::Dir::Out}};

  const auto result = solver.solve(spec, {Figure1::traffic_class(6)}, {open6});
  ASSERT_TRUE(result.success);
  // At AEC level Equation 10 ranges over the topological path p1 =
  // <A1,A3,C1,C4,D2,D3> too, which demands D(A3)=deny while the C3 path
  // demands D(A3)=permit — unsolvable, so the class drops to DEC level
  // (§5.3), where p1 is pruned as unroutable for traffic 6.
  EXPECT_TRUE(result.aec_solutions.empty());
  ASSERT_TRUE(result.dec_solutions.contains(0));
  const auto& decs = result.dec_solutions.at(0);
  ASSERT_EQ(decs.size(), 1u);
  const auto& sol = decs.front();
  // A3 (towards C3) must permit 6; A4 (towards D3) must deny to preserve
  // the original deny on p0.
  EXPECT_TRUE(sol.decision.at({f.A3, topo::Dir::Out}));
  EXPECT_FALSE(sol.decision.at({f.A4, topo::Dir::Out}));
}

// An expired probe interrupts the solve before the next class. (The name
// predates the removal of the parallel class fan-out it once compared.)
TEST(Placement, ParallelSolveMatchesSequentialAndPollsProbes) {
  const auto f = gen::make_figure1();
  const Planner planner{f.topo, f.scope};
  const PlacementSolver solver{planner};
  const auto spec = figure1_migration(f);
  StopProbes expired;
  expired.expired = [] { return true; };
  try {
    (void)solver.solve(spec, table3_classes(), {}, expired);
    ADD_FAILURE() << "solve ran past an expired deadline";
  } catch (const Interrupted& e) {
    EXPECT_TRUE(e.deadline());
  }

  // A probe that fires only after the first class still stops the rest.
  int polls = 0;
  StopProbes cancelled;
  cancelled.cancelled = [&polls] { return ++polls > 1; };
  try {
    (void)solver.solve(spec, table3_classes(), {}, cancelled);
    ADD_FAILURE() << "solve ran past a cancellation";
  } catch (const Interrupted& e) {
    EXPECT_FALSE(e.deadline());
  }
  EXPECT_EQ(polls, 2);
}

}  // namespace
}  // namespace jinjing::core
