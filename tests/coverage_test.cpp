// Focused coverage for paths not exercised elsewhere: enumeration options,
// engine option plumbing, SMT statistics, interval-tree queries, staged
// deployment at WAN scale.
#include <gtest/gtest.h>

#include "config/acl_format.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "core/synth_opt.h"
#include "gen/fixtures.h"
#include "gen/scenario.h"
#include "net/acl_algebra.h"
#include "smt/acl_encoder.h"
#include "topo/paths.h"
#include "topo/rib.h"

namespace jinjing {
namespace {

TEST(PathEnumOptions, PruneUnroutableDropsDeadPaths) {
  // A diamond where one branch carries nothing.
  topo::Topology t;
  const auto a = t.add_device("A");
  const auto b = t.add_device("B");
  const auto a1 = t.add_interface(a, "1");
  const auto a2 = t.add_interface(a, "2");
  const auto a3 = t.add_interface(a, "3");
  const auto b1 = t.add_interface(b, "1");
  const auto b2 = t.add_interface(b, "2");
  const auto b3 = t.add_interface(b, "3");
  t.mark_external(a1);
  t.mark_external(b3);
  t.add_edge(a1, a2, net::PacketSet::all());
  t.add_edge(a1, a3, net::PacketSet::empty());  // dead branch
  t.add_edge(a2, b1, net::PacketSet::all());
  t.add_edge(a3, b2, net::PacketSet::all());
  t.add_edge(b1, b3, net::PacketSet::all());
  t.add_edge(b2, b3, net::PacketSet::all());

  const auto scope = topo::Scope::whole_network(t);
  EXPECT_EQ(topo::enumerate_paths(t, scope).size(), 2u);
  topo::PathEnumOptions prune;
  prune.prune_unroutable = true;
  EXPECT_EQ(topo::enumerate_paths(t, scope, prune).size(), 1u);
}

TEST(EngineOptions, PlumbedThroughToPrimitives) {
  const auto f = gen::make_figure1();
  core::EngineOptions options;
  options.plan.per_entry_fec = false;
  options.fix.simplify_result = false;
  core::Engine engine{f.topo, options};

  lai::AclLibrary lib;
  lib.emplace("A1p", net::Acl::parse({"deny dst 1.0.0.0/8", "deny dst 2.0.0.0/8",
                                      "deny dst 6.0.0.0/8", "permit all"}));
  lib.emplace("A3p", net::Acl::parse({"deny dst 7.0.0.0/8", "permit all"}));
  lib.emplace("permit_all", net::Acl::permit_all());
  const auto report = engine.run_program(R"(
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify A:1-in to A1p, A:3-out to A3p, C:1-in to permit_all, D:2-in to permit_all
check
fix
check
)",
                                         lib, f.traffic);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_FALSE(report.outcomes[0].check->consistent);
  EXPECT_TRUE(report.success());
  // Without simplification the fixed A1 keeps its shadowed rules.
  const auto& a1 = report.final_update.at({f.A1, topo::Dir::In});
  EXPECT_GT(a1.size(), 2u);
  EXPECT_TRUE(net::equivalent(a1, net::Acl::parse({"deny dst 6.0.0.0/8", "permit all"})));
}

TEST(SmtStatistics, AccumulateAcrossQueries) {
  smt::SmtContext smt;
  const auto h = smt.packet_vars();
  auto solver = smt.make_solver();
  solver.add(smt::acl_permits(h, net::Acl::parse({"deny dst 1.0.0.0/8", "permit all"})));
  (void)smt.solve_for_packet(solver, h);
  EXPECT_EQ(smt.query_count(), 1u);
  EXPECT_GE(smt.solve_seconds(), 0.0);
  // Unknown keys read as zero.
  EXPECT_EQ(smt.statistic("no-such-statistic"), 0u);
}

TEST(DstIntervalIndexDirect, CandidatesRespectIntervals) {
  std::vector<net::HyperCube> cubes;
  for (const char* p : {"1.0.0.0/8", "2.0.0.0/8", "128.0.0.0/9"}) {
    net::HyperCube c;
    c.set_interval(net::Field::DstIp, net::parse_prefix(p).interval());
    cubes.push_back(c);
  }
  const core::DstIntervalIndex index{cubes};
  EXPECT_EQ(index.candidates(net::parse_prefix("1.2.0.0/16").interval()).size(), 1u);
  EXPECT_EQ(index.candidates(net::parse_prefix("0.0.0.0/0").interval()).size(), 3u);
  EXPECT_TRUE(index.candidates(net::parse_prefix("3.0.0.0/8").interval()).empty());
  // Empty index.
  const core::DstIntervalIndex empty{std::vector<net::HyperCube>{}};
  EXPECT_TRUE(empty.candidates(net::Interval::full(32)).empty());
  EXPECT_FALSE(empty.intersects(net::PacketSet::all()));
}

TEST(StagedDeployAtWanScale, RelocationPlanIsTransientSafe) {
  // Stage the (repaired) scenario-2 relocation on the small WAN and verify
  // the availability bound on every intermediate state of the phase-ordered
  // push sequence.
  const auto wan = gen::make_wan(gen::small_wan());
  const auto update = gen::ingress_to_egress_update(wan);
  const auto steps = core::staged_plan(wan.topo, update, core::StagingMode::AvailabilityFirst);
  ASSERT_FALSE(steps.empty());

  topo::AclUpdate state;
  for (std::size_t pushed = 0; pushed <= steps.size(); ++pushed) {
    if (pushed > 0) state.insert_or_assign(steps[pushed - 1].slot, steps[pushed - 1].acl);
    const topo::ConfigView current{wan.topo, &state};
    for (const auto& [slot, after] : update) {
      const auto now = net::permitted_set(current.acl(slot));
      const auto lo = net::permitted_set(wan.topo.acl(slot)) & net::permitted_set(after);
      EXPECT_TRUE(now.contains(lo)) << "push " << pushed;
    }
  }
}

TEST(IosPrinter, EmitsQualifiersAndWildcards) {
  const auto acl = net::Acl::parse(
      {"deny src 10.0.0.0/8 dst 1.2.3.4 sport 1000-2000 dport 80 proto udp"});
  const auto text = config::print_acl_ios(acl, 150);
  EXPECT_NE(text.find("access-list 150 deny udp"), std::string::npos) << text;
  EXPECT_NE(text.find("10.0.0.0 0.255.255.255 range 1000 2000"), std::string::npos);
  EXPECT_NE(text.find("host 1.2.3.4 eq 80"), std::string::npos);
}

TEST(RibInstall, SkipsSelfLoopsAndEmptyPredicates) {
  topo::Topology t;
  const auto b = t.add_device("B");
  const auto b1 = t.add_interface(b, "1");
  const auto b2 = t.add_interface(b, "2");
  topo::Rib rib;
  rib.add(net::parse_prefix("1.0.0.0/8"), b2);
  rib.add(net::parse_prefix("1.0.0.0/8"), b1);  // ECMP incl. the ingress itself
  topo::install_rib(t, {b1}, rib);
  for (const auto& edge : t.edges()) {
    EXPECT_NE(edge.from, edge.to);
  }
}

}  // namespace
}  // namespace jinjing
