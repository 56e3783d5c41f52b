#include "core/synthesizer.h"

#include <gtest/gtest.h>

#include "core/generator.h"
#include "gen/fixtures.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace jinjing::core {
namespace {

using gen::Figure1;

MigrationSpec figure1_migration(const gen::Figure1& f) {
  MigrationSpec spec;
  spec.sources = f.migration_sources();
  spec.targets = f.migration_targets();
  return spec;
}

/// Validity oracle: after applying the generated update, every path's
/// decision on every traffic class is unchanged (exact, set-based).
void expect_reachability_preserved(const gen::Figure1& f, const topo::AclUpdate& update) {
  const topo::ConfigView before{f.topo};
  const topo::ConfigView after{f.topo, &update};
  for (const auto& path : topo::enumerate_paths(f.topo, f.scope)) {
    const auto carried = topo::forwarding_set(f.topo, path) & f.traffic;
    if (carried.is_empty()) continue;
    const auto before_permitted = topo::path_permitted_set(before, path) & carried;
    const auto after_permitted = topo::path_permitted_set(after, path) & carried;
    EXPECT_TRUE(before_permitted.equals(after_permitted))
        << "reachability changed on " << to_string(f.topo, path);
  }
}

class SynthesizerAllOptions : public ::testing::TestWithParam<SynthesisOptions> {};

TEST_P(SynthesizerAllOptions, Figure1MigrationPreservesReachability) {
  const auto f = gen::make_figure1();
  GenerateOptions options;
  options.synthesis = GetParam();
  Planner planner{f.topo, f.scope};
  Generator generator{planner, options};
  const auto result = generator.generate(figure1_migration(f));
  ASSERT_TRUE(result.success);
  expect_reachability_preserved(f, result.update);
}

INSTANTIATE_TEST_SUITE_P(
    Options, SynthesizerAllOptions,
    ::testing::Values(SynthesisOptions{true, true, true}, SynthesisOptions{false, false, false},
                      SynthesisOptions{true, false, true}, SynthesisOptions{false, true, false},
                      SynthesisOptions{true, true, false}),
    [](const auto& info) {
      return std::string(info.param.group_rules ? "Grp" : "NoGrp") +
             (info.param.minimize_rules ? "Min" : "NoMin") +
             (info.param.use_search_tree ? "Tree" : "NoTree");
    });

TEST(Synthesizer, Table4SynthesizedC1) {
  // Table 4b + §5.4: C1 = deny 6/8, deny 7/8, permit 1/8, permit 2/8,
  // permit all — equivalently (after the §5.5 cover) deny 6/8, deny 7/8,
  // permit all.
  const auto f = gen::make_figure1();
  GenerateOptions options;
  options.universe = f.traffic;
  Planner planner{f.topo, f.scope};
  Generator generator{planner, options};
  const auto result = generator.generate(figure1_migration(f));
  ASSERT_TRUE(result.success);

  const auto& c1 = result.update.at({f.C1, topo::Dir::In});
  const auto paper_c1 = net::Acl::parse(
      {"deny dst 6.0.0.0/8", "deny dst 7.0.0.0/8", "permit dst 1.0.0.0/8",
       "permit dst 2.0.0.0/8", "permit all"});
  EXPECT_TRUE(net::equivalent_on(c1, paper_c1, f.traffic))
      << to_string(c1);
}

TEST(Synthesizer, Table4SynthesizedC2HasDecInsertion) {
  // §5.4 step 4: C2 denies [2]_DEC — the paper's final C2 is
  // "deny 6/8, permit 7/8, permit 1/8, deny 2/8, permit 2/8, permit all"
  // (the deny 2/8 inserted above the partial permit).
  const auto f = gen::make_figure1();
  GenerateOptions options;
  options.universe = f.traffic;
  Planner planner{f.topo, f.scope};
  Generator generator{planner, options};
  const auto result = generator.generate(figure1_migration(f));
  ASSERT_TRUE(result.success);

  const auto& c2 = result.update.at({f.C2, topo::Dir::In});
  const auto paper_c2 = net::Acl::parse({"deny dst 6.0.0.0/8", "permit dst 7.0.0.0/8",
                                         "permit dst 1.0.0.0/8", "deny dst 2.0.0.0/8",
                                         "permit dst 2.0.0.0/8", "permit all"});
  EXPECT_TRUE(net::equivalent_on(c2, paper_c2, f.traffic)) << to_string(c2);
  // Concretely: 2.x denied, 1.x/7.x permitted, 6.x denied.
  EXPECT_FALSE(c2.permits(Figure1::traffic_packet(2)));
  EXPECT_FALSE(c2.permits(Figure1::traffic_packet(6)));
  EXPECT_TRUE(c2.permits(Figure1::traffic_packet(1)));
  EXPECT_TRUE(c2.permits(Figure1::traffic_packet(7)));
}

TEST(Synthesizer, Table4SynthesizedD1) {
  // D1 column of Table 4b: deny only [6].
  const auto f = gen::make_figure1();
  GenerateOptions options;
  options.universe = f.traffic;
  Planner planner{f.topo, f.scope};
  Generator generator{planner, options};
  const auto result = generator.generate(figure1_migration(f));
  ASSERT_TRUE(result.success);

  const auto& d1 = result.update.at({f.D1, topo::Dir::In});
  EXPECT_FALSE(d1.permits(Figure1::traffic_packet(6)));
  for (const int k : {1, 2, 3, 4, 5, 7}) {
    EXPECT_TRUE(d1.permits(Figure1::traffic_packet(k))) << k;
  }
}

TEST(Synthesizer, SourcesBecomePermitAll) {
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Generator generator{planner};
  const auto result = generator.generate(figure1_migration(f));
  for (const auto slot : f.migration_sources()) {
    const auto& acl = result.update.at(slot);
    EXPECT_TRUE(net::permitted_set(acl).equals(net::PacketSet::all()));
  }
}

TEST(Synthesizer, MinimizeRulesShrinksOutput) {
  const auto f = gen::make_figure1();

  const auto run = [&](bool minimize) {
    GenerateOptions options;
    options.universe = f.traffic;
    options.synthesis.minimize_rules = minimize;
    Planner planner{f.topo, f.scope};
    Generator generator{planner, options};
    return generator.generate(figure1_migration(f));
  };
  const auto full = run(false);
  const auto minimized = run(true);
  ASSERT_TRUE(full.success);
  ASSERT_TRUE(minimized.success);
  EXPECT_LT(minimized.synthesis.emitted_rules, full.synthesis.emitted_rules);
}

TEST(Synthesizer, GroupingShrinksRowCount) {
  const auto f = gen::make_figure1();
  const auto run = [&](bool group) {
    GenerateOptions options;
    options.synthesis.group_rules = group;
    Planner planner{f.topo, f.scope};
    Generator generator{planner, options};
    return generator.generate(figure1_migration(f));
  };
  EXPECT_LE(run(true).synthesis.row_count, run(false).synthesis.row_count);
}

TEST(Synthesizer, GenerateReportsPhaseBreakdown) {
  const auto f = gen::make_figure1();
  Planner planner{f.topo, f.scope};
  Generator generator{planner};
  const auto result = generator.generate(figure1_migration(f));
  EXPECT_EQ(result.aec_count, 4u);
  EXPECT_EQ(result.aec_solved, 3u);
  EXPECT_EQ(result.dec_count, 2u);
  EXPECT_EQ(result.unsolved, 0u);
  // Placement counts: three AECs placed directly, the fourth through its
  // two DECs, none left without a decision function.
  EXPECT_EQ(result.aec_solved + result.dec_count - result.unsolved, 5u);
  EXPECT_GE(result.derive_seconds, 0.0);
  EXPECT_GE(result.solve_seconds, 0.0);
}

TEST(SynthOpt, GroupingMergesFigure1D2Denies) {
  // §5.5: on D2, "deny 1/8" and "deny 2/8" group into one item.
  const auto acl = net::Acl::parse(
      {"deny dst 1.0.0.0/8", "deny dst 2.0.0.0/8", "permit all"});
  const auto groups = group_rules(acl, true);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[0].action, net::Action::Deny);
}

TEST(SynthOpt, AggressiveGroupingBubblesPastNonOverlapping) {
  // deny 1/8, permit 9/9, deny 2/8: the second deny commutes with the
  // non-overlapping permit and joins the first group.
  const auto acl = net::Acl::parse(
      {"deny dst 1.0.0.0/8", "permit dst 9.0.0.0/8", "deny dst 2.0.0.0/8"});
  EXPECT_EQ(group_rules(acl, true).size(), 2u);
  EXPECT_EQ(group_rules(acl, false).size(), 3u);
}

TEST(SynthOpt, GroupingBlockedByOverlap) {
  // deny 1/8, permit 1.2/16, deny 1.2.3/24: no merging possible.
  const auto acl = net::Acl::parse(
      {"deny dst 1.0.0.0/8", "permit dst 1.2.0.0/16", "deny dst 1.2.3.0/24"});
  EXPECT_EQ(group_rules(acl, true).size(), 3u);
}

TEST(SynthOpt, DstIntervalIndexAgreesWithLinearScan) {
  const auto set = net::permitted_set(net::Acl::parse(
      {"deny dst 1.0.0.0/8", "deny dst 3.0.0.0/8", "deny dst 200.0.0.0/7", "permit all"}));
  const DstIntervalIndex index{set};
  for (const char* probe : {"0.0.0.0/8", "1.0.0.0/8", "1.128.0.0/9", "3.5.0.0/16",
                            "200.0.0.0/8", "201.0.0.0/8", "202.0.0.0/8", "0.0.0.0/0"}) {
    net::HyperCube cube;
    cube.set_interval(net::Field::DstIp, net::parse_prefix(probe).interval());
    const net::PacketSet query{cube};
    EXPECT_EQ(index.intersects(query), set.intersects(query)) << probe;
  }
}

TEST(SynthOpt, MinimizeRowsPreservesTable4bSemantics) {
  // Build the C1 column of Table 4b literally and check the greedy cover
  // emits the denies before the covering permit-all.
  std::vector<SynthRow> rows;
  const auto dst = [](int k) {
    net::HyperCube c;
    c.set_interval(net::Field::DstIp,
                   net::parse_prefix(std::to_string(k) + ".0.0.0/8").interval());
    return net::PacketSet{c};
  };
  rows.push_back({{1, 2, 3}, 1, dst(6), net::Action::Deny});
  rows.push_back({{2, 1, 3}, 1, dst(7), net::Action::Deny});
  rows.push_back({{2, 2, 1}, 1, dst(1), net::Action::Permit});
  rows.push_back({{2, 2, 2}, 1, dst(2), net::Action::Permit});
  rows.push_back({{2, 2, 3}, 1, net::PacketSet::all(), net::Action::Permit});

  const auto emitted = minimize_rows(rows);
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(emitted[0].action, net::Action::Deny);
  EXPECT_EQ(emitted[1].action, net::Action::Deny);
  EXPECT_EQ(emitted[2].action, net::Action::Permit);
  EXPECT_TRUE(emitted[2].set.equals(net::PacketSet::all()));
}

}  // namespace
}  // namespace jinjing::core
