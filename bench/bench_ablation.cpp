// §9 ablations: where Jinjing's speed comes from.
//
//  * Decision-model encoding — sequential (O(n) DPLL depth) vs the
//    tournament tree (O(log n)); the "decisions" counter is the paper's
//    recursive-call proxy.
//  * Rule grouping — the §5.5 claim of a ~98.6% drop in sequence-encoding
//    items per interface.
//  * ACL search tree — overlap tests with and without the interval index.
//  * Simplification — cost and yield of the §4.2 redundant-rule removal.
#include <benchmark/benchmark.h>

#include <random>

#include "bench_common.h"
#include "core/checker.h"
#include "core/simplify.h"
#include "core/synth_opt.h"
#include "net/acl_algebra.h"
#include "smt/acl_encoder.h"

namespace jinjing {
namespace {

/// A long ACL with prefix-structured rules (the §9 "largest ACL" shape).
net::Acl long_acl(std::size_t rules, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> octet2(0, 255);
  std::uniform_int_distribution<int> octet3(0, 255);
  std::uniform_int_distribution<int> action(0, 1);
  std::vector<net::AclRule> out;
  for (std::size_t i = 0; i + 1 < rules; ++i) {
    net::Match m = net::Match::dst_prefix(
        net::Prefix{net::Ipv4{10, static_cast<std::uint8_t>(octet2(rng)),
                              static_cast<std::uint8_t>(octet3(rng)), 0},
                    24});
    out.push_back({action(rng) ? net::Action::Permit : net::Action::Deny, m});
  }
  out.push_back(net::AclRule::permit_all());
  return net::Acl{out};
}

void BM_EncoderStrategy(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  const bool tree = state.range(1) != 0;
  const auto acl = long_acl(rules, 5);
  const auto other = long_acl(rules, 6);

  std::uint64_t decisions = 0;
  for (auto _ : state) {
    // Equivalence query between two long ACLs — the hardest single-ACL
    // query check issues.
    smt::SmtContext smt;
    const auto h = smt.packet_vars();
    auto solver = smt.make_solver();
    const auto strategy = tree ? smt::EncoderStrategy::Tree : smt::EncoderStrategy::Sequential;
    solver.add(smt::acl_permits(h, acl, strategy) != smt::acl_permits(h, other, strategy));
    benchmark::DoNotOptimize(smt.solve_for_packet(solver, h));
    decisions = smt.statistic("decisions");
  }
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["z3_decisions"] = static_cast<double>(decisions);
  state.SetLabel(tree ? "tree" : "sequential");
}

BENCHMARK(BM_EncoderStrategy)
    ->ArgNames({"rules", "tree"})
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// §1 / §9: one monolithic Minesweeper-style formula vs Algorithm 1's
// per-class delta queries (both with whole-ACL encodings, to isolate the
// effect of the classification itself).
void BM_MonolithicVsClassified(benchmark::State& state) {
  const auto& wan = bench::wan_for(state.range(0));
  const bool monolithic = state.range(1) != 0;
  const auto update = gen::perturb_rules(wan, 0.03, 91);

  std::uint64_t queries = 0;
  bool consistent = true;
  for (auto _ : state) {
    smt::SmtContext smt;
    core::CheckOptions options;
    options.use_differential = false;  // isolate classification, not Thm 4.1
    core::Checker checker{smt, wan.topo, wan.scope, options};
    const auto result = monolithic ? checker.check_monolithic(update, wan.traffic)
                                   : checker.check(update, wan.traffic);
    benchmark::DoNotOptimize(result);
    queries = result.smt_queries;
    consistent = result.consistent;
  }
  state.counters["smt_queries"] = static_cast<double>(queries);
  state.counters["consistent"] = consistent ? 1 : 0;
  state.SetLabel(std::string(bench::size_name(state.range(0))) +
                 (monolithic ? "/monolithic" : "/per-class"));
}

BENCHMARK(BM_MonolithicVsClassified)
    ->ArgNames({"net", "monolithic"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_Grouping(benchmark::State& state) {
  const auto& wan = bench::wan_for(state.range(0));
  const bool grouped = state.range(1) != 0;

  std::size_t items = 0;
  for (auto _ : state) {
    items = 0;
    for (const auto slot : wan.topo.bound_slots()) {
      const auto groups = grouped ? core::group_rules(wan.topo.acl(slot), true)
                                  : core::singleton_groups(wan.topo.acl(slot));
      items += groups.size();
      benchmark::DoNotOptimize(groups);
    }
  }
  state.counters["items_per_interface"] =
      static_cast<double>(items) / static_cast<double>(wan.topo.bound_slots().size());
  state.SetLabel(std::string(bench::size_name(state.range(0))) +
                 (grouped ? "/grouped" : "/per-rule"));
}

BENCHMARK(BM_Grouping)
    ->ArgNames({"net", "grouped"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(5);

void BM_SearchTree(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  const bool use_tree = state.range(1) != 0;
  const auto big = net::permitted_set(long_acl(rules, 11));
  // Probes: one /24 slice per rule-ish region.
  std::vector<net::PacketSet> probes;
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> octet(0, 255);
  for (int i = 0; i < 64; ++i) {
    net::HyperCube cube;
    cube.set_interval(net::Field::DstIp,
                      net::Prefix{net::Ipv4{10, static_cast<std::uint8_t>(octet(rng)),
                                            static_cast<std::uint8_t>(octet(rng)), 0},
                                  24}
                          .interval());
    probes.emplace_back(cube);
  }

  for (auto _ : state) {
    std::size_t hits = 0;
    if (use_tree) {
      const core::DstIntervalIndex index{big};
      for (const auto& probe : probes) hits += index.intersects(probe);
    } else {
      for (const auto& probe : probes) hits += big.intersects(probe);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["set_cubes"] = static_cast<double>(big.cube_count());
  state.SetLabel(use_tree ? "interval-tree" : "linear");
}

BENCHMARK(BM_SearchTree)
    ->ArgNames({"rules", "tree"})
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(5);

void BM_Simplify(benchmark::State& state) {
  const auto rules = static_cast<std::size_t>(state.range(0));
  const auto acl = long_acl(rules, 21);
  std::size_t removed = 0;
  for (auto _ : state) {
    const auto simplified = core::simplify(acl);
    benchmark::DoNotOptimize(simplified);
    removed = acl.size() - simplified.size();
  }
  state.counters["rules_removed"] = static_cast<double>(removed);
  state.counters["rules_in"] = static_cast<double>(rules);
}

BENCHMARK(BM_Simplify)
    ->ArgNames({"rules"})
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace jinjing

BENCHMARK_MAIN();
