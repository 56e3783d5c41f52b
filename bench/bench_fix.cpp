// Figure 4b: turnaround time of the fix primitive.
//
// Grid: {small, medium, large} x {1%, 3%, 5% perturbed rules}. The paper's
// second axis, unoptimized vs optimized SMT lowering (basic check and
// sequential encoding vs differential rules and the tree decision model),
// no longer applies: fix finds its violations by set algebra and places its
// repairs with the exact placement kernel, and issues no SMT query.
// `placement_nodes` is the largest branch-and-bound node count of one
// placement solve.
//
// Expected shape (paper): fixing time grows with the perturbation rate
// (more violations to repair); check + fix stays within interactive
// budgets.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/fixer.h"
#include "obs/stats.h"

namespace jinjing {
namespace {

void BM_Fix(benchmark::State& state) {
  const auto& wan = bench::wan_for(state.range(0));
  const double fraction = static_cast<double>(state.range(1)) / 100.0;

  const auto update =
      gen::perturb_rules(wan, fraction, static_cast<unsigned>(29 * state.range(1) + 3));
  const auto allowed = wan.topo.bound_slots();

  std::size_t neighborhoods = 0;
  std::size_t actions = 0;
  core::FixResult last;
  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};
  for (auto _ : state) {
    core::Planner planner{wan.topo, wan.scope};
    core::Fixer fixer{planner};
    last = fixer.fix(update, wan.traffic, allowed);
    benchmark::DoNotOptimize(last);
    neighborhoods = last.neighborhoods.size();
    actions = last.actions.size();
  }
  state.counters["neighborhoods"] = static_cast<double>(neighborhoods);
  state.counters["touched_slots"] = static_cast<double>(actions);
  state.counters["placement_nodes"] =
      static_cast<double>(registry.gauge(obs::Gauge::PlacementNodes));
  state.counters["search_ms"] = last.search_seconds * 1e3;
  state.counters["enlarge_ms"] = last.enlarge_seconds * 1e3;
  state.counters["place_ms"] = last.place_seconds * 1e3;
  state.counters["assemble_ms"] = last.assemble_seconds * 1e3;
  // Output size: rules prepended, and how much the touched ACLs grew
  // against the proposed update once simplified (negative = they shrank).
  const topo::ConfigView proposed{wan.topo, &update};
  double prepended = 0;
  double net_added = 0;
  for (const auto& action : last.actions) {
    prepended += static_cast<double>(action.rules.size());
    net_added += static_cast<double>(last.fixed_update.at(action.slot).size()) -
                 static_cast<double>(proposed.acl(action.slot).size());
  }
  state.counters["rules_prepended"] = prepended;
  state.counters["rules_net_added"] = net_added;
  state.SetLabel(std::string(bench::size_name(state.range(0))) + "/" +
                 std::to_string(state.range(1)) + "pct");
}

BENCHMARK(BM_Fix)
    ->ArgNames({"net", "perturb_pct"})
    ->ArgsProduct({{0, 1, 2}, {1, 3, 5}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace jinjing

BENCHMARK_MAIN();
