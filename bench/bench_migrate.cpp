// Figure 4c: generate for the common ACL migration — move all ACLs from
// the middle (aggregation) layer to the lower (gateway) layer.
//
// Grid: {small, medium, large} x {unoptimized, optimized (§5.5)}.
// Counters expose the paper's phase breakdown (derive AECs / solve /
// generate) and the synthesized ACL length the optimizations shrink.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/generator.h"
#include "obs/stats.h"

namespace jinjing {
namespace {

void BM_Migrate(benchmark::State& state) {
  const auto& wan = bench::wan_for(state.range(0));
  const bool optimized = state.range(1) != 0;
  const auto spec = gen::migration_spec(wan);

  core::GenerateResult last;
  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};
  for (auto _ : state) {
    core::GenerateOptions options;
    options.universe = wan.traffic;
    options.synthesis.group_rules = optimized;
    options.synthesis.minimize_rules = optimized;
    options.synthesis.use_search_tree = optimized;
    core::Planner planner{wan.topo, wan.scope};
    core::Generator generator{planner, options};
    last = generator.generate(spec);
    benchmark::DoNotOptimize(last);
  }
  state.counters["aecs"] = static_cast<double>(last.aec_count);
  state.counters["decs"] = static_cast<double>(last.dec_count);
  state.counters["emitted_rules"] = static_cast<double>(last.synthesis.emitted_rules);
  state.counters["derive_ms"] = last.derive_seconds * 1e3;
  state.counters["solve_ms"] = last.solve_seconds * 1e3;
  state.counters["placement_nodes"] =
      static_cast<double>(registry.gauge(obs::Gauge::PlacementNodes));
  state.counters["synthesize_ms"] = last.synth_seconds * 1e3;
  state.counters["success"] = last.success ? 1 : 0;
  state.SetLabel(std::string(bench::size_name(state.range(0))) + "/" +
                 (optimized ? "optimized" : "basic"));
}

BENCHMARK(BM_Migrate)
    ->ArgNames({"net", "optimized"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace jinjing

BENCHMARK_MAIN();
