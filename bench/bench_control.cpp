// Figure 4d: generate under control open intents.
//
// Grid: {small, medium, large} x {1, 10, 100 opened prefixes per gateway
// device} (clamped to the gateway's protected-prefix budget; the "opened"
// counter reports the actual total).
//
// Expected shape (paper): AEC derivation costs slightly more than the
// migration case (the r models refine the classes); ACL generation costs
// much less (the optimizations compress the opened holes into few rules).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/generator.h"
#include "obs/stats.h"

namespace jinjing {
namespace {

void BM_ControlOpen(benchmark::State& state) {
  const auto& wan = bench::wan_for(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto scenario = gen::control_open(wan, k, static_cast<unsigned>(41 + k));

  core::GenerateResult last;
  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};
  for (auto _ : state) {
    core::GenerateOptions options;
    options.universe = wan.traffic;
    core::Generator generator{wan.topo, wan.scope, options};
    last = generator.generate(scenario.spec, scenario.intents);
    benchmark::DoNotOptimize(last);
  }
  state.counters["opened_prefixes"] = static_cast<double>(scenario.opened);
  state.counters["aecs"] = static_cast<double>(last.aec_count);
  state.counters["emitted_rules"] = static_cast<double>(last.synthesis.emitted_rules);
  state.counters["derive_ms"] = last.derive_seconds * 1e3;
  state.counters["solve_ms"] = last.solve_seconds * 1e3;
  state.counters["placement_nodes"] =
      static_cast<double>(registry.gauge(obs::Gauge::PlacementNodes));
  state.counters["synthesize_ms"] = last.synth_seconds * 1e3;
  state.counters["success"] = last.success ? 1 : 0;
  state.SetLabel(std::string(bench::size_name(state.range(0))) + "/open" +
                 std::to_string(state.range(1)));
}

BENCHMARK(BM_ControlOpen)
    ->ArgNames({"net", "prefixes_per_device"})
    ->ArgsProduct({{0, 1, 2}, {1, 10, 100}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace jinjing

BENCHMARK_MAIN();
