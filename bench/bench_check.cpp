// Figure 4a: turnaround time of the check primitive — plus the cache
// comparison for the repeated-check workload.
//
// Two modes:
//
//  * With any --benchmark* flag: the google-benchmark grid
//    {small, medium, large} x {1%, 3%, 5% perturbed rules} x
//    {basic version, differential rules (Theorem 4.1)}. Expected shape
//    (paper): differential is about an order of magnitude faster than
//    basic; turnaround is insensitive to the perturbation rate because
//    check returns at the first violation.
//
//  * Without flags (the default): a fixer-style repeated-check workload
//    on the medium WAN — one update proposal plus a stream of perturbed
//    candidate repairs, all checked against the same scope/traffic — run
//    once per pipeline configuration and written to BENCH_check.json:
//
//      - hypercube_seed:   a fresh checker per candidate (refinement
//                          re-derived and the session solver rebuilt for
//                          every check)
//      - hypercube_cached: one checker across the stream (plan cache and
//                          session solver reused)
//
//    Per configuration: wall seconds, FEC count, SMT queries, solver
//    seconds, and the plan cache's hits, misses and hit rate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/checker.h"
#include "core/diff.h"
#include "obs/stats.h"
#include "topo/fec_delta.h"

namespace jinjing {
namespace {

void BM_Check(benchmark::State& state) {
  const auto& wan = bench::wan_for(state.range(0));
  const double fraction = static_cast<double>(state.range(1)) / 100.0;
  const bool differential = state.range(2) != 0;

  const auto update =
      gen::perturb_rules(wan, fraction, static_cast<unsigned>(17 * state.range(1) + 1));

  std::size_t fecs = 0;
  std::uint64_t queries = 0;
  bool consistent = true;
  for (auto _ : state) {
    smt::SmtContext smt;
    core::CheckOptions options;
    options.use_differential = differential;
    core::Checker checker{smt, wan.topo, wan.scope, options};
    const auto result = checker.check(update, wan.traffic);
    benchmark::DoNotOptimize(result);
    fecs = result.fec_count;
    queries = result.smt_queries;
    consistent = result.consistent;
  }
  state.counters["fecs"] = static_cast<double>(fecs);
  state.counters["smt_queries"] = static_cast<double>(queries);
  state.counters["consistent"] = consistent ? 1 : 0;
  state.SetLabel(std::string(bench::size_name(state.range(0))) + "/" +
                 std::to_string(state.range(1)) + "pct/" +
                 (differential ? "differential" : "basic"));
}

BENCHMARK(BM_Check)
    ->ArgNames({"net", "perturb_pct", "differential"})
    ->ArgsProduct({{0, 1, 2}, {1, 3, 5}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

struct PipelineConfig {
  const char* name;
  bool reuse_checker;  // false = seed behaviour: fresh checker (and cache) per check
};

struct PipelineResult {
  std::string name;
  double wall_seconds = 0;
  std::size_t fec_count = 0;
  std::uint64_t smt_queries = 0;
  double solve_seconds = 0;
  // Pipeline-stage breakdown, summed over the candidate stream.
  double plan_seconds = 0;
  double compile_seconds = 0;
  double execute_seconds = 0;
  // Plan cache: checks served from a plan already built (plan_seconds 0).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0;
  std::size_t checks = 0;
  std::size_t inconsistent = 0;
};

/// The fixer/synthesizer shape: one proposed update plus a stream of
/// perturbed candidate repairs, every candidate re-checked against the
/// same scope and entering traffic.
PipelineResult run_pipeline(const gen::Wan& wan, const std::vector<topo::AclUpdate>& candidates,
                            const PipelineConfig& config) {
  PipelineResult result;
  result.name = config.name;

  smt::SmtContext smt;
  core::Checker reused{smt, wan.topo, wan.scope};

  const auto start = std::chrono::steady_clock::now();
  for (const auto& update : candidates) {
    core::CheckResult check;
    if (config.reuse_checker) {
      check = reused.check(update, wan.traffic);
    } else {
      smt::SmtContext fresh_smt;
      core::Checker fresh{fresh_smt, wan.topo, wan.scope};
      check = fresh.check(update, wan.traffic);
      result.smt_queries += check.smt_queries;
      result.solve_seconds += fresh_smt.solve_seconds();
    }
    result.fec_count = check.fec_count;
    result.plan_seconds += check.plan_seconds;
    result.compile_seconds += check.compile_seconds;
    result.execute_seconds += check.execute_seconds;
    if (check.plan_seconds == 0) {
      ++result.cache_hits;
    } else {
      ++result.cache_misses;
    }
    ++result.checks;
    if (!check.consistent) ++result.inconsistent;
  }
  result.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                            .count();
  if (config.reuse_checker) {
    result.smt_queries = smt.query_count();
    result.solve_seconds = smt.solve_seconds();
  }
  result.cache_hit_rate =
      static_cast<double>(result.cache_hits) / static_cast<double>(result.checks);
  return result;
}

/// The versioned-churn workload: N small applies land one after another,
/// and after each the serving partition must cover the new version. The
/// delta path re-splits only atoms meeting the apply's pooled differential
/// (topo::refine_delta chained across versions); the seed path re-derives
/// the whole partition from the growing predicate list. Both are exact, so
/// the partitions are asserted identical before timing is trusted.
struct ChurnResult {
  std::size_t versions = 0;
  std::size_t base_predicates = 0;
  std::size_t final_atoms = 0;
  double delta_seconds = 0;
  double scratch_seconds = 0;
  double speedup = 0;
  std::uint64_t reused_atoms = 0;
  std::uint64_t split_atoms = 0;
  bool identical = true;
};

ChurnResult run_churn_refinement(const gen::Wan& wan, std::size_t versions) {
  ChurnResult result;
  result.versions = versions;

  // The base partition: the scope's forwarding predicates, as the checker's
  // from-scratch refinement sees them at version 1.
  std::vector<net::PacketSet> base_preds;
  for (const auto& edge : wan.topo.edges()) {
    if (wan.scope.contains_interface(wan.topo, edge.from) &&
        wan.scope.contains_interface(wan.topo, edge.to)) {
      base_preds.push_back(edge.predicate);
    }
  }
  result.base_predicates = base_preds.size();

  // Each version's changed predicates: the pooled Definition 4.1
  // differential of a small perturbation, one packet-set per diff rule —
  // the same shape IncrementalPlanner::record_apply pools per apply.
  const topo::ConfigView before_view{wan.topo};
  std::vector<std::vector<net::PacketSet>> per_version;
  for (std::size_t v = 0; v < versions; ++v) {
    const auto update = gen::perturb_rules(wan, 0.01, static_cast<unsigned>(300 + v));
    topo::Topology applied = wan.topo;
    std::vector<topo::AclSlot> slots;
    for (const auto& [slot, acl] : update) {
      applied.bind_acl(slot, acl);
      slots.push_back(slot);
    }
    const topo::ConfigView after_view{applied};
    std::vector<net::PacketSet> changed;
    for (const auto& rule : core::scope_differential(before_view, after_view, slots)) {
      changed.push_back(net::PacketSet{rule.match.cube()});
    }
    if (changed.empty()) changed.push_back(net::PacketSet::empty());
    per_version.push_back(std::move(changed));
  }

  const auto base = topo::refine_into_atoms(wan.traffic, base_preds);

  // Delta path: chain refine_delta across the versions.
  std::vector<net::PacketSet> delta_atoms = base;
  {
    const auto start = std::chrono::steady_clock::now();
    for (const auto& changed : per_version) {
      auto step = topo::refine_delta(delta_atoms, changed);
      result.reused_atoms += step.reused;
      result.split_atoms += step.split;
      delta_atoms = std::move(step.atoms);
    }
    result.delta_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  // Seed path: every version re-refines from scratch over the full list.
  std::vector<net::PacketSet> scratch_atoms;
  {
    auto predicates = base_preds;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& changed : per_version) {
      predicates.insert(predicates.end(), changed.begin(), changed.end());
      scratch_atoms = topo::refine_into_atoms(wan.traffic, predicates);
    }
    result.scratch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  result.final_atoms = delta_atoms.size();
  result.identical = delta_atoms.size() == scratch_atoms.size();
  for (std::size_t i = 0; result.identical && i < delta_atoms.size(); ++i) {
    result.identical = delta_atoms[i].cubes() == scratch_atoms[i].cubes();
  }
  result.speedup =
      result.delta_seconds > 0 ? result.scratch_seconds / result.delta_seconds : 0;
  return result;
}

/// All counter totals of `registry`, indexed by obs::Counter.
std::vector<std::uint64_t> snapshot_counters(const obs::StatsRegistry& registry) {
  std::vector<std::uint64_t> totals(obs::kCounterCount);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    totals[i] = registry.total(static_cast<obs::Counter>(i));
  }
  return totals;
}

/// `{"name": delta, ...}` for the counters that moved between snapshots.
std::string counters_delta_json(const std::vector<std::uint64_t>& before,
                                const std::vector<std::uint64_t>& after) {
  std::string out = "{";
  bool first = true;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const std::uint64_t delta = after[i] - before[i];
    if (delta == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += std::string(obs::to_string(static_cast<obs::Counter>(i)));
    out += "\": ";
    out += std::to_string(delta);
  }
  out += "}";
  return out;
}

int run_repeated_check_comparison(const char* json_path, const char* trace_path) {
  const auto& wan = bench::wan_for(1);  // medium
  std::fprintf(stderr, "repeated-check workload: medium WAN, %zu total rules\n",
               gen::total_rules(wan));

  // One "proposal" plus perturbed candidate repairs, as a fixer loop sees.
  std::vector<topo::AclUpdate> candidates;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    candidates.push_back(gen::perturb_rules(wan, 0.03, seed));
  }

  const PipelineConfig configs[] = {
      {"hypercube_seed", false},
      {"hypercube_cached", true},
  };

  // Observability overhead: the cached-pipeline workload with no registry
  // installed (the hot loops take the single disabled branch) versus the
  // same workload with every counter, histogram and span live. One warmup
  // run then interleaved min-of-3 keeps scheduler noise out of the delta.
  (void)run_pipeline(wan, candidates, configs[1]);
  double disabled_seconds = 0;
  double enabled_seconds = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double disabled = run_pipeline(wan, candidates, configs[1]).wall_seconds;
    if (rep == 0 || disabled < disabled_seconds) disabled_seconds = disabled;
    obs::StatsRegistry overhead_registry;
    const obs::ScopedRegistry overhead_installed{overhead_registry};
    const double enabled = run_pipeline(wan, candidates, configs[1]).wall_seconds;
    if (rep == 0 || enabled < enabled_seconds) enabled_seconds = enabled;
  }
  const double overhead_pct =
      disabled_seconds > 0 ? (enabled_seconds - disabled_seconds) / disabled_seconds * 100.0
                           : 0.0;
  std::fprintf(stderr, "  observability overhead: disabled %.3fs, enabled %.3fs (%+.2f%%)\n",
               disabled_seconds, enabled_seconds, overhead_pct);

  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};

  std::vector<PipelineResult> results;
  std::vector<std::string> config_counters;
  for (const auto& config : configs) {
    const auto before = snapshot_counters(registry);
    results.push_back(run_pipeline(wan, candidates, config));
    config_counters.push_back(counters_delta_json(before, snapshot_counters(registry)));
    const auto& r = results.back();
    std::fprintf(stderr,
                 "  %-17s %7.3fs  fecs=%zu  smt_queries=%llu  solve=%.3fs  hit_rate=%.2f\n",
                 r.name.c_str(), r.wall_seconds, r.fec_count,
                 static_cast<unsigned long long>(r.smt_queries), r.solve_seconds,
                 r.cache_hit_rate);
  }

  const auto churn = run_churn_refinement(wan, 8);
  std::fprintf(stderr,
               "  churn x%zu: delta %.3fs, scratch %.3fs, speedup %.2fx, "
               "reused=%llu split=%llu identical=%d\n",
               churn.versions, churn.delta_seconds, churn.scratch_seconds, churn.speedup,
               static_cast<unsigned long long>(churn.reused_atoms),
               static_cast<unsigned long long>(churn.split_atoms), churn.identical ? 1 : 0);

  const double baseline = results.front().wall_seconds;
  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"workload\": \"repeated_check\",\n  \"network\": \"medium\",\n");
  std::fprintf(out, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(out, "  \"candidates\": %zu,\n  \"perturb_fraction\": 0.03,\n", candidates.size());
  std::fprintf(out, "  \"configurations\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"wall_seconds\": %.6f, \"fec_count\": %zu, "
                 "\"smt_queries\": %llu, \"solve_seconds\": %.6f, \"plan_seconds\": %.6f, "
                 "\"compile_seconds\": %.6f, \"execute_seconds\": %.6f, \"cache_hits\": %llu, "
                 "\"cache_misses\": %llu, \"cache_hit_rate\": %.4f, \"checks\": %zu, "
                 "\"inconsistent\": %zu, \"speedup_vs_seed\": %.2f, \"counters\": %s}%s\n",
                 r.name.c_str(), r.wall_seconds, r.fec_count,
                 static_cast<unsigned long long>(r.smt_queries), r.solve_seconds, r.plan_seconds,
                 r.compile_seconds, r.execute_seconds,
                 static_cast<unsigned long long>(r.cache_hits),
                 static_cast<unsigned long long>(r.cache_misses), r.cache_hit_rate, r.checks,
                 r.inconsistent, r.wall_seconds > 0 ? baseline / r.wall_seconds : 0.0,
                 config_counters[i].c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"churn_refinement\": {\"versions\": %zu, \"base_predicates\": %zu, "
               "\"final_atoms\": %zu, \"delta_seconds\": %.6f, \"scratch_seconds\": %.6f, "
               "\"speedup\": %.2f, \"reused_atoms\": %llu, \"split_atoms\": %llu, "
               "\"identical\": %s},\n",
               churn.versions, churn.base_predicates, churn.final_atoms, churn.delta_seconds,
               churn.scratch_seconds, churn.speedup,
               static_cast<unsigned long long>(churn.reused_atoms),
               static_cast<unsigned long long>(churn.split_atoms),
               churn.identical ? "true" : "false");
  std::fprintf(out,
               "  \"observability\": {\"disabled_seconds\": %.6f, \"enabled_seconds\": %.6f, "
               "\"overhead_pct\": %.2f}\n}\n",
               disabled_seconds, enabled_seconds, overhead_pct);
  std::fclose(out);
  std::fprintf(stderr, "wrote %s (hypercube_cached speedup vs seed: %.2fx)\n", json_path,
               baseline / results.back().wall_seconds);

  if (trace_path != nullptr) {
    std::ofstream trace_file{trace_path};
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s\n", trace_path);
      return 1;
    }
    registry.write_chrome_trace(trace_file);
    trace_file.flush();
    if (!trace_file) {
      std::fprintf(stderr, "error while writing %s\n", trace_path);
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", trace_path);
  }
  return 0;
}

}  // namespace
}  // namespace jinjing

int main(int argc, char** argv) {
  // Any --benchmark* flag selects the google-benchmark grid; the bare
  // invocation runs the cache comparison and writes JSON.
  bool run_gbench = false;
  const char* json_path = "BENCH_check.json";
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--benchmark", 0) == 0) run_gbench = true;
    if (arg.rfind("--json=", 0) == 0) json_path = argv[i] + 7;
    if (arg.rfind("--trace=", 0) == 0) trace_path = argv[i] + 8;
  }
  if (!run_gbench) return jinjing::run_repeated_check_comparison(json_path, trace_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
