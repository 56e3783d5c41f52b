// §7 Scenarios 2 and 3 at WAN scale, on the synthetic layered WAN.
//
// Scenario 2 — hidden complexities in moving ACLs from ingress to egress:
//   relocating every gateway's ingress ACL to its host-side egress silently
//   blocks intra-cell peer traffic that only crosses the egress interfaces.
//   check flags it within the run; fix produces the offset plan.
//
// Scenario 3 — migrating ACLs out of a layer of routers: all aggregation-
//   layer ACLs move down to the gateways so the middle layer can be
//   reassigned (the paper's PE-router conversion), via generate.
#include <chrono>
#include <iostream>

#include "core/checker.h"
#include "core/fixer.h"
#include "core/generator.h"
#include "gen/scenario.h"
#include "topo/paths.h"

namespace {

using namespace jinjing;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main() {
  const auto wan = gen::make_wan(gen::medium_wan());
  std::cout << "=== WAN upgrade on the synthetic medium WAN ===\n";
  std::cout << "devices: " << wan.topo.device_count() << " (" << wan.cores.size() << " core, "
            << wan.aggs.size() << " aggregation, " << wan.gateways.size() << " gateway), "
            << gen::total_rules(wan) << " ACL rules\n\n";

  // ---- Scenario 2: ingress -> egress relocation. -------------------------
  std::cout << "--- Scenario 2: relocate gateway ACLs from ingress to egress ---\n";
  const auto relocation = gen::ingress_to_egress_update(wan);

  auto t0 = std::chrono::steady_clock::now();
  smt::SmtContext smt_check;
  core::CheckOptions check_options;
  check_options.stop_at_first = false;
  core::Checker checker{smt_check, wan.topo, wan.scope, check_options};
  const auto check = checker.check(relocation, wan.traffic);
  std::cout << "check: " << (check.consistent ? "consistent" : "INCONSISTENT") << ", "
            << check.violations.size() << " violated classes of " << check.fec_count
            << ", in " << seconds_since(t0) << "s\n";
  if (!check.violations.empty()) {
    const auto& v = check.violations.front();
    std::cout << "  e.g. " << net::to_string(v.witness) << " (intra-cell peer traffic)\n";
  }

  t0 = std::chrono::steady_clock::now();
  core::Planner planner{wan.topo, wan.scope};
  core::Fixer fixer{planner};
  const auto fix = fixer.fix(relocation, wan.traffic, gen::gateway_layer_allow(wan));
  std::size_t fix_rules = 0;
  for (const auto& a : fix.actions) fix_rules += a.rules.size();
  std::cout << "fix: " << (fix.success ? "repaired" : "FAILED") << ", "
            << fix.neighborhoods.size() << " neighborhoods, " << fix_rules
            << " fixing rules on " << fix.actions.size() << " interfaces, in "
            << seconds_since(t0) << "s\n";

  smt::SmtContext smt_recheck;
  core::Checker rechecker{smt_recheck, wan.topo, wan.scope};
  const bool fixed_ok = rechecker.check(fix.fixed_update, wan.traffic).consistent;
  std::cout << "re-check: " << (fixed_ok ? "consistent" : "INCONSISTENT") << "\n\n";

  // ---- Scenario 3: migrate the middle layer's ACLs. ----------------------
  std::cout << "--- Scenario 3: migrate all aggregation-layer ACLs to the gateways ---\n";
  t0 = std::chrono::steady_clock::now();
  core::GenerateOptions gen_options;
  gen_options.universe = wan.traffic;
  core::Generator generator{planner, gen_options};  // the fix's planner: same scope
  const auto migration = generator.generate(gen::migration_spec(wan));
  std::cout << "generate: " << (migration.success ? "success" : "FAILED") << " in "
            << seconds_since(t0) << "s\n";
  std::cout << "  phases: derive " << migration.derive_seconds << "s (" << migration.aec_count
            << " AECs), solve " << migration.solve_seconds << "s (" << migration.dec_count
            << " DECs), synthesize " << migration.synth_seconds << "s ("
            << migration.synthesis.emitted_rules << " rules)\n";

  // Validate the migration exactly.
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &migration.update};
  bool preserved = true;
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    preserved = preserved && (topo::path_permitted_set(before, path) & carried)
                                 .equals(topo::path_permitted_set(after, path) & carried);
  }
  std::cout << "  reachability preserved on every routed path: " << (preserved ? "yes" : "NO")
            << "\n";

  const bool ok = fixed_ok && fix.success && migration.success && preserved;
  std::cout << "\n" << (ok ? "WAN upgrade plans are safe to deploy" : "FAILURE") << "\n";
  return ok ? 0 : 1;
}
