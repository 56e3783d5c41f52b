// Quickstart: the paper's running example (§3.2, Figure 1 + Figure 3).
//
// An operator wants to clean up the ACLs on routers C and D by moving their
// deny rules onto router A. The update looks reasonable — and silently
// breaks reachability for two traffic classes. Jinjing's check finds the
// violation, fix synthesizes the repair, and the repaired plan re-checks
// clean.
#include <iostream>

#include "core/checker.h"
#include "core/engine.h"
#include "gen/fixtures.h"
#include "lai/parser.h"
#include "net/acl_algebra.h"
#include "lai/printer.h"
#include "topo/paths.h"

namespace {

constexpr const char* kProgram = R"(# Figure 3: the operator's intent
scope A:*, B:*, C:*, D:*
allow A:*, B:*
modify A:1-in to A1_new, A:3-out to A3_new, C:1-in to permit_all, D:2-in to permit_all
check
fix
)";

}  // namespace

int main() {
  using namespace jinjing;

  const auto f = gen::make_figure1();

  std::cout << "=== Jinjing quickstart: the Figure 1 network ===\n\n";
  std::cout << "Devices: A, B, C, D. Traffic k means 'dst k.0.0.0/8'.\n";
  std::cout << "Paths through the scope:\n";
  for (const auto& path : topo::enumerate_paths(f.topo, f.scope)) {
    std::cout << "  " << topo::to_string(f.topo, path) << "\n";
  }

  std::cout << "\nOriginal ACLs:\n";
  for (const auto slot : f.topo.bound_slots()) {
    std::cout << "  " << f.topo.qualified_name(slot.iface) << "-"
              << topo::to_string(slot.dir) << ":\n";
    for (const auto& rule : f.topo.acl(slot).rules()) {
      std::cout << "    " << net::to_string(rule) << "\n";
    }
  }

  // The proposed (buggy) update, expressed as named ACLs + an LAI program.
  lai::AclLibrary library;
  library.emplace("A1_new", net::Acl::parse({"deny dst 1.0.0.0/8", "deny dst 2.0.0.0/8",
                                             "deny dst 6.0.0.0/8", "permit all"}));
  library.emplace("A3_new", net::Acl::parse({"deny dst 7.0.0.0/8", "permit all"}));
  library.emplace("permit_all", net::Acl::permit_all());

  std::cout << "\nLAI program:\n" << kProgram << "\n";

  core::Engine engine{f.topo};
  const auto report = engine.run_program(kProgram, library, f.traffic);

  const auto& check = *report.outcomes[0].check;
  std::cout << "check: " << (check.consistent ? "consistent" : "INCONSISTENT") << " ("
            << check.fec_count << " forwarding equivalence classes, " << check.path_count
            << " paths, " << check.smt_queries << " SMT queries)\n";
  const auto paths = topo::enumerate_paths(f.topo, f.scope);
  for (const auto& v : check.violations) {
    std::cout << "  violation: packet " << net::to_string(v.witness) << " on "
              << topo::to_string(f.topo, paths[v.path_index]) << " was "
              << (v.decision_before ? "permitted" : "denied") << ", now "
              << (v.decision_after ? "permitted" : "denied") << "\n";
    if (v.changed_slot) {
      std::cout << "    because " << f.topo.qualified_name(v.changed_slot->iface) << "-"
                << topo::to_string(v.changed_slot->dir) << " decided by '" << v.before_rule
                << "' before, '" << v.after_rule << "' after\n";
    }
  }

  const auto& fix = *report.outcomes[1].fix;
  std::cout << "fix: " << (fix.success ? "repaired" : "FAILED") << ", "
            << fix.neighborhoods.size() << " violating neighborhoods\n";
  for (const auto& n : fix.neighborhoods) {
    std::cout << "  neighborhood: packets matching '"
              << net::to_string(net::matches_for_cube(n.set.cubes().front()).front()) << "'\n";
  }
  std::cout << "fixing plan:\n";
  for (const auto& action : fix.actions) {
    for (const auto& rule : action.rules) {
      std::cout << "  " << f.topo.qualified_name(action.slot.iface) << "-"
                << topo::to_string(action.slot.dir) << ": prepend '" << net::to_string(rule)
                << "'\n";
    }
  }

  std::cout << "\nFinal (simplified) ACLs to deploy:\n";
  for (const auto& [slot, acl] : report.final_update) {
    std::cout << "  " << f.topo.qualified_name(slot.iface) << "-" << topo::to_string(slot.dir)
              << ":\n";
    if (acl.empty()) std::cout << "    (no rules — " << net::to_string(acl.default_action())
                               << " all)\n";
    for (const auto& rule : acl.rules()) std::cout << "    " << net::to_string(rule) << "\n";
  }

  // Re-verify the deployable plan.
  smt::SmtContext smt;
  core::Checker checker{smt, f.topo, f.scope};
  const bool clean = checker.check(report.final_update, f.traffic).consistent;
  std::cout << "\nre-check of the repaired plan: " << (clean ? "consistent" : "INCONSISTENT")
            << "\n";
  return clean ? 0 : 1;
}
