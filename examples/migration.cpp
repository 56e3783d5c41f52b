// ACL migration (§5): move the ACLs off interfaces A1 and D2 of the
// Figure 1 network and regenerate equivalent ACLs at C1, C2 and D1 —
// reproducing Table 3 (ACL equivalence classes) and Table 4 (sequence
// encoding + synthesized ACLs) along the way.
#include <iostream>

#include "core/aec.h"
#include "core/generator.h"
#include "gen/fixtures.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace {

using namespace jinjing;

/// Human name of a traffic class within the Figure 1 universe.
std::string class_name(const net::PacketSet& cls) {
  std::string name;
  for (int k = 1; k <= 7; ++k) {
    if (cls.intersects(gen::Figure1::traffic_class(k))) {
      if (!name.empty()) name += ",";
      name += std::to_string(k);
    }
  }
  return "{" + name + "}";
}

}  // namespace

int main() {
  const auto f = gen::make_figure1();

  std::cout << "=== ACL migration on the Figure 1 network (paper §5) ===\n\n";
  std::cout << "Task: clear ACLs at A1, D2; generate new ACLs at C1, C2, D1,\n"
               "preserving packet reachability.\n\n";

  // Table 3: the ACL equivalence classes.
  const topo::ConfigView view{f.topo};
  const auto classes =
      core::acl_equivalence_classes(view, f.topo.bound_slots(), f.traffic);
  std::cout << "ACL equivalence classes (Table 3):\n";
  for (const auto& cls : classes) {
    std::cout << "  traffic " << class_name(cls) << ":";
    for (const auto slot : f.topo.bound_slots()) {
      const bool permit = net::permitted_set(f.topo.acl(slot)).contains(cls);
      std::cout << "  " << f.topo.qualified_name(slot.iface) << "="
                << (permit ? "permit" : "deny");
    }
    std::cout << "\n";
  }

  // Run generate.
  core::GenerateOptions options;
  options.universe = f.traffic;
  core::Generator generator{f.topo, f.scope, options};
  core::MigrationSpec spec;
  spec.sources = f.migration_sources();
  spec.targets = f.migration_targets();
  const auto result = generator.generate(spec);

  std::cout << "\ngenerate: " << (result.success ? "success" : "FAILED") << "\n";
  std::cout << "  AECs: " << result.aec_count << " (" << result.aec_solved
            << " solved directly, " << result.dec_count
            << " dataplane equivalence classes for the rest)\n";
  std::cout << "  sequence-encoding rows: " << result.synthesis.row_count
            << ", emitted rules: " << result.synthesis.emitted_rules << "\n";

  std::cout << "\nSynthesized ACLs (cf. Table 4b):\n";
  for (const auto slot : spec.targets) {
    std::cout << "  " << f.topo.qualified_name(slot.iface) << "-in:\n";
    for (const auto& rule : result.update.at(slot).rules()) {
      std::cout << "    " << net::to_string(rule) << "\n";
    }
  }

  // Validate: every routed path keeps its exact permitted set.
  const topo::ConfigView after{f.topo, &result.update};
  bool valid = true;
  for (const auto& path : topo::enumerate_paths(f.topo, f.scope)) {
    const auto carried = topo::forwarding_set(f.topo, path) & f.traffic;
    if (carried.is_empty()) continue;
    const bool same = (topo::path_permitted_set(view, path) & carried)
                          .equals(topo::path_permitted_set(after, path) & carried);
    std::cout << (same ? "  [ok]   " : "  [FAIL] ") << topo::to_string(f.topo, path) << "\n";
    valid = valid && same;
  }
  std::cout << (valid ? "\nmigration preserves reachability on every path\n"
                      : "\nmigration is INVALID\n");
  return valid && result.success ? 0 : 1;
}
