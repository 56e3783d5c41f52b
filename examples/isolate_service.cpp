// §7 Scenario 1: isolating a service area.
//
// A new service S is assigned 1.2.0.0/16. Operators must isolate traffic
// between S and gateway R3 (which fronts a private subnet), in both
// directions, by generating ACLs on the ingress interfaces of R1, R2 and
// R3 — without touching anything else. Adding a plain deny on R3 by hand
// risks side effects on the un-recycled address space behind R3; Jinjing
// generates a plan that provably has none.
#include <iostream>

#include "core/engine.h"
#include "lai/printer.h"
#include "net/acl_algebra.h"
#include "topo/paths.h"

namespace {

using namespace jinjing;

/// The Scenario 1 triangle: service side -> R1/R2 -> R3 -> private subnet,
/// and the reverse direction R3 -> R1/R2 -> service side.
struct Scenario1 {
  topo::Topology topo;
  topo::Scope scope;
  net::PacketSet traffic;
};

Scenario1 build() {
  Scenario1 s;
  auto& t = s.topo;
  const auto r1 = t.add_device("R1");
  const auto r2 = t.add_device("R2");
  const auto r3 = t.add_device("R3");

  // Forward direction: service-facing entries on R1/R2, exit at R3.
  const auto r1_svc = t.add_interface(r1, "svc");
  const auto r1_dn = t.add_interface(r1, "dn");
  const auto r2_svc = t.add_interface(r2, "svc");
  const auto r2_dn = t.add_interface(r2, "dn");
  const auto r3_u1 = t.add_interface(r3, "u1");
  const auto r3_u2 = t.add_interface(r3, "u2");
  const auto r3_sub = t.add_interface(r3, "sub");
  // Reverse direction: subnet entry on R3, exits toward the service.
  const auto r3_in = t.add_interface(r3, "in");
  const auto r3_b1 = t.add_interface(r3, "b1");
  const auto r3_b2 = t.add_interface(r3, "b2");
  const auto r1_up = t.add_interface(r1, "up");
  const auto r1_out = t.add_interface(r1, "out");
  const auto r2_up = t.add_interface(r2, "up");
  const auto r2_out = t.add_interface(r2, "out");

  for (const auto i : {r1_svc, r2_svc, r3_sub, r3_in, r1_out, r2_out}) t.mark_external(i);

  // The private subnet behind R3 is 9.0.0.0/8; the service is 1.2.0.0/16.
  net::HyperCube to_subnet;
  to_subnet.set_interval(net::Field::DstIp, net::parse_prefix("9.0.0.0/8").interval());
  const net::PacketSet down{to_subnet};
  net::HyperCube to_service;
  to_service.set_interval(net::Field::DstIp, net::parse_prefix("1.0.0.0/8").interval());
  const net::PacketSet up{to_service};

  t.add_edge(r1_svc, r1_dn, down);
  t.add_edge(r2_svc, r2_dn, down);
  t.add_edge(r1_dn, r3_u1, down);
  t.add_edge(r2_dn, r3_u2, down);
  t.add_edge(r3_u1, r3_sub, down);
  t.add_edge(r3_u2, r3_sub, down);

  t.add_edge(r3_in, r3_b1, up);
  t.add_edge(r3_in, r3_b2, up);
  t.add_edge(r3_b1, r1_up, up);
  t.add_edge(r3_b2, r2_up, up);
  t.add_edge(r1_up, r1_out, up);
  t.add_edge(r2_up, r2_out, up);

  s.scope = topo::Scope::whole_network(t);
  s.traffic = down | up;
  return s;
}

constexpr const char* kProgram = R"(scope R1:*, R2:*, R3:*
allow R1:*-in, R2:*-in, R3:*-in
control R1:svc, R2:svc -> R3:sub isolate from 1.2.0.0/16
control R3:in -> R1:out, R2:out isolate to 1.2.0.0/16
generate
)";

}  // namespace

int main() {
  auto s = build();

  std::cout << "=== Scenario 1: isolating service 1.2.0.0/16 from gateway R3 ===\n\n";
  std::cout << "LAI program:\n" << kProgram << "\n";

  core::Engine engine{s.topo};
  const auto report = engine.run_program(kProgram, {}, s.traffic);
  const auto& gen_result = *report.outcomes[0].generate;

  std::cout << "generate: " << (gen_result.success ? "success" : "FAILED") << " ("
            << gen_result.aec_count << " AECs, " << gen_result.dec_count << " DECs)\n\n";
  std::cout << "Generated plan:\n";
  for (const auto& [slot, acl] : report.final_update) {
    if (acl.empty()) continue;
    std::cout << "  " << s.topo.qualified_name(slot.iface) << "-" << topo::to_string(slot.dir)
              << ":\n";
    for (const auto& rule : acl.rules()) std::cout << "    " << net::to_string(rule) << "\n";
  }

  // Verify the isolation concretely.
  const topo::ConfigView after{s.topo, &report.final_update};
  net::Packet service_to_subnet;
  service_to_subnet.sip = net::parse_ipv4("1.2.3.4");
  service_to_subnet.dip = net::parse_ipv4("9.0.0.1");
  net::Packet other_to_subnet;
  other_to_subnet.sip = net::parse_ipv4("8.8.8.8");
  other_to_subnet.dip = net::parse_ipv4("9.0.0.1");
  net::Packet subnet_to_service;
  subnet_to_service.sip = net::parse_ipv4("9.0.0.1");
  subnet_to_service.dip = net::parse_ipv4("1.2.3.4");
  net::Packet subnet_to_other;
  subnet_to_other.sip = net::parse_ipv4("9.0.0.1");
  subnet_to_other.dip = net::parse_ipv4("1.99.0.1");

  bool ok = true;
  for (const auto& path : topo::enumerate_paths(s.topo, s.scope)) {
    const auto fwd = topo::forwarding_set(s.topo, path);
    const auto probe = [&](const net::Packet& p, bool want, const char* what) {
      if (!fwd.contains(p)) return;
      const bool got = topo::path_permits(after, path, p);
      std::cout << "  " << what << " on " << topo::to_string(s.topo, path) << ": "
                << (got ? "permitted" : "denied") << (got == want ? "" : "  <-- WRONG") << "\n";
      ok = ok && got == want;
    };
    probe(service_to_subnet, false, "service->subnet ");
    probe(other_to_subnet, true, "other->subnet   ");
    probe(subnet_to_service, false, "subnet->service ");
    probe(subnet_to_other, true, "subnet->other   ");
  }
  std::cout << (ok ? "\nisolation verified, no side effects\n" : "\nPLAN IS WRONG\n");
  return ok && report.success() ? 0 : 1;
}
