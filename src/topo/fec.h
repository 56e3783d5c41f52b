// Forwarding equivalence classes (§4.1, Equation 2).
//
// Two packets are forwarding-equivalent when every forwarding predicate
// g ∈ G_Ω treats them identically. The FECs of the traffic entering Ω are
// the atoms of {g_{i,j}} restricted to that traffic, computed exactly by
// successive packet-set refinement.
//
// Refinement runs on the exact hypercube representation (net::PacketSet,
// unions of disjoint hypercubes), the same one every other stage uses.
#pragma once

#include <vector>

#include "topo/topology.h"

namespace jinjing::topo {

/// Splits `entering` (the traffic X_Ω from the IP management system) into
/// forwarding equivalence classes w.r.t. all in-scope edge predicates.
/// The result is a disjoint partition of `entering`; empty classes are
/// dropped. Deterministic order.
[[nodiscard]] std::vector<net::PacketSet> forwarding_equivalence_classes(
    const Topology& topo, const Scope& scope, const net::PacketSet& entering);

/// Generic atom refinement: partitions `universe` so every predicate in
/// `predicates` is constant on each part. The reference partition for the
/// tests and bench_check; the derivations do not call it: FEC and DEC
/// classes refine through the same kernel over borrowed edge predicates,
/// and AEC classes come from core::overlay_atoms.
[[nodiscard]] std::vector<net::PacketSet> refine_into_atoms(
    const net::PacketSet& universe, const std::vector<net::PacketSet>& predicates);

/// Per-entry forwarding classes: for each entry border interface of Ω, the
/// entering traffic is split only by the predicates of edges *reachable
/// from that entry*. Traffic entering at s never meets the other entries'
/// edges, so this avoids the spurious global refinement (e.g. intra-cell
/// source predicates fragmenting backbone classes) while checking exactly
/// the same (class, feasible-path) combinations.
struct EntryClasses {
  InterfaceId entry = 0;
  std::vector<net::PacketSet> classes;
};

[[nodiscard]] std::vector<EntryClasses> per_entry_equivalence_classes(
    const Topology& topo, const Scope& scope, const net::PacketSet& entering);

}  // namespace jinjing::topo
