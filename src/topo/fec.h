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

struct FecOptions {
  /// Worker threads for refinement (1 = sequential). Within one refinement
  /// the predicate list is split into groups refined concurrently and the
  /// group partitions merged by pairwise intersection (an exact identity:
  /// the atoms of a predicate union are the nonempty intersections of the
  /// per-group atoms). Per-entry classification additionally fans whole
  /// entries over the workers. The resulting partition is identical to the
  /// sequential one as a set of classes; only the order may differ.
  unsigned threads = 1;
};

/// Splits `entering` (the traffic X_Ω from the IP management system) into
/// forwarding equivalence classes w.r.t. all in-scope edge predicates.
/// The result is a disjoint partition of `entering`; empty classes are
/// dropped. Order is deterministic for a fixed FecOptions.
[[nodiscard]] std::vector<net::PacketSet> forwarding_equivalence_classes(
    const Topology& topo, const Scope& scope, const net::PacketSet& entering,
    const FecOptions& options = {});

/// Generic atom refinement: partitions `universe` so every predicate in
/// `predicates` is constant on each part. Shared by FEC (forwarding
/// predicates), AEC (ACL permitted-sets) and DEC derivation.
[[nodiscard]] std::vector<net::PacketSet> refine_into_atoms(
    const net::PacketSet& universe, const std::vector<net::PacketSet>& predicates,
    const FecOptions& options = {});

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
    const Topology& topo, const Scope& scope, const net::PacketSet& entering,
    const FecOptions& options = {});

/// The part of `seed` forwarded exactly like `h` by every in-scope edge —
/// seed ∩ [h]_FEC, computed lazily by folding the edge predicates around h
/// instead of materializing the global FEC partition.
[[nodiscard]] net::PacketSet fec_region_of(const Topology& topo, const Scope& scope,
                                           const net::PacketSet& seed, const net::Packet& h);

}  // namespace jinjing::topo
