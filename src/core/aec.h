// ACL equivalence classes (§5.1).
//
// An AEC groups packets that every ACL decision model in the scope treats
// identically — the atoms of {permitted(L_ξ)}. Unlike FECs they ignore
// routing; §5.3 refines unsolvable AECs into dataplane equivalence classes
// (DECs) by additionally splitting on the forwarding predicates.
// With control intents present, the intent decision models r are extra
// refinement predicates (§6), so every class has a uniform desired change.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "lai/sema.h"
#include "net/packet_set.h"
#include "topo/topology.h"

namespace jinjing::core {

/// The refinement predicates of the AEC derivation: each slot ACL's denied
/// region within the universe (slots holding identical ACLs contribute one
/// region — the paper's "redundancy in ACL usage"), each control intent's
/// header, and each extra predicate's denied complement. Deterministic
/// order; empty regions dropped. The regions fully determine the partition
/// of `universe`, which is what makes the overlay memoizable.
[[nodiscard]] std::vector<net::PacketSet> aec_regions(
    const topo::ConfigView& view, const std::vector<topo::AclSlot>& slots,
    const net::PacketSet& universe,
    const std::vector<lai::ControlIntent>& controls = {},
    const std::vector<net::PacketSet>& extra_predicates = {});

/// Overlays the regions into the atoms of `universe`: a disjoint partition
/// in deterministic order, uniform w.r.t. every region.
[[nodiscard]] std::vector<net::PacketSet> overlay_atoms(
    const net::PacketSet& universe, const std::vector<net::PacketSet>& regions);

/// A bounded memo of overlay_atoms, keyed by the exact cubes of (universe,
/// regions). The key holds no topology identity, so snapshots whose scoped
/// ACLs coincide share an entry. Holds at most kCapacity entries and evicts
/// the least recently used. Thread-safe: the service shares one memo across
/// its workers.
class AecMemo {
 public:
  static constexpr std::size_t kCapacity = 64;
  using AtomsPtr = std::shared_ptr<const std::vector<net::PacketSet>>;

  /// The memoized atoms, or nullptr on a miss (the caller overlays and
  /// store()s). Counts fec_cache_hits / fec_cache_misses, and a hit's
  /// atoms as fec_delta_reused_atoms.
  [[nodiscard]] AtomsPtr find(const net::PacketSet& universe,
                              const std::vector<net::PacketSet>& regions);
  void store(const net::PacketSet& universe, const std::vector<net::PacketSet>& regions,
             AtomsPtr atoms);

  /// Entries currently held (at most kCapacity).
  [[nodiscard]] std::size_t entries() const;

 private:
  struct Entry {
    std::vector<net::HyperCube> universe_cubes;
    std::vector<std::vector<net::HyperCube>> region_cubes;
    AtomsPtr atoms;
    std::uint64_t stamp = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t stamp_ = 0;
};

/// Derives the AECs of `universe` w.r.t. the ACLs bound (in `view`) on the
/// given slots. Result is a disjoint partition; deterministic order.
/// `extra_predicates` adds further refinement sets — e.g. the permitted
/// sets of explicit source replacements, so every class is also uniform
/// w.r.t. the post-update source decisions.
/// When `memo` is non-null the overlay goes through it, so warm generate
/// jobs whose scoped ACLs coincide with an earlier derivation skip the
/// overlay entirely while returning bit-identical atoms.
[[nodiscard]] std::vector<net::PacketSet> acl_equivalence_classes(
    const topo::ConfigView& view, const std::vector<topo::AclSlot>& slots,
    const net::PacketSet& universe,
    const std::vector<lai::ControlIntent>& controls = {},
    const std::vector<net::PacketSet>& extra_predicates = {},
    AecMemo* memo = nullptr);

/// Splits one class into dataplane equivalence classes by refining with all
/// in-scope forwarding predicates (DEC = AEC ∧ FEC, §5.3).
[[nodiscard]] std::vector<net::PacketSet> dataplane_equivalence_classes(
    const topo::Topology& topo, const topo::Scope& scope, const net::PacketSet& aec);

}  // namespace jinjing::core
