// Memoized equivalence-class derivation.
//
// The classes of the traffic entering a scope depend only on (scope,
// entering set, in-scope forwarding predicates) — NOT on the ACL update
// under test. The fixer and synthesizer candidate loops therefore re-derive
// identical partitions on every check() of a new candidate; this cache
// makes those derivations one lookup. Keys are structural fingerprints of
// the inputs, guarded by an exact comparison of the entering set's cubes
// (and the topology's identity) so a hash collision can never return the
// wrong classes. Partitions are keyed by topology identity, so a cache that
// outlives a topology must not be asked about it again: the service plans
// each scope once on a private cache and shares only the topology-free AEC
// overlay memo across jobs.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "topo/fec.h"

namespace jinjing::topo {

class FecCache {
 public:
  using EntryClassesPtr = std::shared_ptr<const std::vector<EntryClasses>>;
  using ClassesPtr = std::shared_ptr<const std::vector<net::PacketSet>>;

  /// Cached per_entry_equivalence_classes. Thread-safe; on a miss the
  /// derivation runs outside the lock (two racing misses both compute, the
  /// results are interchangeable).
  [[nodiscard]] EntryClassesPtr entry_classes(const Topology& topo, const Scope& scope,
                                              const net::PacketSet& entering,
                                              const FecOptions& options);

  /// Cached forwarding_equivalence_classes.
  [[nodiscard]] ClassesPtr global_classes(const Topology& topo, const Scope& scope,
                                          const net::PacketSet& entering,
                                          const FecOptions& options);

  /// Cached ACL-overlay partitions (core::acl_equivalence_classes inner
  /// loop), keyed by the exact cubes of (universe, overlay regions) — no
  /// topology identity, so versions whose scoped ACLs coincide share the
  /// partition. Exact-match only: nullptr on miss, the caller computes and
  /// store_overlay()s. LRU-bounded.
  [[nodiscard]] ClassesPtr find_overlay(const net::PacketSet& universe,
                                        const std::vector<net::PacketSet>& regions);
  void store_overlay(const net::PacketSet& universe,
                     const std::vector<net::PacketSet>& regions, ClassesPtr atoms);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// hits / (hits + misses), or 0 when never queried.
  [[nodiscard]] double hit_rate() const;

  /// Memoized partitions currently held (overlays excluded). The server's
  /// shared cache holds none — the soak harness's watchdog that no server
  /// state is keyed by a snapshot's topology.
  [[nodiscard]] std::size_t live_entries() const;

  void clear();

 private:
  struct Slot {
    // Exact-match guard behind the fingerprint: same topology object, same
    // entering cubes. Scope and predicates are covered by the fingerprint
    // (they are derived from the topology, which is identity-compared).
    const Topology* topo = nullptr;
    std::vector<net::HyperCube> entering_cubes;
    EntryClassesPtr entry;
    ClassesPtr global;
  };

  struct OverlaySlot {
    std::vector<net::HyperCube> universe_cubes;
    std::vector<std::vector<net::HyperCube>> region_cubes;
    ClassesPtr atoms;
    std::uint64_t stamp = 0;
  };

  static constexpr std::size_t kMaxOverlaySlots = 64;

  [[nodiscard]] Slot* find_slot(std::uint64_t key, const Topology& topo,
                                const net::PacketSet& entering);

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Slot>> slots_;
  std::vector<OverlaySlot> overlays_;
  std::uint64_t overlay_stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace jinjing::topo
