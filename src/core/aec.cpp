#include "core/aec.h"

#include <algorithm>

#include "net/acl_algebra.h"
#include "obs/stats.h"
#include "topo/fec.h"

namespace jinjing::core {

std::vector<net::PacketSet> aec_regions(const topo::ConfigView& view,
                                        const std::vector<topo::AclSlot>& slots,
                                        const net::PacketSet& universe,
                                        const std::vector<lai::ControlIntent>& controls,
                                        const std::vector<net::PacketSet>& extra_predicates) {
  // Each predicate is represented by its "interesting" side — the denied
  // region of an ACL (complement of the permitted set within the universe)
  // or a control header. Slots holding identical ACLs contribute one
  // predicate (the paper's "redundancy in ACL usage").
  std::vector<const net::Acl*> seen;
  std::vector<net::PacketSet> regions;
  for (const auto slot : slots) {
    const net::Acl& acl = view.acl(slot);
    const bool duplicate = std::any_of(seen.begin(), seen.end(),
                                       [&acl](const net::Acl* other) { return *other == acl; });
    if (duplicate) continue;
    seen.push_back(&acl);
    auto denied = universe - net::permitted_set(acl);
    if (!denied.is_empty()) regions.push_back(std::move(denied.compact()));
  }
  for (const auto& intent : controls) {
    auto header = intent.header & universe;
    if (!header.is_empty()) regions.push_back(std::move(header.compact()));
  }
  for (const auto& predicate : extra_predicates) {
    auto denied = universe - predicate;
    if (!denied.is_empty()) regions.push_back(std::move(denied.compact()));
  }
  return regions;
}

std::vector<net::PacketSet> overlay_atoms(const net::PacketSet& universe,
                                          const std::vector<net::PacketSet>& regions) {
  // Overlay the interesting regions into atoms; the big all-permit "rest"
  // class is materialized once at the end instead of being dragged through
  // every refinement pass.
  std::vector<net::PacketSet> atoms;
  net::PacketSet covered;
  for (const auto& region : regions) {
    net::PacketSet fresh = region - covered;
    std::vector<net::PacketSet> next;
    next.reserve(atoms.size() + 2);
    for (const auto& atom : atoms) {
      net::PacketSet inside = atom & region;
      if (inside.is_empty()) {
        next.push_back(atom);
        continue;
      }
      net::PacketSet outside = atom - region;
      next.push_back(std::move(inside.compact()));
      if (!outside.is_empty()) next.push_back(std::move(outside.compact()));
    }
    if (!fresh.is_empty()) next.push_back(std::move(fresh.compact()));
    atoms = std::move(next);
    covered = (covered | region).compact();
  }

  net::PacketSet rest = (universe - covered).compact();
  if (!rest.is_empty()) atoms.push_back(std::move(rest));
  return atoms;
}

AecMemo::AtomsPtr AecMemo::find(const net::PacketSet& universe,
                                 const std::vector<net::PacketSet>& regions) {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (auto& entry : entries_) {
    if (entry.universe_cubes != universe.cubes()) continue;
    if (!std::equal(entry.region_cubes.begin(), entry.region_cubes.end(), regions.begin(),
                    regions.end(), [](const auto& cubes, const net::PacketSet& region) {
                      return cubes == region.cubes();
                    })) {
      continue;
    }
    obs::count(obs::Counter::AecMemoHits);
    obs::count(obs::Counter::FecDeltaReusedAtoms, entry.atoms->size());
    entry.stamp = ++stamp_;
    return entry.atoms;
  }
  obs::count(obs::Counter::AecMemoMisses);
  return nullptr;
}

void AecMemo::store(const net::PacketSet& universe, const std::vector<net::PacketSet>& regions,
                    AtomsPtr atoms) {
  Entry entry;
  entry.universe_cubes = universe.cubes();
  entry.region_cubes.reserve(regions.size());
  for (const auto& region : regions) entry.region_cubes.push_back(region.cubes());
  entry.atoms = std::move(atoms);
  const std::lock_guard<std::mutex> lock{mutex_};
  entry.stamp = ++stamp_;
  if (entries_.size() < kCapacity) {
    entries_.push_back(std::move(entry));
    return;
  }
  *std::min_element(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    return a.stamp < b.stamp;
  }) = std::move(entry);
}

std::size_t AecMemo::entries() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return entries_.size();
}

std::vector<net::PacketSet> acl_equivalence_classes(
    const topo::ConfigView& view, const std::vector<topo::AclSlot>& slots,
    const net::PacketSet& universe, const std::vector<lai::ControlIntent>& controls,
    const std::vector<net::PacketSet>& extra_predicates, AecMemo* memo) {
  const std::vector<net::PacketSet> regions =
      aec_regions(view, slots, universe, controls, extra_predicates);
  if (memo == nullptr) return overlay_atoms(universe, regions);
  if (auto memoized = memo->find(universe, regions)) return *memoized;
  auto atoms = std::make_shared<const std::vector<net::PacketSet>>(
      overlay_atoms(universe, regions));
  memo->store(universe, regions, atoms);
  return *atoms;
}

std::vector<net::PacketSet> dataplane_equivalence_classes(const topo::Topology& topo,
                                                          const topo::Scope& scope,
                                                          const net::PacketSet& aec) {
  return topo::forwarding_equivalence_classes(topo, scope, aec);
}

}  // namespace jinjing::core
