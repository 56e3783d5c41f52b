#include "topo/fec_cache.h"

#include <algorithm>

#include "obs/stats.h"
#include "obs/trace.h"

namespace jinjing::topo {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

void mix_set(std::uint64_t& h, const net::PacketSet& set) {
  mix(h, set.cube_count());
  for (const auto& cube : set.cubes()) {
    for (const net::Field f : net::kAllFields) {
      const auto& iv = cube.interval(f);
      mix(h, iv.lo);
      mix(h, iv.hi);
    }
  }
}

/// Structural fingerprint of one classification problem. `per_entry`
/// separates the two derivation modes.
std::uint64_t fingerprint(const Topology& topo, const Scope& scope,
                          const net::PacketSet& entering, bool per_entry) {
  std::uint64_t h = kFnvOffset;
  mix(h, per_entry ? 1 : 2);
  std::vector<DeviceId> devices(scope.devices().begin(), scope.devices().end());
  std::sort(devices.begin(), devices.end());
  mix(h, devices.size());
  for (const auto d : devices) mix(h, d);
  for (std::size_t ei = 0; ei < topo.edges().size(); ++ei) {
    const auto& edge = topo.edges()[ei];
    if (!scope.contains_interface(topo, edge.from) ||
        !scope.contains_interface(topo, edge.to)) {
      continue;
    }
    mix(h, (std::uint64_t{edge.from} << 32) | edge.to);
    mix_set(h, edge.predicate);
  }
  mix_set(h, entering);
  return h;
}

}  // namespace

FecCache::Slot* FecCache::find_slot(std::uint64_t key, const Topology& topo,
                                    const net::PacketSet& entering) {
  for (auto& slot : slots_[key]) {
    if (slot.topo == &topo && slot.entering_cubes == entering.cubes()) return &slot;
  }
  return nullptr;
}

FecCache::EntryClassesPtr FecCache::entry_classes(const Topology& topo, const Scope& scope,
                                                  const net::PacketSet& entering,
                                                  const FecOptions& options) {
  const std::uint64_t key = fingerprint(topo, scope, entering, /*per_entry=*/true);
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (Slot* slot = find_slot(key, topo, entering); slot != nullptr && slot->entry) {
      ++hits_;
      obs::count(obs::Counter::FecCacheHits);
      return slot->entry;
    }
  }
  EntryClassesPtr computed;
  {
    obs::TraceSpan span{obs::Span::FecDerive};
    computed = std::make_shared<const std::vector<EntryClasses>>(
        per_entry_equivalence_classes(topo, scope, entering, options));
  }
  const std::lock_guard<std::mutex> lock{mutex_};
  ++misses_;
  obs::count(obs::Counter::FecCacheMisses);
  Slot* slot = find_slot(key, topo, entering);
  if (slot == nullptr) {
    slots_[key].push_back(Slot{&topo, entering.cubes(), nullptr, nullptr});
    slot = &slots_[key].back();
  }
  if (!slot->entry) slot->entry = std::move(computed);
  return slot->entry;
}

FecCache::ClassesPtr FecCache::global_classes(const Topology& topo, const Scope& scope,
                                              const net::PacketSet& entering,
                                              const FecOptions& options) {
  const std::uint64_t key = fingerprint(topo, scope, entering, /*per_entry=*/false);
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (Slot* slot = find_slot(key, topo, entering); slot != nullptr && slot->global) {
      ++hits_;
      obs::count(obs::Counter::FecCacheHits);
      return slot->global;
    }
  }
  ClassesPtr computed;
  {
    obs::TraceSpan span{obs::Span::FecDerive};
    computed = std::make_shared<const std::vector<net::PacketSet>>(
        forwarding_equivalence_classes(topo, scope, entering, options));
  }
  const std::lock_guard<std::mutex> lock{mutex_};
  ++misses_;
  obs::count(obs::Counter::FecCacheMisses);
  Slot* slot = find_slot(key, topo, entering);
  if (slot == nullptr) {
    slots_[key].push_back(Slot{&topo, entering.cubes(), nullptr, nullptr});
    slot = &slots_[key].back();
  }
  if (!slot->global) slot->global = std::move(computed);
  return slot->global;
}

FecCache::ClassesPtr FecCache::find_overlay(const net::PacketSet& universe,
                                            const std::vector<net::PacketSet>& regions) {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (auto& slot : overlays_) {
    if (slot.universe_cubes != universe.cubes()) continue;
    if (slot.region_cubes.size() != regions.size()) continue;
    bool match = true;
    for (std::size_t i = 0; i < regions.size(); ++i) {
      if (slot.region_cubes[i] != regions[i].cubes()) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    ++hits_;
    obs::count(obs::Counter::FecCacheHits);
    obs::count(obs::Counter::FecDeltaReusedAtoms, slot.atoms->size());
    slot.stamp = ++overlay_stamp_;
    return slot.atoms;
  }
  ++misses_;
  obs::count(obs::Counter::FecCacheMisses);
  return nullptr;
}

void FecCache::store_overlay(const net::PacketSet& universe,
                             const std::vector<net::PacketSet>& regions, ClassesPtr atoms) {
  if (!atoms) return;
  OverlaySlot slot;
  slot.universe_cubes = universe.cubes();
  slot.region_cubes.reserve(regions.size());
  for (const auto& region : regions) slot.region_cubes.push_back(region.cubes());
  slot.atoms = std::move(atoms);
  const std::lock_guard<std::mutex> lock{mutex_};
  slot.stamp = ++overlay_stamp_;
  if (overlays_.size() >= kMaxOverlaySlots) {
    const auto oldest = std::min_element(
        overlays_.begin(), overlays_.end(),
        [](const OverlaySlot& a, const OverlaySlot& b) { return a.stamp < b.stamp; });
    *oldest = std::move(slot);
    return;
  }
  overlays_.push_back(std::move(slot));
}

std::uint64_t FecCache::hits() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return hits_;
}

std::uint64_t FecCache::misses() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return misses_;
}

double FecCache::hit_rate() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

std::size_t FecCache::live_entries() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::size_t total = 0;
  for (const auto& [key, slots] : slots_) total += slots.size();
  return total;
}

void FecCache::clear() {
  const std::lock_guard<std::mutex> lock{mutex_};
  slots_.clear();
  overlays_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace jinjing::topo
