#include "core/incremental_planner.h"

#include <algorithm>
#include <limits>

#include "core/diff.h"
#include "obs/stats.h"

namespace jinjing::core {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

std::vector<topo::DeviceId> sorted_devices(const topo::Scope& scope) {
  std::vector<topo::DeviceId> devices(scope.devices().begin(), scope.devices().end());
  std::sort(devices.begin(), devices.end());
  return devices;
}

/// Structural fingerprint of one planning problem: scope devices + entering
/// cubes. The version is kept outside the key so all versions of one
/// problem share a bucket; exact guards (sorted devices, entering equality)
/// back the hash.
std::uint64_t problem_key(const std::vector<topo::DeviceId>& devices,
                          const net::PacketSet& entering) {
  std::uint64_t h = kFnvOffset;
  mix(h, devices.size());
  for (const auto d : devices) mix(h, d);
  mix(h, entering.cube_count());
  for (const auto& cube : entering.cubes()) {
    for (const net::Field f : net::kAllFields) {
      const auto& iv = cube.interval(f);
      mix(h, iv.lo);
      mix(h, iv.hi);
    }
  }
  return h;
}

std::uint64_t problem_key(const topo::Scope& scope, const net::PacketSet& entering) {
  return problem_key(sorted_devices(scope), entering);
}

bool slot_less(topo::AclSlot a, topo::AclSlot b) {
  if (a.iface != b.iface) return a.iface < b.iface;
  return static_cast<int>(a.dir) < static_cast<int>(b.dir);
}

/// Canonical text of an update — the exact-match guard for cached verdict
/// sets. Slot order is normalized; rule text is the parser round-trip form.
std::string update_text(const topo::AclUpdate& update) {
  std::vector<topo::AclSlot> slots;
  slots.reserve(update.size());
  for (const auto& [slot, acl] : update) slots.push_back(slot);
  std::sort(slots.begin(), slots.end(), slot_less);
  std::string out;
  for (const auto slot : slots) {
    const net::Acl& acl = update.at(slot);
    out += std::to_string(slot.iface);
    out += slot.dir == topo::Dir::In ? "i{" : "o{";
    for (const auto& rule : acl.rules()) {
      out += net::to_string(rule);
      out += ';';
    }
    out += "}d";
    out += net::to_string(acl.default_action());
    out += '\n';
  }
  return out;
}

std::uint64_t text_key(const std::string& text) {
  std::uint64_t h = kFnvOffset;
  for (const char c : text) mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Do the obligation's path slots meet the delta's rewritten slots? Both
/// lists are tiny (a handful of hops / touched interfaces), so a linear
/// scan beats set machinery.
bool slots_intersect(const std::vector<topo::AclSlot>& obligation_slots,
                     const std::vector<topo::AclSlot>& delta_slots) {
  for (const auto slot : obligation_slots) {
    if (std::find(delta_slots.begin(), delta_slots.end(), slot) != delta_slots.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

IncrementalPlanner::IncrementalPlanner(IncrementalOptions options) : options_(options) {
  if (options_.max_entries == 0) options_.max_entries = 1;
}

IncrementalPlanner::Entry* IncrementalPlanner::find_entry_locked(
    std::uint64_t key, std::uint64_t version, const topo::Scope& scope,
    const net::PacketSet& entering) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  const auto devices = sorted_devices(scope);
  for (auto& entry : it->second) {
    if (entry.version == version && entry.scope_devices == devices &&
        entry.bundle->entering.equals(entering)) {
      return &entry;
    }
  }
  return nullptr;
}

void IncrementalPlanner::record_apply(std::uint64_t from_version, std::uint64_t to_version,
                                      const topo::Topology& before,
                                      const topo::AclUpdate& update) {
  if (options_.max_delta_chain == 0) return;

  // The Definition 4.1 differential of this apply, pooled across its slots,
  // as a packet set: an obligation class disjoint from it keeps every
  // first-match decision on the rewritten slots (Theorem 4.1), so its
  // cached verdicts survive.
  std::vector<topo::AclSlot> delta_slots;
  delta_slots.reserve(update.size());
  for (const auto& [slot, acl] : update) delta_slots.push_back(slot);
  std::sort(delta_slots.begin(), delta_slots.end(), slot_less);
  const topo::ConfigView before_view{before};
  const topo::ConfigView after_view{before, &update};
  net::PacketSet diff_packets;
  for (const auto& rule : scope_differential(before_view, after_view, delta_slots)) {
    diff_packets = diff_packets | net::PacketSet{rule.match.cube()};
  }

  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<Entry> rebased;
  for (auto& [key, bucket] : entries_) {
    for (const auto& entry : bucket) {
      if (entry.version != from_version) continue;
      if (entry.chain + 1 > options_.max_delta_chain) {
        ++stats_.fallbacks;  // budget exhausted: the next job rebuilds fresh
        continue;
      }
      Entry next;
      next.version = to_version;
      next.scope_devices = entry.scope_devices;
      next.bundle = entry.bundle;  // structurally valid verbatim (ACL-only apply)
      next.chain = entry.chain + 1;
      next.diffs = entry.diffs;
      next.verdicts = entry.verdicts;
      // Invalidate verdicts the delta can perturb, remembering which diff
      // hit them so the next check can re-prove just the touched sub-atoms.
      // Bits already false keep their earlier stale_from: the diff range
      // from that point automatically covers this apply too.
      const auto diff_index = static_cast<std::uint32_t>(next.diffs.size());
      std::uint64_t invalidated = 0;
      const auto& obligations = next.bundle->plan.obligations();
      for (auto& [vkey, verdicts] : next.verdicts) {
        if (verdicts.stale_from.size() < verdicts.clean.size()) {
          verdicts.stale_from.resize(verdicts.clean.size(), kNotStale);
        }
        for (std::size_t i = 0; i < verdicts.clean.size() && i < obligations.size(); ++i) {
          if (!verdicts.clean[i]) continue;
          const Obligation& o = obligations[i];
          if (slots_intersect(o.slots, delta_slots) && o.fec->intersects(diff_packets)) {
            verdicts.clean[i] = false;
            verdicts.stale_from[i] = diff_index;
            ++invalidated;
          }
        }
      }
      next.diffs.push_back(diff_packets);
      stats_.invalidations += invalidated;
      obs::count(obs::Counter::DeltaCacheInvalidations, invalidated);
      ++stats_.rebases;
      obs::count(obs::Counter::DeltaCacheRebases);
      rebased.push_back(std::move(next));
    }
  }
  // Re-insert under the same problem keys (the key is scope+entering, which
  // the rebase does not change, so each entry lands in its source bucket).
  for (auto& entry : rebased) {
    const std::uint64_t key = problem_key(entry.scope_devices, entry.bundle->entering);
    entries_[key].push_back(std::move(entry));
  }
  evict_locked();
  refresh_gauge_locked();
}

IncrementalLease IncrementalPlanner::acquire(std::uint64_t version, const topo::Scope& scope,
                                             const net::PacketSet& entering,
                                             const topo::AclUpdate& update) {
  if (options_.max_delta_chain == 0) return {};
  const std::uint64_t key = problem_key(scope, entering);
  const std::lock_guard<std::mutex> lock{mutex_};
  Entry* entry = find_entry_locked(key, version, scope, entering);
  if (entry == nullptr) {
    ++stats_.misses;
    obs::count(obs::Counter::DeltaCacheMisses);
    return {};
  }
  ++stats_.hits;
  obs::count(obs::Counter::DeltaCacheHits);
  IncrementalLease lease;
  lease.bundle = entry->bundle;
  lease.version = version;
  const std::string text = update_text(update);
  const auto it = entry->verdicts.find(text_key(text));
  if (it != entry->verdicts.end() && it->second.update_text == text) {
    it->second.stamp = ++stamp_;
    lease.clean = it->second.clean;
    lease.stale_from = it->second.stale_from;
    lease.diffs = entry->diffs;
  }
  return lease;
}

void IncrementalPlanner::install(std::uint64_t version, const topo::Scope& scope,
                                 std::shared_ptr<const PlanBundle> bundle) {
  if (options_.max_delta_chain == 0 || bundle == nullptr) return;
  const std::uint64_t key = problem_key(scope, bundle->entering);
  const std::lock_guard<std::mutex> lock{mutex_};
  if (find_entry_locked(key, version, scope, bundle->entering) != nullptr) return;
  Entry entry;
  entry.version = version;
  entry.scope_devices = sorted_devices(scope);
  entry.bundle = std::move(bundle);
  entries_[key].push_back(std::move(entry));
  evict_locked();
  refresh_gauge_locked();
}

void IncrementalPlanner::commit(std::uint64_t version, const topo::Scope& scope,
                                const net::PacketSet& entering, const topo::AclUpdate& update,
                                const std::vector<bool>& clean) {
  if (options_.max_delta_chain == 0) return;
  const std::uint64_t key = problem_key(scope, entering);
  const std::lock_guard<std::mutex> lock{mutex_};
  Entry* entry = find_entry_locked(key, version, scope, entering);
  if (entry == nullptr) return;  // retired or evicted while the check ran
  const std::string text = update_text(update);
  const std::uint64_t vkey = text_key(text);
  auto it = entry->verdicts.find(vkey);
  if (it == entry->verdicts.end() || it->second.update_text != text) {
    if (entry->verdicts.size() >= options_.max_verdict_sets) {
      // Evict the least recently touched verdict set.
      auto victim = entry->verdicts.begin();
      for (auto cand = entry->verdicts.begin(); cand != entry->verdicts.end(); ++cand) {
        if (cand->second.stamp < victim->second.stamp) victim = cand;
      }
      entry->verdicts.erase(victim);
    }
    VerdictSet fresh;
    fresh.update_text = text;
    fresh.clean.assign(entry->bundle->plan.size(), false);
    fresh.stale_from.assign(entry->bundle->plan.size(), kNotStale);
    it = entry->verdicts.insert_or_assign(vkey, std::move(fresh)).first;
  }
  it->second.stamp = ++stamp_;
  auto& bits = it->second.clean;
  auto& stale = it->second.stale_from;
  if (bits.size() < clean.size()) bits.resize(clean.size(), false);
  if (stale.size() < bits.size()) stale.resize(bits.size(), kNotStale);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i]) {
      bits[i] = true;  // verdicts only ever strengthen
      stale[i] = kNotStale;
    }
  }
}

void IncrementalPlanner::retire_version(std::uint64_t version) {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& bucket = it->second;
    std::erase_if(bucket, [version](const Entry& e) { return e.version == version; });
    it = bucket.empty() ? entries_.erase(it) : std::next(it);
  }
  refresh_gauge_locked();
}

void IncrementalPlanner::evict_locked() {
  std::size_t live = 0;
  for (const auto& [key, bucket] : entries_) live += bucket.size();
  while (live > options_.max_entries) {
    // Evict the lowest version first: old versions are the least likely to
    // be checked again (the head only moves forward).
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [key, bucket] : entries_) {
      for (const auto& entry : bucket) oldest = std::min(oldest, entry.version);
    }
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto& bucket = it->second;
      std::erase_if(bucket, [oldest](const Entry& e) { return e.version == oldest; });
      it = bucket.empty() ? entries_.erase(it) : std::next(it);
    }
    std::size_t remaining = 0;
    for (const auto& [key, bucket] : entries_) remaining += bucket.size();
    if (remaining == live) break;  // defensive: no progress, stop
    live = remaining;
  }
}

void IncrementalPlanner::refresh_gauge_locked() {
  stats_.cached_plans = 0;
  stats_.cached_obligations = 0;
  for (const auto& [key, bucket] : entries_) {
    stats_.cached_plans += bucket.size();
    for (const auto& entry : bucket) stats_.cached_obligations += entry.bundle->plan.size();
  }
  obs::gauge_max(obs::Gauge::SvcCachedObligations, stats_.cached_obligations);
}

IncrementalStats IncrementalPlanner::stats() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

}  // namespace jinjing::core
