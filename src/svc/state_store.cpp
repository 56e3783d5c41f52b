#include "svc/state_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/stats.h"

namespace jinjing::svc {

StateStore::StateStore(config::NetworkFile network) {
  auto snapshot = std::make_unique<Snapshot>();
  snapshot->version = 1;
  snapshot->topo = std::make_shared<const topo::Topology>(std::move(network.topo));
  snapshot->traffic = std::move(network.traffic);
  head_ = 1;
  versions_.emplace(head_, wrap(std::move(snapshot)));
}

void StateStore::set_apply_hook(SnapshotApplyHook hook) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (applied_) {
    throw std::logic_error(
        "StateStore::set_apply_hook: hooks must be installed before the first apply");
  }
  apply_hook_ = std::move(hook);
}

SnapshotPtr StateStore::wrap(std::unique_ptr<Snapshot> snapshot) const {
  live_count_->fetch_add(1, std::memory_order_relaxed);
  return SnapshotPtr(snapshot.release(), [live = live_count_](const Snapshot* s) {
    live->fetch_sub(1, std::memory_order_relaxed);
    delete s;
  });
}

SnapshotPtr StateStore::head() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return versions_.at(head_);
}

Version StateStore::head_version() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return head_;
}

Version StateStore::oldest_version() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return versions_.begin()->first;
}

SnapshotPtr StateStore::snapshot(Version version) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = versions_.find(version);
  return it == versions_.end() ? nullptr : it->second;
}

SnapshotPtr StateStore::apply_update(const topo::AclUpdate& update) {
  const std::lock_guard<std::mutex> lock{mutex_};
  return apply_locked(update);
}

SnapshotPtr StateStore::apply_if_head(Version expected, const topo::AclUpdate& update) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (head_ != expected) return nullptr;
  return apply_locked(update);
}

SnapshotPtr StateStore::apply_locked(const topo::AclUpdate& update) {
  const SnapshotPtr previous = versions_.at(head_);

  // Copy-on-write: the head topology is copied once per apply; every slot
  // not in the update keeps its binding.
  topo::Topology next = *previous->topo;
  for (const auto& [slot, acl] : update) next.bind_acl(slot, acl);

  auto snapshot = std::make_unique<Snapshot>();
  snapshot->version = head_ + 1;
  snapshot->topo = std::make_shared<const topo::Topology>(std::move(next));
  snapshot->traffic = previous->traffic;
  SnapshotPtr wrapped = wrap(std::move(snapshot));
  head_ = wrapped->version;
  versions_.emplace(head_, wrapped);
  applied_ = true;
  // Under the lock: consumers see every delta exactly once, in version
  // order, before any job can run against the new head.
  if (apply_hook_) apply_hook_(*previous, *wrapped, update);
  return wrapped;
}

std::vector<SnapshotPtr> StateStore::trim(std::size_t keep) {
  if (keep == 0) keep = 1;  // the head is never dropped
  std::vector<SnapshotPtr> dropped;
  std::vector<SnapshotPtr> expired;  // destroyed after the lock drops
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    // Lapsed leases first, so an abandoned holder never blocks collection.
    sweep_leases_locked(expired);
    if (versions_.size() > keep) {
      // The newest `keep` versions stay by budget; an older one survives
      // only while a live lease still names it.
      auto boundary = versions_.end();
      for (std::size_t i = 0; i < keep; ++i) --boundary;
      const Version boundary_version = boundary->first;
      for (auto it = versions_.begin();
           it != versions_.end() && it->first < boundary_version;) {
        const Version v = it->first;
        const bool leased =
            std::any_of(leases_.begin(), leases_.end(),
                        [v](const auto& kv) { return kv.second.version == v; });
        if (leased) {
          ++it;
          continue;
        }
        dropped.push_back(std::move(it->second));
        it = versions_.erase(it);
      }
    }
  }
  return dropped;
}

void StateStore::sweep_leases_locked(std::vector<SnapshotPtr>& expired) {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires_at <= now) {
      expired.push_back(std::move(it->second.pin));
      it = leases_.erase(it);
      obs::count(obs::Counter::SvcLeasesExpired);
    } else {
      ++it;
    }
  }
}

std::optional<std::uint64_t> StateStore::acquire_lease(Version version,
                                                       std::uint64_t lease_ms) {
  std::vector<SnapshotPtr> expired;
  std::optional<std::uint64_t> id;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    sweep_leases_locked(expired);
    const auto it = versions_.find(version);
    if (it != versions_.end()) {
      Lease lease;
      lease.version = version;
      lease.pin = it->second;
      lease.expires_at =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(lease_ms);
      id = next_lease_++;
      leases_.emplace(*id, std::move(lease));
      obs::count(obs::Counter::SvcLeasesGranted);
    }
  }
  return id;
}

bool StateStore::renew_lease(std::uint64_t lease, std::uint64_t lease_ms,
                             std::optional<Version> version) {
  std::vector<SnapshotPtr> expired;
  std::vector<SnapshotPtr> replaced;  // old pin when re-pinning to a new version
  bool ok = false;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    sweep_leases_locked(expired);
    const auto it = leases_.find(lease);
    if (it != leases_.end()) {
      if (version && *version != it->second.version) {
        const auto target = versions_.find(*version);
        if (target == versions_.end()) return false;  // nothing mutated yet
        replaced.push_back(std::move(it->second.pin));
        it->second.version = *version;
        it->second.pin = target->second;
      }
      it->second.expires_at =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(lease_ms);
      obs::count(obs::Counter::SvcLeasesRenewed);
      ok = true;
    }
  }
  return ok;
}

bool StateStore::release_lease(std::uint64_t lease) {
  std::vector<SnapshotPtr> expired;
  SnapshotPtr released;
  bool ok = false;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    sweep_leases_locked(expired);
    const auto it = leases_.find(lease);
    if (it != leases_.end()) {
      released = std::move(it->second.pin);
      leases_.erase(it);
      obs::count(obs::Counter::SvcLeasesReleased);
      ok = true;
    }
  }
  return ok;
}

std::size_t StateStore::sweep_leases() {
  std::vector<SnapshotPtr> expired;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    sweep_leases_locked(expired);
  }
  return expired.size();
}

std::size_t StateStore::lease_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto now = std::chrono::steady_clock::now();
  return static_cast<std::size_t>(
      std::count_if(leases_.begin(), leases_.end(),
                    [&](const auto& kv) { return kv.second.expires_at > now; }));
}

std::optional<Version> StateStore::min_leased_version() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto now = std::chrono::steady_clock::now();
  std::optional<Version> min;
  for (const auto& [id, lease] : leases_) {
    if (lease.expires_at <= now) continue;
    if (!min || lease.version < *min) min = lease.version;
  }
  return min;
}

std::size_t StateStore::version_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return versions_.size();
}

std::size_t StateStore::live_snapshots() const {
  return live_count_->load(std::memory_order_relaxed);
}

}  // namespace jinjing::svc
