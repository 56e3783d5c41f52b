// Versioned, copy-on-write snapshots of the network state (topology + ACL
// bindings + entering traffic).
//
// The serving workflow needs two things at once: in-flight verifications
// must run against a consistent view of the network, and deployable plans
// must advance the live state for subsequent requests. The store resolves
// the tension with immutable snapshots: every job pins the snapshot that
// was head at submission (or an explicitly requested version), and apply
// produces a *new* head version by copying the topology and rebinding the
// updated ACL slots — readers of older versions are never disturbed.
//
// Snapshots are handed out as shared_ptr<const Snapshot>, so a trimmed
// version stays alive for exactly as long as some job still runs against
// it. Nothing outside the store is keyed by a snapshot's topology, so a
// release needs no callback.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "config/topology_format.h"
#include "net/packet_set.h"
#include "topo/topology.h"

namespace jinjing::svc {

using Version = std::uint64_t;

struct Snapshot {
  Version version = 0;
  std::shared_ptr<const topo::Topology> topo;
  net::PacketSet traffic;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Called under the store lock after every successful apply, with the
/// previous head, the new head, and the exact update that produced it —
/// the server's replication log records the delta without re-deriving it
/// from two topologies. The hook must not call back into the store.
using SnapshotApplyHook = std::function<void(const Snapshot& previous, const Snapshot& next,
                                             const topo::AclUpdate& update)>;

class StateStore {
 public:
  /// Loads the initial network as version 1.
  explicit StateStore(config::NetworkFile network);

  /// Installs the apply hook. Must be called before the first apply, so
  /// the hook sees every delta from version 1 on — a late install throws
  /// std::logic_error.
  void set_apply_hook(SnapshotApplyHook hook);

  [[nodiscard]] SnapshotPtr head() const;
  [[nodiscard]] Version head_version() const;
  /// The oldest version still resolvable from the index — the floor the
  /// replication log must cover so any resolvable version can catch up.
  [[nodiscard]] Version oldest_version() const;

  /// The snapshot for a version; nullptr when unknown or already trimmed.
  [[nodiscard]] SnapshotPtr snapshot(Version version) const;

  /// Copy-on-write head advance: a new topology with `update`'s slots
  /// rebound on top of the current head. Returns the new head snapshot.
  SnapshotPtr apply_update(const topo::AclUpdate& update);

  /// apply_update gated on `expected` still being the head, with the
  /// compare and the advance under one lock acquisition — the conflict
  /// check callers need before deploying a plan verified against
  /// `expected`. Returns nullptr when the head has moved on.
  SnapshotPtr apply_if_head(Version expected, const topo::AclUpdate& update);

  /// Drops all but the newest `keep` versions from the index (snapshots
  /// pinned by running jobs stay alive through their shared_ptr). Versions
  /// held by an unexpired lease are kept resolvable regardless of the
  /// budget — expired leases are swept first, so a lapsed holder never
  /// blocks collection. Returns the dropped snapshots; each one is freed
  /// when its last pin goes away.
  std::vector<SnapshotPtr> trim(std::size_t keep);

  /// Explicit snapshot pins with a deadline. A lease keeps `version`
  /// resolvable (and its snapshot alive) until it is released or its
  /// `lease_ms` window lapses without a renew — at which point the pin
  /// drops and, if it was the last one, the snapshot is freed. Returns
  /// nullopt when the version is unknown or already trimmed.
  std::optional<std::uint64_t> acquire_lease(Version version, std::uint64_t lease_ms);

  /// Refreshes the deadline; when `version` is given, re-pins the lease to
  /// that version in the same operation (the replica's apply-and-advance
  /// path). False when the lease is unknown/expired or the version is.
  bool renew_lease(std::uint64_t lease, std::uint64_t lease_ms,
                   std::optional<Version> version = std::nullopt);

  /// Drops the lease; false when unknown (already expired or released).
  bool release_lease(std::uint64_t lease);

  /// Collects leases past their deadline; returns how many were dropped.
  /// Their snapshot pins are released outside the store lock.
  std::size_t sweep_leases();

  [[nodiscard]] std::size_t lease_count() const;

  /// The smallest version still held by an unexpired lease, if any — the
  /// replication log must keep records above it so the holder can catch up.
  [[nodiscard]] std::optional<Version> min_leased_version() const;

  [[nodiscard]] std::size_t version_count() const;

  /// Snapshots currently alive anywhere — the version index plus every
  /// job/client pin. The soak harness's leak watchdog: after a drain this
  /// must fall back to the index size, or something is holding snapshots
  /// (and their topologies) beyond their lifetime.
  [[nodiscard]] std::size_t live_snapshots() const;

 private:
  struct Lease {
    Version version = 0;
    SnapshotPtr pin;
    std::chrono::steady_clock::time_point expires_at;
  };

  [[nodiscard]] SnapshotPtr wrap(std::unique_ptr<Snapshot> snapshot) const;
  SnapshotPtr apply_locked(const topo::AclUpdate& update);
  /// Moves expired leases' pins into `expired` (destroyed by the caller
  /// after the lock drops, so freeing a topology never holds the store
  /// mutex). Requires mutex_ held.
  void sweep_leases_locked(std::vector<SnapshotPtr>& expired);

  // Shared with every snapshot's deleter so the count outlives the store
  // (a pinned snapshot can be released after the store is gone).
  std::shared_ptr<std::atomic<std::size_t>> live_count_ =
      std::make_shared<std::atomic<std::size_t>>(0);
  SnapshotApplyHook apply_hook_;

  mutable std::mutex mutex_;
  std::map<Version, SnapshotPtr> versions_;
  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_ = 1;
  Version head_ = 0;
  bool applied_ = false;  // an apply happened: hook installation is frozen
};

}  // namespace jinjing::svc
