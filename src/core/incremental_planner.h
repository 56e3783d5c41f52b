// Incremental cross-version verification state — reproduction only.
//
// Built with the SMT baselines in jinjing_repro: it serves the delta-scoped
// Z3 route (run_incremental_check, core/incremental.h), the service
// benchmark's traced replay and tests. The live server does not use it: a
// plan bundle is the same at every version, so the server keeps one bundle
// per scope (svc::Server's plan cache) and re-scans each update in full.
//
// Two facts make carrying state across StateStore versions sound:
//
//  1. An apply only rebinds ACL slots (StateStore::apply_locked calls
//     topo::Topology::bind_acl and nothing else), so edges and forwarding
//     predicates are identical across versions — paths, FEC partitions and
//     VerifyPlans built at version V are structurally valid at every later
//     version. Plans are therefore *rebased* wholesale: the same PlanBundle
//     is re-keyed under the new version.
//
//  2. A cached verdict "obligation o is consistent under update U at
//     version V" survives the apply delta D (V -> V+1) unless both
//     (a) o's paths traverse a slot D rewrites, and (b) o's entering class
//     intersects the Definition 4.1 differential rules of D. Outside (a)
//     the obligation's before-side decisions are untouched; outside (b)
//     every packet of the class keeps its first-match decision on each
//     rewritten slot (Theorem 4.1's contrapositive), so both sides of
//     Equation 3 are unchanged. Verdicts failing the test are invalidated,
//     not flipped — the next check re-proves exactly those obligations.
//
// Invalidation is additionally *scoped*, not just boolean: each entry keeps
// the pooled differential packet set of every apply it absorbed, and an
// invalidated verdict remembers which diff first hit it (stale_from). At
// check time the obligation's class is delta-refined by exactly the diffs
// since that point (topo::refine_delta): sub-atoms disjoint from every diff
// behaved identically when the verdict was proven and inherit consistency;
// only the touched sub-atoms get SMT queries. A violating sub-atom falls
// back to the full-class query so the reported witness is bit-identical to
// a from-scratch check.
//
// The planner keys entries by a structural fingerprint of (scope devices,
// entering cubes) plus the base version, guarded by exact comparisons so a
// hash collision can never return the wrong plan. Entries whose rebase
// chain exceeds max_delta_chain are dropped (the next acquire misses and
// the caller pays a full rebuild); the oldest versions are evicted beyond
// max_entries.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan.h"
#include "topo/topology.h"

namespace jinjing::core {

struct IncrementalOptions {
  /// Applies a cached entry may be carried across before it is dropped and
  /// the next job pays a full rebuild. 0 disables the planner.
  std::size_t max_delta_chain = 16;
  /// Bound on live (scope, entering, version) plan entries; the oldest
  /// versions are evicted first.
  std::size_t max_entries = 64;
  /// Bound on per-entry cached verdict sets (distinct pending updates).
  std::size_t max_verdict_sets = 32;
};

struct IncrementalStats {
  std::uint64_t hits = 0;           // acquire served from a cached entry
  std::uint64_t misses = 0;         // acquire that required a full rebuild
  std::uint64_t invalidations = 0;  // verdict bits cleared by apply deltas
  std::uint64_t rebases = 0;        // entries carried across a version bump
  std::uint64_t fallbacks = 0;      // entries dropped at the chain budget
  std::size_t cached_plans = 0;     // live entries
  std::size_t cached_obligations = 0;  // obligations across live entries
};

/// Sentinel for IncrementalLease::stale_from: the verdict bit was never
/// proven (or never invalidated), so no delta-scoped re-proof applies.
inline constexpr std::uint32_t kNotStale = 0xFFFFFFFFu;

/// A successful acquire: the shared plan bundle for (version, scope,
/// entering) plus the per-obligation verdict bits already proven for the
/// pending update (true = known consistent, skip its SMT query).
struct IncrementalLease {
  std::shared_ptr<const PlanBundle> bundle;
  std::vector<bool> clean;  // indexed by Obligation::index; may be empty
  /// For obligations with clean[i] == false: the index into `diffs` of the
  /// first apply differential that invalidated a previously proven verdict,
  /// or kNotStale when the verdict was never proven. A stale obligation
  /// only needs re-proving on the sub-atoms of its class that meet
  /// diffs[stale_from[i]..] — the rest inherit the old proof.
  std::vector<std::uint32_t> stale_from;
  /// Pooled Definition 4.1 differential of each apply absorbed by the
  /// leased entry since its full build, in apply order.
  std::vector<net::PacketSet> diffs;
  std::uint64_t version = 0;

  [[nodiscard]] bool valid() const { return bundle != nullptr; }
};

class IncrementalPlanner {
 public:
  explicit IncrementalPlanner(IncrementalOptions options = {});

  [[nodiscard]] const IncrementalOptions& options() const { return options_; }

  /// Records the delta of an apply: every entry based on `from_version` is
  /// rebased to `to_version` (shared bundle, chain + 1), with cached
  /// verdicts invalidated where the obligation's slots meet the delta AND
  /// its class meets the delta's differential rules. `before` is the
  /// pre-apply topology the differential is computed against. Entries at
  /// `from_version` are retained for jobs still pinning that snapshot.
  void record_apply(std::uint64_t from_version, std::uint64_t to_version,
                    const topo::Topology& before, const topo::AclUpdate& update);

  /// The cached plan (and any verdicts for `update`) at (version, scope,
  /// entering); invalid lease on a miss — caller builds fresh and installs.
  [[nodiscard]] IncrementalLease acquire(std::uint64_t version, const topo::Scope& scope,
                                         const net::PacketSet& entering,
                                         const topo::AclUpdate& update);

  /// Publishes a freshly built bundle for (version, scope). No-op when an
  /// entry already exists (a racing job won) or the planner is disabled.
  void install(std::uint64_t version, const topo::Scope& scope,
               std::shared_ptr<const PlanBundle> bundle);

  /// Merges verdict bits proven by a check of `update` at (version, scope,
  /// entering). Bits only ever turn true; dropped silently when the entry
  /// was retired or evicted meanwhile.
  void commit(std::uint64_t version, const topo::Scope& scope,
              const net::PacketSet& entering, const topo::AclUpdate& update,
              const std::vector<bool>& clean);

  [[nodiscard]] IncrementalStats stats() const;

 private:
  struct VerdictSet {
    std::string update_text;  // canonical update form (exact guard)
    std::vector<bool> clean;
    /// Parallel to `clean`: diff index that first invalidated bit i, or
    /// kNotStale. See IncrementalLease::stale_from.
    std::vector<std::uint32_t> stale_from;
    std::uint64_t stamp = 0;  // for LRU eviction of verdict sets
  };

  struct Entry {
    std::uint64_t version = 0;
    std::vector<topo::DeviceId> scope_devices;  // sorted; exact guard
    std::shared_ptr<const PlanBundle> bundle;
    std::size_t chain = 0;  // applies absorbed since the full build
    /// Pooled differential of each absorbed apply, in order (size == chain).
    std::vector<net::PacketSet> diffs;
    std::unordered_map<std::uint64_t, VerdictSet> verdicts;
  };

  [[nodiscard]] Entry* find_entry_locked(std::uint64_t key, std::uint64_t version,
                                         const topo::Scope& scope,
                                         const net::PacketSet& entering);
  void evict_locked();
  void refresh_gauge_locked();

  IncrementalOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
  std::uint64_t stamp_ = 0;
  IncrementalStats stats_;
};

}  // namespace jinjing::core
