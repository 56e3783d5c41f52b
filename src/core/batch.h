// Set-algebra execution of pure-check jobs, alone or coalesced.
//
// A dispatch unit is a group of one or more pure-check jobs against the
// same (snapshot version, scope, entering traffic) — i.e. the same
// PlanBundle. Each job's update is reduced first to its changed regions
// (core/diff, Theorem 4.1): per rewritten slot, the union of its
// differential rules' matches, outside which the slot decides every packet
// as before. An obligation's path is then walked on both sides — the base
// configuration and the update, with net::permitted_within — only over its
// clip: the changed regions of its rewritten hops and the headers of the
// control intents spanning it, within the obligation's FEC (path_clip).
// Outside the clip both sides agree, so a path with an empty clip compares
// equal without a walk. An obligation is violated iff some feasible path's
// clipped permitted set differs from its desired set — the before-set
// itself, or, on a path a control intent spans, the before-set rewritten by
// core::desired_set (§6). That is the exact header-space dual of the
// checker's Equation 3 query, so the verdict is identical to a fresh
// Checker::check, and no SMT query is issued.
//
// Sharding: obligations are partitioned by entry interface (the plan's
// per-gateway structure; round-robin in global-FEC mode) and the batch is
// fanned out over the shared core::Executor as (job × shard) tasks. A
// per-job atomic minimum over violated obligation indices makes the
// stop_at_first answer deterministic regardless of scheduling — any
// violation at an index below the final minimum would itself have been
// scanned and lowered the minimum — and the reported witness is re-derived
// canonically (first feasible path, first changed-region sample) at that
// minimal obligation after the fan-out completes.
//
// Cancellation and deadlines are cooperative and per-job: every shard
// polls the job's probes between obligations, so a cancelled or expired
// job's remaining obligations are dropped without perturbing batchmates.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/executor.h"
#include "core/plan.h"
#include "core/verdict.h"
#include "topo/topology.h"

namespace jinjing::core {

/// The per-version state shared by every job checked against one plan: the
/// plan bundle and the topology whose base ACLs the before side reads.
/// Immutable once built; the scans keep no per-version sets.
struct BatchAlgebra {
  std::shared_ptr<const PlanBundle> bundle;
  /// The topology of the base configuration (borrowed; it must outlive the
  /// algebra).
  const topo::Topology* topo = nullptr;
};

/// Prepares the algebra for `bundle` against `topo`'s base ACLs.
[[nodiscard]] BatchAlgebra build_batch_algebra(const topo::Topology& topo,
                                               std::shared_ptr<const PlanBundle> bundle);

/// One job of a dispatch unit (a batch of one or more jobs).
struct BatchItem {
  const topo::AclUpdate* update = nullptr;
  /// Cancellation and deadline probes, polled between obligations; a fired
  /// probe ends the job's scan (BatchOutcome::cancelled/deadline_expired).
  StopProbes probes;
  /// Obligations already proven consistent for this update (indexed by
  /// Obligation::index; may be shorter or empty). They are not scanned —
  /// the incremental planner's leased verdicts, so a fully clean re-check
  /// scans nothing. Only sound bits may be passed.
  std::vector<bool> clean = {};
  /// The job's control intents (§6); null or empty = plain consistency.
  /// An obligation with a path some intent spans is scanned even when the
  /// update rewrites none of its slots.
  const std::vector<lai::ControlIntent>* controls = nullptr;
};

/// Per-job result of a batch run.
struct BatchOutcome {
  CheckResult result;
  /// Obligations proven consistent under the job's update and intents
  /// (untouched and unsteered, passed in as clean, or scanned without a
  /// differing path set) — for an intent-free job, commit these to the
  /// incremental planner so identical re-checks skip them.
  std::vector<bool> clean;
  bool cancelled = false;
  bool deadline_expired = false;
};

struct BatchRunOptions {
  /// Report only the minimal violated obligation (the check behaviour).
  bool stop_at_first = true;
  /// Shared pool the (job × shard) tasks run on; nullptr = inline on the
  /// calling thread.
  Executor* executor = nullptr;
  /// Upper bound on obligation shards (per-entry groups are merged
  /// round-robin beyond it).
  std::size_t max_shards = 8;
};

/// Checks every item's update against the algebra, which must have been
/// built for `topo`. Outcomes come back in item order; each is equal
/// (verdict, minimal violated obligation, canonical witness) to a fresh
/// single-job check of the same update at the same snapshot.
[[nodiscard]] std::vector<BatchOutcome> run_check_batch(const topo::Topology& topo,
                                                        const BatchAlgebra& algebra,
                                                        const std::vector<BatchItem>& items,
                                                        const BatchRunOptions& options = {});

}  // namespace jinjing::core
