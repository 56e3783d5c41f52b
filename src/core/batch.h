// Set-algebra execution of pure-check scans.
//
// A scan checks one or more updates against one PlanBundle (the same
// snapshot version, scope and entering traffic). Each update is reduced
// first to its changed regions (core/diff, Theorem 4.1): per rewritten
// slot, the union of its differential rules' matches, outside which the
// slot decides every packet as before. An obligation's path is then walked
// on both sides — the base configuration and the update, with
// net::permitted_within — only over its clip: the changed regions of its
// rewritten hops and the headers of the control intents spanning it,
// within the obligation's FEC (path_clip). Outside the clip both sides
// agree, so a path with an empty clip compares equal without a walk. An
// obligation is violated iff some feasible path's clipped permitted set
// differs from its desired set — the before-set itself, or, on a path a
// control intent spans, the before-set rewritten by core::desired_set
// (§6). That is the exact header-space dual of the checker's Equation 3
// query, so the verdict is identical to a fresh Checker::check, and no SMT
// query is issued.
//
// The scan walks obligations in index order on the calling thread. The
// witness is derived where the violation is found: the first feasible path
// whose sides differ, and the first sample of that difference. Under
// stop_at_first the scan ends at the first violated obligation, so the
// reported one is the minimal violated obligation.
//
// Cancellation and deadlines are cooperative and per update: the scan
// polls each item's probes between obligations, so a cancelled or expired
// item's remaining obligations are dropped without perturbing the others.
#pragma once

#include <memory>
#include <vector>

#include "core/plan.h"
#include "core/stop_probes.h"
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

/// One update to scan.
struct BatchItem {
  const topo::AclUpdate* update = nullptr;
  /// Cancellation and deadline probes, polled between obligations; a fired
  /// probe ends the item's scan (BatchOutcome::cancelled/deadline_expired).
  StopProbes probes;
  /// The update's control intents (§6); null or empty = plain consistency.
  /// An obligation with a path some intent spans is scanned even when the
  /// update rewrites none of its slots.
  const std::vector<lai::ControlIntent>* controls = nullptr;
};

/// Per-item result of a scan.
struct BatchOutcome {
  CheckResult result;
  bool cancelled = false;
  bool deadline_expired = false;
};

struct BatchRunOptions {
  /// Report only the minimal violated obligation (the check behaviour).
  bool stop_at_first = true;
};

/// Checks every item's update against the algebra, which must have been
/// built for `topo`. Outcomes come back in item order; each is equal
/// (verdict, minimal violated obligation, canonical witness) to a fresh
/// check of the same update at the same snapshot. An obligation counts in
/// CheckResult::obligations_executed only when some path of it has a
/// nonempty clip and was walked; untouched obligations and those whose
/// every clip is empty are skipped.
[[nodiscard]] std::vector<BatchOutcome> run_check_batch(const topo::Topology& topo,
                                                        const BatchAlgebra& algebra,
                                                        const std::vector<BatchItem>& items,
                                                        const BatchRunOptions& options = {});

}  // namespace jinjing::core
