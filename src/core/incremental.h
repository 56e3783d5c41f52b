// The SMT side of incremental cross-version verification: a delta-scoped
// Checker run against an IncrementalPlanner lease (see
// core/incremental_planner.h for the planner and its soundness argument).
// Part of the reproduction library; the service only needs the planner.
#pragma once

#include <cstddef>
#include <vector>

#include "core/checker.h"
#include "core/incremental_planner.h"

namespace jinjing::core {

/// Outcome of one delta-scoped check execution (run_incremental_check).
struct IncrementalOutcome {
  CheckResult result;
  /// Obligations now known consistent under the update — feed to
  /// IncrementalPlanner::commit so later re-checks of the same pending
  /// update (e.g. after an apply_if_head conflict) skip them.
  std::vector<bool> clean;
  std::size_t reused = 0;   // skipped via leased verdicts
  std::size_t skipped = 0;  // untouched by the update (touches() == false)
  /// Stale obligations resolved by delta-refining the class and querying
  /// only the sub-atoms the diffs touch.
  std::size_t delta_checked = 0;
};

/// Executes a check of `update` against a leased plan, delta-scoped:
/// obligations the update cannot touch are trivially consistent, leased
/// verdicts are reused, stale verdicts are re-proven only on the sub-atoms
/// their invalidating diffs touch (topo::refine_delta), and only the rest
/// get full SMT queries (in plan order, honouring
/// CheckOptions::stop_at_first). The checker must have adopted the lease's
/// bundle. The consistency verdict — and any reported witness — is
/// identical to a full Checker::check of the same update.
[[nodiscard]] IncrementalOutcome run_incremental_check(Checker& checker,
                                                       const IncrementalLease& lease,
                                                       const topo::AclUpdate& update);

}  // namespace jinjing::core
