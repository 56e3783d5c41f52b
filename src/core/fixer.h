// The fix primitive (§4.2): repairing an update that fails check.
//
// Phase 1 (seeking neighborhoods): per live plan obligation, compute the
// exact violating region ⋃_p (desired_p Δ after_p) of its class by set
// algebra, and split it into Equation 6 cells — the neighborhoods.
//
// Phase 2 (fixing plan generation): for each neighborhood, solve for a
// per-interface decision function D_[h]N (Equation 7) with the exact
// placement kernel (core/placement.h):
//  * every feasible path must reproduce the desired decision; interfaces
//    outside `allow` keep their post-update decision;
//  * the number of interfaces changed is minimal.
// Each slot whose solved decision differs from the updated ACL's for some
// neighborhoods gets one merged block prepended: a permit cover, then a
// deny cover, of those neighborhoods in first-match order. Neither phase
// issues an SMT query.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/planner.h"
#include "lai/sema.h"

namespace jinjing::core {

struct FixOptions {
  /// Run the §4.2 simplification pass on every ACL the fix touches.
  bool simplify_result = true;
  /// Guard against runaway neighborhood enumeration.
  std::size_t max_neighborhoods = 4096;
  /// Skip plan obligations whose feasible paths traverse no slot the
  /// candidate update rewrites: with no control intents, such obligations
  /// cannot violate (before == after on every hop), so re-executions in a
  /// candidate loop only pay for what changed. Off = execute every
  /// obligation (the seed behaviour, kept for the parity property test).
  bool replan_touched_only = true;
};

/// The block prepended (highest priority) to one slot's updated ACL: the
/// compacted permit cover, then the deny cover, before simplification.
struct FixAction {
  topo::AclSlot slot;
  std::vector<net::AclRule> rules;
};

/// One violating neighborhood and whether a repair could be placed for it.
/// The neighborhood is a whole Equation-6 uniform region (every packet in
/// it is forwarded, filtered and steered by intents exactly like the
/// representative), generalizing the paper's single rule-shaped tuple:
/// emitting one region instead of its prefix-block fragments produces the
/// same rules with far fewer placement queries.
struct NeighborhoodReport {
  net::PacketSet set;
  net::Packet representative;
  bool solved = true;
};

struct FixResult {
  /// True when every neighborhood admitted a repair within `allow`.
  bool success = true;
  /// Plan order, then split order within an obligation; a region already
  /// covered by an earlier obligation's neighborhood is not reported again.
  std::vector<NeighborhoodReport> neighborhoods;
  /// One merged block per touched slot (permits, then denies), by slot.
  std::vector<FixAction> actions;
  /// The repaired update: the proposed update with each slot's block
  /// prepended (and simplified when FixOptions::simplify_result is set).
  topo::AclUpdate fixed_update;

  /// Plan consumption: how many obligations the violation search covered,
  /// and how many were skipped as untouched by the update.
  std::size_t obligations = 0;
  std::size_t obligations_skipped = 0;

  // Phase timing (seconds), for the Figure 4b analysis.
  double search_seconds = 0;   // violating regions (class-clipped path walks)
  double enlarge_seconds = 0;  // splitting them into Equation 6 cells
  double place_seconds = 0;    // per-neighborhood placement solving
  double assemble_seconds = 0; // rule emission + simplification
};

/// Equation 7 at one neighborhood's representative `h`: the fewest slots
/// of `allowed` whose decision on `h` must flip from the update's so that
/// every path of `feasible` (indices into `paths`) reproduces its desired
/// decision, every other slot keeping the update's. Nullopt when no such
/// set exists. Ties go to the slots first met along `feasible`.
[[nodiscard]] std::optional<std::vector<topo::AclSlot>> place_neighborhood(
    const std::vector<topo::Path>& paths, const std::vector<std::size_t>& feasible,
    const topo::ConfigView& before, const topo::ConfigView& after,
    const std::vector<topo::AclSlot>& allowed, const std::vector<lai::ControlIntent>& controls,
    const net::Packet& h);

class Fixer {
 public:
  /// Repairs updates over `planner`'s scope, reading its paths and plans
  /// (borrowed; it must outlive the fixer).
  explicit Fixer(Planner& planner, const FixOptions& options = {});

  /// Repairs `update` so that `entering` traffic keeps the desired
  /// reachability. `allowed` lists the slots fix may touch (from `allow`).
  /// `probes` are polled before each obligation and each neighborhood
  /// (Interrupted when one fires).
  [[nodiscard]] FixResult fix(const topo::AclUpdate& update, const net::PacketSet& entering,
                              const std::vector<topo::AclSlot>& allowed,
                              const std::vector<lai::ControlIntent>& controls = {},
                              const StopProbes& probes = {});

 private:
  Planner& planner_;
  FixOptions options_;
};

}  // namespace jinjing::core
