// Placement: the exact kernel behind Equation 7 (fix) and Equation 10
// (generate), and per-class placement solving for the generate primitive
// (§5.2–§5.3).
//
// Both equations ask for one boolean decision per ACL slot such that, on
// every path, the AND of the path's slot decisions equals the path's
// desired decision, changing as few decisions as possible. A permit path
// forces each of its slots true; a deny path needs one of them false. After
// propagating the forced slots, what is left is a small minimum hitting set,
// solved exactly by branch and bound (PlacementProblem, solve_placement).
//
// For every ACL equivalence class, generate finds a decision function D(ξ)
// over the target interfaces so that each path reproduces the desired
// decision (Equation 10, over *all* topological paths at the AEC level).
// Classes with no such function are split into dataplane equivalence classes
// and re-solved over their *feasible* paths only (Y_[h]DEC).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/aec.h"
#include "core/planner.h"
#include "lai/sema.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace jinjing::core {

/// One placement instance. Variable i is a slot decision (true = permit)
/// whose zero-cost value is `preferred[i]`; taking the other value costs 1.
/// Each path contributes one constraint: the AND of its variables (and of
/// its constant slots) must equal its desired decision.
class PlacementProblem {
 public:
  explicit PlacementProblem(std::vector<bool> preferred) : preferred_(std::move(preferred)) {}

  /// Adds one path: `vars` are its decision variables, `blocked` says a
  /// constant slot on it denies, `permit` is its desired decision. A
  /// blocked path is already denied: it cannot permit, and needs nothing to
  /// deny.
  void add_path(std::vector<std::size_t> vars, bool blocked, bool permit);

  [[nodiscard]] const std::vector<bool>& preferred() const { return preferred_; }
  /// Variable sets that must all be true (permit paths).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& all_true() const {
    return all_true_;
  }
  /// Variable sets of which one must be false (deny paths).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& some_false() const {
    return some_false_;
  }
  /// A blocked path must permit: no assignment satisfies the instance.
  [[nodiscard]] bool blocked_permit() const { return blocked_permit_; }

 private:
  std::vector<bool> preferred_;
  std::vector<std::vector<std::size_t>> all_true_;
  std::vector<std::vector<std::size_t>> some_false_;
  bool blocked_permit_ = false;
};

struct Placement {
  std::vector<bool> values;  // one decision per variable
  std::size_t cost = 0;      // variables off their preferred value
  std::size_t nodes = 0;     // branch-and-bound nodes explored
};

/// Solves a placement instance exactly: nullopt when infeasible, otherwise
/// an assignment of minimum cost. Forced-true variables are propagated,
/// deny sets already hit by a variable that prefers false are dropped, and
/// the rest is branch and bound on the smallest unhit set, trying lower
/// variable indices first; the first optimum found is kept, so ties break
/// deterministically toward low indices.
[[nodiscard]] std::optional<Placement> solve_placement(const PlacementProblem& problem);

/// What generate is asked to do: replace the ACLs at `sources` (by default
/// with permit-all — the migration case; `replacements` pins a slot to any
/// other fixed ACL, the "arbitrary updates" extension of Equation 8) and
/// synthesize fresh ACLs at `targets`. A pure reachability-control task
/// (§6 / Figure 4d) uses empty sources.
struct MigrationSpec {
  std::vector<topo::AclSlot> sources;
  std::vector<topo::AclSlot> targets;
  topo::AclUpdate replacements;  // optional fixed ACLs for source slots

  /// The post-update decision of a source slot on a packet.
  [[nodiscard]] bool source_permits(topo::AclSlot slot, const net::Packet& h) const {
    const auto it = replacements.find(slot);
    return it == replacements.end() || it->second.permits(h);
  }
};

/// The solved decision function for one class (AEC or DEC).
struct ClassDecision {
  net::PacketSet cls;
  net::Packet representative;
  std::unordered_map<topo::AclSlot, bool, topo::AclSlotHash> decision;  // D(ξ), ξ ∈ T
  bool dec_level = false;  // solved after DEC refinement
};

struct PlacementResult {
  /// False when some DEC admits no decision function — the intent is
  /// infeasible within the given targets (§5.3).
  bool success = true;
  /// AEC-level solutions, indexed like the input classes (unsolved AECs
  /// have no entry here — see `dec_solutions`).
  std::unordered_map<std::size_t, ClassDecision> aec_solutions;
  /// DEC-level solutions, keyed by the index of their parent AEC.
  std::unordered_map<std::size_t, std::vector<ClassDecision>> dec_solutions;
  /// Classes (DEC level) with no valid decision function.
  std::vector<net::PacketSet> unsolved;
};

/// Outcome of solving a single AEC: either an AEC-level decision, or the
/// DEC refinement's solutions and unsolved remainders.
struct ClassOutcome {
  std::optional<ClassDecision> aec;
  std::vector<ClassDecision> decs;
  std::vector<net::PacketSet> unsolved;
};

class PlacementSolver {
 public:
  /// Solves over `planner`'s paths and forwarding sets (borrowed; the
  /// planner must outlive the solver).
  explicit PlacementSolver(const Planner& planner);

  /// Solves every class. `controls` switches the target decision from
  /// "preserve c_p" to the §6 desired decision. Classes are independent,
  /// so a multi-threaded `executor` fans them out; outcomes merge in class
  /// order either way. `probes` are polled before each class (Interrupted
  /// when one fires).
  [[nodiscard]] PlacementResult solve(const MigrationSpec& spec,
                                      const std::vector<net::PacketSet>& classes,
                                      const std::vector<lai::ControlIntent>& controls = {},
                                      Executor* executor = nullptr,
                                      const StopProbes& probes = {}) const;

  /// Equation 10 for one class over the given paths (indices into the
  /// planner's paths()), at the class representative; nullopt when no
  /// decision function exists.
  [[nodiscard]] std::optional<ClassDecision> solve_class(
      const MigrationSpec& spec, const net::PacketSet& cls,
      const std::vector<std::size_t>& path_set,
      const std::vector<lai::ControlIntent>& controls) const;

 private:
  /// One class's placement obligation: AEC-level solve over all paths,
  /// falling back to DEC refinement over feasible paths (§5.3).
  [[nodiscard]] ClassOutcome solve_one(const MigrationSpec& spec, const net::PacketSet& cls,
                                       const std::vector<lai::ControlIntent>& controls) const;

  const Planner& planner_;
};

}  // namespace jinjing::core
