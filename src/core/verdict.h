// What a check answers (§4.1, §6), independent of how it was proven.
//
// The serving scan (core/batch) and the SMT reproduction checker
// (core/checker) report the same verdict types, and both evaluate control
// intents through the desired-decision rewrite r_p(c_p) defined here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lai/sema.h"
#include "net/packet_set.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace jinjing::core {

/// One witnessed inconsistency, with the blame assignment operators ask
/// for first: the hop whose ACL decision on the witness changed, and the
/// rule each side used.
struct Violation {
  net::Packet witness;          // a concrete packet whose reachability changed
  std::size_t path_index = 0;   // index into Planner::paths()
  bool decision_before = false; // desired decision on that path
  bool decision_after = false;  // decision under the update

  /// First hop on the path whose decision on the witness flipped (unset
  /// when the change is purely intent-driven, i.e. the ACLs agree but a
  /// control verb demands otherwise).
  std::optional<topo::AclSlot> changed_slot;
  std::string before_rule;  // rule text (or "default <action>") each side
  std::string after_rule;
};

/// Fills Violation::changed_slot/before_rule/after_rule by walking the
/// path's hops with both configuration views.
void explain_violation(const topo::ConfigView& before, const topo::ConfigView& after,
                       const topo::Path& path, Violation& violation);

struct CheckResult {
  bool consistent = true;
  std::vector<Violation> violations;  // one witness per violated FEC
  std::size_t fec_count = 0;
  std::size_t path_count = 0;
  std::uint64_t smt_queries = 0;

  // Per-stage breakdown of the pipeline.
  std::size_t obligation_count = 0;        // plan size
  std::size_t obligations_executed = 0;    // obligations whose query ran
  std::size_t obligations_cancelled = 0;   // skipped by stop_at_first early exit
  double plan_seconds = 0;     // plan build (0 when served from cache)
  double compile_seconds = 0;  // session build + formula lowering
  double solve_seconds = 0;    // inside Z3 check() calls
  double execute_seconds = 0;  // wall time of the obligation run
};

/// Does a control intent span this path's endpoints (entry in `from`,
/// exit in `to`)? Only spanning intents rewrite the path's decision.
[[nodiscard]] bool intent_spans_path(const lai::ControlIntent& intent, const topo::Path& path);

/// Does some control intent span the path? Only then may its desired
/// decision differ from its before decision.
[[nodiscard]] bool any_intent_spans_path(const std::vector<lai::ControlIntent>& controls,
                                         const topo::Path& path);

/// The desired decision for a path/packet after applying control intents:
/// open => permit, isolate => deny, maintain (or no matching intent) =>
/// keep the original decision. First matching intent wins (§6).
[[nodiscard]] bool desired_decision(const std::vector<lai::ControlIntent>& controls,
                                    const topo::Path& path, const net::Packet& h,
                                    bool original_decision);

/// The set dual of desired_decision over a region: the packets of `clip`
/// the path should permit, given `original` (the packets of `clip` it
/// permits before the update).
[[nodiscard]] net::PacketSet desired_set(const std::vector<lai::ControlIntent>& controls,
                                         const topo::Path& path, const net::PacketSet& original,
                                         const net::PacketSet& clip);

}  // namespace jinjing::core
