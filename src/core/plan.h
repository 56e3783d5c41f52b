// The verification-obligation IR — the "Plan" stage of the
// plan/compile/execute pipeline.
//
// Every Jinjing primitive (check §4.1, fix §5, generate §5.2) reduces to
// the same unit of work: one proof obligation per (entry, FEC,
// feasible-path-set) triple, scanned by set algebra (core/batch, the fix
// search) or, in the SMT baseline, lowered to one query. A VerifyPlan makes
// that decomposition explicit: it is built once per UpdateTask from path
// enumeration + equivalence-class refinement (core::Planner) and does NOT
// depend on the ACL update under test, so check scans, fix searches and
// repeated engine commands all execute against the same plan. Obligations
// carry the precomputed ACL slots their paths traverse, which is what lets
// an incremental re-execution skip obligations an update cannot affect.
//
// The obligation graph is a (currently edge-free) DAG: obligations are
// mutually independent; every consumer runs them in `index` order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet_set.h"
#include "topo/fec.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace jinjing::core {

/// One proof obligation: "no packet of `fec` changes its (desired)
/// decision on any path in `paths`". `fec` points into class storage owned
/// by the plan; `paths` indexes the planner's path enumeration.
struct Obligation {
  std::size_t index = 0;                   // position in deterministic plan order
  std::optional<topo::InterfaceId> entry;  // set in per-entry classification mode
  const net::PacketSet* fec = nullptr;
  std::vector<std::size_t> paths;          // feasible paths (the set Y), ascending
  std::vector<topo::AclSlot> slots;        // ACL slots on those paths, sorted unique
};

/// Does the update rewrite any ACL slot this obligation's paths traverse?
/// When false (and no control intents are in play) the obligation is
/// trivially satisfied: every hop decision is unchanged.
[[nodiscard]] bool touches(const Obligation& obligation, const topo::AclUpdate& update);

class VerifyPlan {
 public:
  struct Stats {
    double plan_seconds = 0;     // wall time of the plan build
    std::size_t fec_count = 0;   // classes across all entries
    std::size_t path_count = 0;  // enumerated paths in scope
  };

  VerifyPlan() = default;

  [[nodiscard]] const std::vector<Obligation>& obligations() const { return obligations_; }
  [[nodiscard]] std::size_t size() const { return obligations_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Obligation count an update actually has to re-execute (`touches`);
  /// with control intents present every obligation is live.
  [[nodiscard]] std::size_t live_count(const topo::AclUpdate& update, bool has_controls) const;

 private:
  friend VerifyPlan build_verify_plan(
      const std::vector<topo::Path>& paths,
      const std::vector<net::PacketSet>& path_forwarding,
      std::shared_ptr<const std::vector<topo::EntryClasses>> entry_classes);
  friend VerifyPlan build_verify_plan(
      const std::vector<topo::Path>& paths,
      const std::vector<net::PacketSet>& path_forwarding,
      std::shared_ptr<const std::vector<net::PacketSet>> global_classes);

  // Class storage the obligations point into.
  std::shared_ptr<const std::vector<topo::EntryClasses>> entry_classes_;
  std::shared_ptr<const std::vector<net::PacketSet>> global_classes_;
  std::vector<Obligation> obligations_;
  Stats stats_;
};

/// The complete update-independent planning state of one (topology
/// structure, scope, entering traffic) verification problem: the enumerated
/// paths, their forwarding sets, and the obligation plan for one entering
/// set. A Planner exports its state as a bundle (Planner::share_plan) and
/// can adopt one instead of re-enumerating (PlanOptions::adopted_plan);
/// svc::Server keeps one bundle per scope across svc::StateStore versions —
/// an ACL-only apply copies the topology but never changes edges or
/// forwarding predicates, so paths and FEC refinements stay valid verbatim.
struct PlanBundle {
  std::vector<topo::Path> paths;
  std::vector<net::PacketSet> path_forwarding;  // forwarding set per path
  net::PacketSet entering;                      // the traffic `plan` was built for
  VerifyPlan plan;
};

/// Builds the per-entry plan: one obligation per (entry, class), in the
/// classifier's deterministic order, with feasible paths restricted to the
/// entry (the per-entry fast path of Algorithm 1).
[[nodiscard]] VerifyPlan build_verify_plan(
    const std::vector<topo::Path>& paths, const std::vector<net::PacketSet>& path_forwarding,
    std::shared_ptr<const std::vector<topo::EntryClasses>> entry_classes);

/// Builds the global-FEC plan: one obligation per class over all feasible
/// paths (Equation 2 without the per-entry restriction).
[[nodiscard]] VerifyPlan build_verify_plan(
    const std::vector<topo::Path>& paths, const std::vector<net::PacketSet>& path_forwarding,
    std::shared_ptr<const std::vector<net::PacketSet>> global_classes);

}  // namespace jinjing::core
