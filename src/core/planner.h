// The plan stage of every Jinjing primitive, with no solver behind it.
//
// A Planner binds one (topology, scope) problem: it enumerates the scope's
// paths and their forwarding sets once, refines the entering traffic into
// equivalence classes, and caches the resulting core::VerifyPlan per
// entering set. The engine's check scan (core/batch), the fixer and the
// generator's placement solver all read one planner per scope, and the
// service builds each scope's plan once; the SMT reproduction checker
// (core/checker) is a Planner with Algorithm 1's Z3 execution stage on top.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "topo/fec.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace jinjing::core {

class AecMemo;

struct PlanOptions {
  /// Return on the first violated FEC (the paper's check behaviour). Off =
  /// report one witness per violated FEC.
  bool stop_at_first = true;
  /// Classify entering traffic per entry interface against only the edges
  /// reachable from that entry (structured-topology fast path). Covers the
  /// same (class, feasible path) combinations as the global FECs.
  bool per_entry_fec = true;
  /// Memo for generate's AEC overlay (borrowed; null = overlay every time).
  /// The service shares one across its jobs.
  AecMemo* aec_memo = nullptr;
  /// A complete planning bundle exported by an earlier planner over the
  /// same (topology structure, scope) — path enumeration is skipped and
  /// plan() for the bundle's entering set is a lookup. The caller owns the
  /// structural-compatibility guarantee (svc::Server's plan cache keys
  /// bundles by scope over versions that share edges and forwarding).
  std::shared_ptr<const PlanBundle> adopted_plan;
};

class Planner {
 public:
  /// Binds the planner to a network and scope. Paths are enumerated once
  /// (or taken from options.adopted_plan).
  Planner(const topo::Topology& topo, const topo::Scope& scope, const PlanOptions& options = {});

  /// The verification plan for `entering` traffic: the obligation DAG built
  /// from path enumeration + FEC refinement (per entry or global, by
  /// options().per_entry_fec). Cached — the plan does not depend on the ACL
  /// update, so re-checks, fix searches and repeated engine commands reuse
  /// it.
  [[nodiscard]] const VerifyPlan& plan(const net::PacketSet& entering);

  /// Exports this planner's state for `entering` as a shareable bundle
  /// (building the plan first if needed). The bundle is immutable and
  /// self-contained: another planner adopting it never touches this one.
  [[nodiscard]] std::shared_ptr<const PlanBundle> share_plan(const net::PacketSet& entering);

  /// Seconds the last plan() call spent building (0 when it was cached).
  [[nodiscard]] double last_plan_seconds() const { return last_plan_seconds_; }

  [[nodiscard]] const std::vector<topo::Path>& paths() const {
    return adopted_ ? adopted_->paths : paths_;
  }
  [[nodiscard]] const PlanOptions& options() const { return options_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const topo::Scope& scope() const { return scope_; }

  /// Paths whose forwarding predicates can carry `traffic` (the set Y).
  [[nodiscard]] std::vector<std::size_t> feasible_paths(const net::PacketSet& traffic) const;

 protected:
  /// Forwarding set per path, parallel to paths().
  [[nodiscard]] const std::vector<net::PacketSet>& path_forwarding() const {
    return adopted_ ? adopted_->path_forwarding : path_forwarding_;
  }

 private:
  const topo::Topology& topo_;
  const topo::Scope scope_;
  PlanOptions options_;
  std::shared_ptr<const PlanBundle> adopted_;    // set: paths_/path_forwarding_ stay empty
  std::vector<topo::Path> paths_;
  std::vector<net::PacketSet> path_forwarding_;

  // Plan cache (keyed by the entering traffic).
  std::optional<net::PacketSet> plan_entering_;
  VerifyPlan plan_;
  double last_plan_seconds_ = 0;  // 0 on cache hit
};

}  // namespace jinjing::core
