// The plan stage of every Jinjing primitive, with no solver behind it.
//
// A Planner binds one (topology, scope) problem: it enumerates the scope's
// paths and their forwarding sets once, refines the entering traffic into
// equivalence classes through a shared topo::FecCache, and caches the
// resulting core::VerifyPlan per entering set. The engine's check scan
// (core/batch), the fixer, the generator's placement solver and the
// service's batch path all read one planner per scope; the SMT
// reproduction checker (core/checker) is a Planner with Algorithm 1's Z3
// execution stage on top.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/executor.h"
#include "core/plan.h"
#include "topo/fec.h"
#include "topo/fec_cache.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace jinjing::core {

struct PlanOptions {
  /// Return on the first violated FEC (the paper's check behaviour). Off =
  /// report one witness per violated FEC.
  bool stop_at_first = true;
  /// Classify entering traffic per entry interface against only the edges
  /// reachable from that entry (structured-topology fast path). Covers the
  /// same (class, feasible path) combinations as the global FECs.
  bool per_entry_fec = true;
  /// Worker threads for obligation execution and equivalence-class
  /// refinement. 1 = sequential (obligations run inline in plan order,
  /// which is the byte-deterministic mode). Ignored for execution when an
  /// explicit `executor` is installed.
  unsigned threads = 1;
  /// Shared equivalence-class cache. When unset the planner creates a
  /// private one, which still serves repeated plans on the same planner.
  std::shared_ptr<topo::FecCache> fec_cache;
  /// Shared obligation executor. When unset the planner lazily creates a
  /// private pool of `threads` workers.
  std::shared_ptr<Executor> executor;
  /// A complete planning bundle exported by an earlier planner over the
  /// same (topology structure, scope) — path enumeration is skipped and
  /// plan() for the bundle's entering set is a lookup. The caller owns the
  /// structural-compatibility guarantee (core::IncrementalPlanner keys
  /// bundles so only structurally identical problems match).
  std::shared_ptr<const PlanBundle> adopted_plan;
};

class Planner {
 public:
  /// Binds the planner to a network and scope. Paths are enumerated once
  /// (or taken from options.adopted_plan).
  Planner(const topo::Topology& topo, const topo::Scope& scope, const PlanOptions& options = {});

  /// The verification plan for `entering` traffic: the obligation DAG built
  /// from path enumeration + FEC refinement. Cached — the plan does not
  /// depend on the ACL update, so re-checks, fix searches and repeated
  /// engine commands reuse it.
  [[nodiscard]] const VerifyPlan& plan(const net::PacketSet& entering);

  /// Exports this planner's state for `entering` as a shareable bundle
  /// (building the plan first if needed). The bundle is immutable and
  /// self-contained: another planner adopting it never touches this one.
  [[nodiscard]] std::shared_ptr<const PlanBundle> share_plan(const net::PacketSet& entering);

  /// Seconds the last plan() call spent building (0 when it was cached).
  [[nodiscard]] double last_plan_seconds() const { return last_plan_seconds_; }

  /// The obligation executor: the installed shared one, or a lazily created
  /// private pool of options().threads workers.
  [[nodiscard]] Executor& executor();

  [[nodiscard]] const std::vector<topo::Path>& paths() const {
    return adopted_ ? adopted_->paths : paths_;
  }
  [[nodiscard]] const PlanOptions& options() const { return options_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const topo::Scope& scope() const { return scope_; }
  [[nodiscard]] topo::FecCache& fec_cache() { return *fec_cache_; }

  /// Paths whose forwarding predicates can carry `traffic` (the set Y).
  [[nodiscard]] std::vector<std::size_t> feasible_paths(const net::PacketSet& traffic) const;

  /// Per-entry classes of `entering` under this planner's scope, served
  /// from the FEC cache (classes do not depend on the update).
  [[nodiscard]] std::shared_ptr<const std::vector<topo::EntryClasses>> entry_classes(
      const net::PacketSet& entering);

  /// Global FECs of `entering`, cached likewise.
  [[nodiscard]] std::shared_ptr<const std::vector<net::PacketSet>> global_classes(
      const net::PacketSet& entering);

 protected:
  /// Forwarding set per path, parallel to paths().
  [[nodiscard]] const std::vector<net::PacketSet>& path_forwarding() const {
    return adopted_ ? adopted_->path_forwarding : path_forwarding_;
  }

 private:
  const topo::Topology& topo_;
  const topo::Scope scope_;
  PlanOptions options_;
  std::shared_ptr<topo::FecCache> fec_cache_;
  std::shared_ptr<const PlanBundle> adopted_;    // set: paths_/path_forwarding_ stay empty
  std::vector<topo::Path> paths_;
  std::vector<net::PacketSet> path_forwarding_;

  // Plan cache (keyed by the entering traffic).
  std::optional<net::PacketSet> plan_entering_;
  VerifyPlan plan_;
  double last_plan_seconds_ = 0;  // 0 on cache hit

  std::shared_ptr<Executor> own_executor_;  // lazily created when none installed
};

}  // namespace jinjing::core
