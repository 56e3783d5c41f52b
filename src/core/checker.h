// The check primitive (§4.1, Algorithm 1), as a plan/compile/execute
// pipeline.
//
// Verifies packet reachability consistency between the current ACL group
// L_Ω and a proposed update L'_Ω: for every forwarding equivalence class of
// the traffic entering Ω and every path that can carry it, the path decision
// must be unchanged. The decomposition into per-(entry, FEC) proof
// obligations is materialized as a core::VerifyPlan (plan stage), each
// obligation is lowered to the Z3 formula
//
//      ( ∨_{p ∈ Y} ¬(c_p ⇔ c'_p) ) ∧ ψ_[h]FEC            (Equation 3)
//
// by a CheckSession (compile stage), and the obligations run on the shared
// work-stealing core::Executor (execute stage) with early-exit cancellation
// for stop_at_first.
//
// The engine and the service do not run this SMT pipeline: their checks
// are the exact set scan of core/batch over the same plan, with the same
// verdicts. Checker::check is the paper's reproduction baseline, used by
// the benchmarks and as the tests' reference.
//
// Two lowerings reproduce the paper's comparison: Basic (whole ACLs, the
// Minesweeper-style baseline) and Differential (Theorem 4.1 reduction).
// When control intents are present the original decision c_p is replaced by
// the desired decision r_p(c_p) (§6).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/diff.h"
#include "core/executor.h"
#include "core/plan.h"
#include "lai/sema.h"
#include "smt/acl_encoder.h"
#include "smt/context.h"
#include "topo/fec.h"
#include "topo/fec_cache.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace jinjing::core {

struct CheckOptions {
  /// Theorem 4.1 preprocessing (off = the paper's "basic version").
  bool use_differential = true;
  /// ACL decision-model encoding (§4.1 optimization; Sequential = baseline).
  smt::EncoderStrategy encoder = smt::EncoderStrategy::Tree;
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
  /// Per-query Z3 deadline in milliseconds (0 = none). A query that hits
  /// the deadline surfaces as smt::SmtTimeout — never as "consistent".
  unsigned timeout_ms = 0;
  /// Shared equivalence-class cache. When unset the checker creates a
  /// private one, which still serves repeated check() calls on the same
  /// checker (fixer-style candidate loops). The Engine installs one cache
  /// across all its checkers/fixers.
  std::shared_ptr<topo::FecCache> fec_cache;
  /// Shared obligation executor. When unset the checker lazily creates a
  /// private pool of `threads` workers. The Engine installs one executor
  /// across its whole check/fix/generate pipeline.
  std::shared_ptr<Executor> executor;
  /// A complete planning bundle exported by an earlier checker over the
  /// same (topology structure, scope) — path enumeration is skipped and
  /// plan() for the bundle's entering set is a lookup. The caller owns the
  /// structural-compatibility guarantee (core::IncrementalPlanner keys
  /// bundles so only structurally identical problems match).
  std::shared_ptr<const PlanBundle> adopted_plan;
  topo::PathEnumOptions path_options;
};

/// One witnessed inconsistency, with the blame assignment operators ask
/// for first: the hop whose ACL decision on the witness changed, and the
/// rule each side used.
struct Violation {
  net::Packet witness;          // a concrete packet whose reachability changed
  std::size_t path_index = 0;   // index into Checker::paths()
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
void explain_violation(const topo::Topology& topo, const topo::ConfigView& before,
                       const topo::ConfigView& after, const topo::Path& path,
                       Violation& violation);

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
  double execute_seconds = 0;  // executor wall time for the obligation batch
};

/// Does a control intent span this path's endpoints (entry in `from`,
/// exit in `to`)? Only spanning intents rewrite the path's decision.
[[nodiscard]] bool intent_spans_path(const lai::ControlIntent& intent, const topo::Path& path);

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

class Checker;

/// The compile stage for one update: the before/after configuration views
/// and (in Differential lowering) the Theorem 4.1 reduced groups, computed
/// once and reused across obligations. Lowered ACL expressions and path
/// indicators are cached, so executing many obligations against one session
/// encodes each ACL a single time.
class CheckSession {
 public:
  CheckSession(Checker& checker, const topo::AclUpdate& update,
               const std::vector<lai::ControlIntent>& controls);

  /// Same, but issuing its SMT queries through `smt` instead of the
  /// checker's context — one session per worker in parallel execution (Z3
  /// contexts are single-threaded).
  CheckSession(Checker& checker, smt::SmtContext& smt, const topo::AclUpdate& update,
               const std::vector<lai::ControlIntent>& controls);

  /// Searches one packet in `fec` whose desired decision differs from the
  /// updated decision on some path of `feasible` (an obligation's path set
  /// Y, precomputed by the plan).
  [[nodiscard]] std::optional<Violation> find_violation(const net::PacketSet& fec,
                                                        const std::vector<std::size_t>& feasible);

  /// Seconds spent building this session (differential reduction — the
  /// fixed cost of the compile stage).
  [[nodiscard]] double build_seconds() const { return build_seconds_; }

 private:
  /// The slot's ACL as encoded for the given side (reduced or full).
  [[nodiscard]] const net::Acl& encoded_acl(topo::AclSlot slot, bool after_side) const;

  /// Cached f_ξ / f'_ξ encoding over the session's packet variables.
  [[nodiscard]] const z3::expr& acl_expr(topo::AclSlot slot, bool after_side);

  /// ¬(desired(c_p) ⇔ c'_p) for one path (Equation 3's per-path disjunct).
  [[nodiscard]] z3::expr path_inconsistency_expr(std::size_t path_index);

  /// Indicator for "path pi's desired and updated decisions differ". Its
  /// defining assertion is added to the incremental solver once, at the
  /// base frame, the first time the path participates in a query.
  [[nodiscard]] const z3::expr& path_inconsistent(std::size_t path_index);

  Checker& checker_;
  smt::SmtContext& smt_;
  topo::ConfigView before_;
  topo::ConfigView after_;
  std::vector<lai::ControlIntent> controls_;
  std::optional<ReducedGroups> reduced_;  // set in Differential lowering
  smt::PacketVars vars_;                  // shared by all queries in the session
  double build_seconds_ = 0;
  std::unordered_map<std::uint64_t, z3::expr> expr_cache_;
  std::optional<z3::solver> solver_;      // lives for the session
  std::unordered_map<std::size_t, z3::expr> path_flags_;
};

class Checker {
 public:
  /// Binds the checker to a network and scope. Paths are enumerated once.
  Checker(smt::SmtContext& smt, const topo::Topology& topo, const topo::Scope& scope,
          const CheckOptions& options = {});

  /// Runs Algorithm 1 for the update against `entering` traffic (X_Ω):
  /// plans the obligation set, compiles it against the update, and executes
  /// it on the shared executor. `controls` (optional, §6) switches the
  /// target from packet reachability consistency to desired reachability
  /// consistency.
  [[nodiscard]] CheckResult check(const topo::AclUpdate& update, const net::PacketSet& entering,
                                  const std::vector<lai::ControlIntent>& controls = {});

  /// The Minesweeper-flavoured baseline the paper argues against (§1):
  /// no equivalence classes at all — one monolithic formula asserting
  /// "some entering packet changes decision on some path", with every ACL
  /// encoded whole. Equisatisfiable with Algorithm 1's per-class queries
  /// but gives the solver no structure to exploit; used by the ablation
  /// benchmark. Ignores CheckOptions::use_differential/per_entry_fec.
  [[nodiscard]] CheckResult check_monolithic(const topo::AclUpdate& update,
                                             const net::PacketSet& entering);

  /// The verification plan for `entering` traffic: the obligation DAG built
  /// from path enumeration + FEC refinement. Cached — the plan does not
  /// depend on the ACL update, so checker re-runs, fixer candidate loops
  /// and repeated engine commands reuse it.
  [[nodiscard]] const VerifyPlan& plan(const net::PacketSet& entering);

  /// The compile-stage session for (update, controls), cached so repeated
  /// checks of the same update keep their incremental Z3 base frame.
  /// Invalidated when either differs from the cached pair.
  [[nodiscard]] CheckSession& session(const topo::AclUpdate& update,
                                      const std::vector<lai::ControlIntent>& controls);

  /// The obligation executor: the installed shared one, or a lazily created
  /// private pool of options().threads workers.
  [[nodiscard]] Executor& executor();

  /// Exports this checker's planning state for `entering` as a shareable
  /// bundle (building the plan first if needed). The bundle is immutable
  /// and self-contained: another checker adopting it never touches this
  /// checker again.
  [[nodiscard]] std::shared_ptr<const PlanBundle> share_plan(const net::PacketSet& entering);

  /// Seconds the last plan() call spent building (0 when it was cached).
  [[nodiscard]] double last_plan_seconds() const { return last_plan_seconds_; }

  [[nodiscard]] const std::vector<topo::Path>& paths() const {
    return adopted_ ? adopted_->paths : paths_;
  }
  [[nodiscard]] const CheckOptions& options() const { return options_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const topo::Scope& scope() const { return scope_; }
  [[nodiscard]] smt::SmtContext& smt() { return smt_; }

  /// Paths whose forwarding predicates can carry `traffic` (the set Y).
  [[nodiscard]] std::vector<std::size_t> feasible_paths(const net::PacketSet& traffic) const;

  /// Per-entry classes of `entering` under this checker's scope, derived
  /// with the configured backend and served from the FEC cache (classes do
  /// not depend on the update, so candidate loops hit).
  [[nodiscard]] std::shared_ptr<const std::vector<topo::EntryClasses>> entry_classes(
      const net::PacketSet& entering);

  /// Global FECs of `entering`, cached likewise.
  [[nodiscard]] std::shared_ptr<const std::vector<net::PacketSet>> global_classes(
      const net::PacketSet& entering);

  [[nodiscard]] topo::FecCache& fec_cache() { return *fec_cache_; }

 private:
  friend class CheckSession;

  [[nodiscard]] topo::FecOptions fec_options() const {
    return topo::FecOptions{options_.threads};
  }

  [[nodiscard]] const std::vector<net::PacketSet>& path_forwarding() const {
    return adopted_ ? adopted_->path_forwarding : path_forwarding_;
  }

  smt::SmtContext& smt_;
  const topo::Topology& topo_;
  const topo::Scope scope_;
  CheckOptions options_;
  std::shared_ptr<topo::FecCache> fec_cache_;
  std::shared_ptr<const PlanBundle> adopted_;    // set: paths_/path_forwarding_ stay empty
  std::vector<topo::Path> paths_;
  std::vector<net::PacketSet> path_forwarding_;  // forwarding set per path

  // Plan cache (keyed by the entering traffic).
  std::optional<net::PacketSet> plan_entering_;
  VerifyPlan plan_;
  double last_plan_seconds_ = 0;  // 0 on cache hit

  // Session cache. The session's ConfigView points at session_update_, so
  // the stored copies must outlive (and be rebuilt before) the session.
  topo::AclUpdate session_update_;
  std::vector<lai::ControlIntent> session_controls_;
  std::unique_ptr<CheckSession> session_;
  double last_session_seconds_ = 0;  // 0 on cache hit

  std::shared_ptr<Executor> own_executor_;  // lazily created when none installed
};

}  // namespace jinjing::core
