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
// by a CheckSession (compile stage), and the obligations run in plan order
// (execute stage), the first violation ending the run under stop_at_first.
//
// The engine and the service do not run this SMT pipeline: they plan with
// a core::Planner and check with the exact set scan of core/batch over the
// same plan, with the same verdicts. Checker is a Planner plus the Z3
// compile/execute stages — the paper's reproduction baseline, built into
// the only library that links Z3 and used by the benchmarks, the workload
// replay and as the tests' reference.
//
// Two lowerings reproduce the paper's comparison: Basic (whole ACLs, the
// Minesweeper-style baseline) and Differential (Theorem 4.1 reduction).
// When control intents are present the original decision c_p is replaced by
// the desired decision r_p(c_p) (§6).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/diff.h"
#include "core/planner.h"
#include "core/verdict.h"
#include "lai/sema.h"
#include "smt/acl_encoder.h"
#include "smt/context.h"

namespace jinjing::core {

/// The plan options plus the knobs of the SMT lowering.
struct CheckOptions : PlanOptions {
  /// Theorem 4.1 preprocessing (off = the paper's "basic version").
  bool use_differential = true;
  /// ACL decision-model encoding (§4.1 optimization; Sequential = baseline).
  smt::EncoderStrategy encoder = smt::EncoderStrategy::Tree;
  /// Per-query Z3 deadline in milliseconds (0 = none). A query that hits
  /// the deadline surfaces as smt::SmtTimeout — never as "consistent".
  unsigned timeout_ms = 0;
};

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

class Checker : public Planner {
 public:
  /// Binds the checker to a network and scope. Paths are enumerated once.
  Checker(smt::SmtContext& smt, const topo::Topology& topo, const topo::Scope& scope,
          const CheckOptions& options = {});

  /// Runs Algorithm 1 for the update against `entering` traffic (X_Ω):
  /// plans the obligation set, compiles it against the update, and executes
  /// it in plan order. `controls` (optional, §6) switches the
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

  /// The compile-stage session for (update, controls), cached so repeated
  /// checks of the same update keep their incremental Z3 base frame.
  /// Invalidated when either differs from the cached pair.
  [[nodiscard]] CheckSession& session(const topo::AclUpdate& update,
                                      const std::vector<lai::ControlIntent>& controls);

  [[nodiscard]] const CheckOptions& options() const { return options_; }
  [[nodiscard]] smt::SmtContext& smt() { return smt_; }

 private:
  smt::SmtContext& smt_;
  CheckOptions options_;

  // Session cache. The session's ConfigView points at session_update_, so
  // the stored copies must outlive (and be rebuilt before) the session.
  topo::AclUpdate session_update_;
  std::vector<lai::ControlIntent> session_controls_;
  std::unique_ptr<CheckSession> session_;
  double last_session_seconds_ = 0;  // 0 on cache hit
};

}  // namespace jinjing::core
