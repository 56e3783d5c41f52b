#include "core/checker.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "net/acl_algebra.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "smt/encode.h"

namespace jinjing::core {

namespace {

/// Cache key for per-slot-per-side ACL expressions: (iface, direction,
/// before/after side) packed into distinct bit fields.
std::uint64_t acl_expr_key(topo::AclSlot slot, bool after_side) {
  return (std::uint64_t{slot.iface} << 2) |
         (std::uint64_t{slot.dir == topo::Dir::Out} << 1) | std::uint64_t{after_side};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool same_controls(const std::vector<lai::ControlIntent>& a,
                   const std::vector<lai::ControlIntent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].verb != b[i].verb || a[i].from != b[i].from || a[i].to != b[i].to ||
        !a[i].header.equals(b[i].header)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Checker::Checker(smt::SmtContext& smt, const topo::Topology& topo, const topo::Scope& scope,
                 const CheckOptions& options)
    : Planner(topo, scope, options), smt_(smt), options_(options) {
  if (options_.timeout_ms > 0) smt_.set_timeout_ms(options_.timeout_ms);
}

CheckSession& Checker::session(const topo::AclUpdate& update,
                               const std::vector<lai::ControlIntent>& controls) {
  if (session_ && session_update_ == update && same_controls(session_controls_, controls)) {
    last_session_seconds_ = 0;
    obs::count(obs::Counter::SmtFrameReuses);
    return *session_;
  }
  // The session's ConfigView points at the stored copy, so tear the old
  // session down before replacing what it points at.
  session_.reset();
  session_update_ = update;
  session_controls_ = controls;
  session_ = std::make_unique<CheckSession>(*this, session_update_, session_controls_);
  last_session_seconds_ = session_->build_seconds();
  return *session_;
}

CheckSession::CheckSession(Checker& checker, const topo::AclUpdate& update,
                           const std::vector<lai::ControlIntent>& controls)
    : CheckSession(checker, checker.smt(), update, controls) {}

CheckSession::CheckSession(Checker& checker, smt::SmtContext& smt,
                           const topo::AclUpdate& update,
                           const std::vector<lai::ControlIntent>& controls)
    : checker_(checker),
      smt_(smt),
      before_(checker.topology()),
      after_(checker.topology(), &update),
      controls_(controls),
      vars_(smt.packet_vars()) {
  const obs::TraceSpan span{obs::Span::CheckerCompile};
  obs::count(obs::Counter::SmtSessionsBuilt);
  const auto start = std::chrono::steady_clock::now();
  if (checker.options().use_differential) {
    const auto slots = after_.bound_slots();
    auto reduced = reduce_by_differential(before_, after_, slots);
    // §6: traffic named by control intents can legitimately change decision,
    // so rules overlapping it must survive the Theorem 4.1 reduction.
    if (!controls_.empty()) {
      auto diff = std::move(reduced.diff);
      for (const auto& intent : controls_) {
        if (intent.verb == lai::ControlVerb::Maintain) continue;
        for (auto& rule : net::rules_for_set(intent.header, net::Action::Permit)) {
          diff.push_back(std::move(rule));
        }
      }
      reduced = ReducedGroups{};
      reduced.diff = std::move(diff);
      for (const auto slot : slots) {
        reduced.before.emplace(slot, related_rules(before_.acl(slot), reduced.diff));
        reduced.after.emplace(slot, related_rules(after_.acl(slot), reduced.diff));
      }
    }
    reduced_ = std::move(reduced);
  }
  build_seconds_ = seconds_since(start);
}

const net::Acl& CheckSession::encoded_acl(topo::AclSlot slot, bool after_side) const {
  if (reduced_) {
    const auto& group = after_side ? reduced_->after : reduced_->before;
    const auto it = group.find(slot);
    if (it != group.end()) return it->second;
  }
  return after_side ? after_.acl(slot) : before_.acl(slot);
}

const z3::expr& CheckSession::acl_expr(topo::AclSlot slot, bool after_side) {
  const std::uint64_t key = acl_expr_key(slot, after_side);
  const auto it = expr_cache_.find(key);
  if (it != expr_cache_.end()) return it->second;
  const z3::expr expr =
      smt::acl_permits(vars_, encoded_acl(slot, after_side), checker_.options().encoder);
  return expr_cache_.emplace(key, expr).first->second;
}

/// ¬(desired(c_p) ⇔ c'_p) for one path — the per-path disjunct of
/// Equation 3, with c_p transformed by the control decision model r_p when
/// intents are present (§6).
z3::expr CheckSession::path_inconsistency_expr(std::size_t path_index) {
  auto& smt = smt_;
  const auto& h = vars_;
  const auto& path = checker_.paths()[path_index];

  const auto path_decision = [&](bool after_side) {
    z3::expr expr = smt.bool_val(true);
    for (const auto& hop : path.hops()) {
      const net::Acl& acl = encoded_acl(hop.slot(), after_side);
      if (acl.empty() && acl.default_action() == net::Action::Permit) continue;
      expr = expr && acl_expr(hop.slot(), after_side);
    }
    return expr;
  };

  const z3::expr original = path_decision(/*after_side=*/false);
  z3::expr desired = original;
  for (auto it = controls_.rbegin(); it != controls_.rend(); ++it) {
    if (!intent_spans_path(*it, path)) continue;
    z3::expr value = smt.bool_val(true);
    switch (it->verb) {
      case lai::ControlVerb::Open: value = smt.bool_val(true); break;
      case lai::ControlVerb::Isolate: value = smt.bool_val(false); break;
      case lai::ControlVerb::Maintain: value = original; break;
    }
    desired = z3::ite(smt::set_expr(h, it->header), value, desired);
  }
  const z3::expr updated = path_decision(/*after_side=*/true);
  return desired != updated;
}

const z3::expr& CheckSession::path_inconsistent(std::size_t path_index) {
  const auto it = path_flags_.find(path_index);
  if (it != path_flags_.end()) return it->second;
  const z3::expr flag =
      smt_.ctx().bool_const(("jj_incons_" + std::to_string(path_index)).c_str());
  // Asserted at the solver's base frame: callers only push() after every
  // flag of the query has been defined.
  solver_->add(flag == path_inconsistency_expr(path_index));
  return path_flags_.emplace(path_index, flag).first->second;
}

std::optional<Violation> CheckSession::find_violation(const net::PacketSet& fec,
                                                      const std::vector<std::size_t>& feasible) {
  if (feasible.empty()) return std::nullopt;

  auto& smt = smt_;
  const auto& h = vars_;

  // One solver for the whole session: each path's inconsistency disjunct
  // is asserted once (as a named indicator at the base frame), so the
  // solver internalizes every ACL expression a single time and reuses
  // learned clauses across the per-FEC queries. Only the query-specific
  // ψ_[h]FEC constraint lives inside the push/pop frame.
  if (!solver_) solver_.emplace(smt.make_solver());
  z3::expr any_inconsistent = smt.bool_val(false);
  for (const std::size_t pi : feasible) {
    any_inconsistent = any_inconsistent || path_inconsistent(pi);
  }
  solver_->push();
  solver_->add(any_inconsistent);
  solver_->add(smt::set_expr(h, fec));  // ψ_[h]FEC
  obs::count(obs::Counter::SmtQueriesCached);
  const std::optional<net::Packet> witness = smt.solve_for_packet(*solver_, h);
  solver_->pop();
  if (!witness) return std::nullopt;

  // Locate the violated path by concrete evaluation on the *full* views
  // (sound per Theorem 4.1: reduced and full verdicts agree pointwise).
  for (const std::size_t pi : feasible) {
    const auto& path = checker_.paths()[pi];
    const bool original = topo::path_permits(before_, path, *witness);
    const bool desired = desired_decision(controls_, path, *witness, original);
    const bool updated = topo::path_permits(after_, path, *witness);
    if (desired != updated) {
      Violation violation{*witness, pi, desired, updated, std::nullopt, {}, {}};
      explain_violation(before_, after_, path, violation);
      return violation;
    }
  }
  // The SMT witness must correspond to a concrete violation; reaching here
  // would mean the encodings disagree.
  throw std::logic_error("check: SMT witness does not violate consistency concretely");
}

CheckResult Checker::check_monolithic(const topo::AclUpdate& update,
                                      const net::PacketSet& entering) {
  const std::uint64_t queries_before = smt_.query_count();
  const auto& all_paths = paths();
  const auto& forwarding = path_forwarding();
  CheckResult result;
  result.path_count = all_paths.size();
  result.fec_count = 1;  // the whole entering traffic, unclassified

  const topo::ConfigView before{topology()};
  const topo::ConfigView after{topology(), &update};
  const auto h = smt_.packet_vars("m");
  auto solver = smt_.make_solver();

  // One formula over everything: the packet enters Ω, is routable along
  // some path, and that path's decision changes. Every ACL is encoded
  // whole; expressions are shared across paths via a local cache.
  std::unordered_map<std::uint64_t, z3::expr> cache;
  const auto acl_expr = [&](topo::AclSlot slot, bool after_side) {
    const std::uint64_t key = acl_expr_key(slot, after_side);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    const auto& view = after_side ? after : before;
    const z3::expr expr = smt::acl_permits(h, view.acl(slot), options_.encoder);
    return cache.emplace(key, expr).first->second;
  };

  z3::expr any = smt_.bool_val(false);
  for (std::size_t pi = 0; pi < all_paths.size(); ++pi) {
    const auto& path = all_paths[pi];
    z3::expr before_decision = smt_.bool_val(true);
    z3::expr after_decision = smt_.bool_val(true);
    for (const auto& hop : path.hops()) {
      before_decision = before_decision && acl_expr(hop.slot(), false);
      after_decision = after_decision && acl_expr(hop.slot(), true);
    }
    const z3::expr routable = smt::set_expr(h, forwarding[pi]);
    any = any || (routable && (before_decision != after_decision));
  }
  solver.add(smt::set_expr(h, entering));
  solver.add(any);

  const auto witness = smt_.solve_for_packet(solver, h);
  if (witness) {
    result.consistent = false;
    for (std::size_t pi = 0; pi < all_paths.size(); ++pi) {
      if (!forwarding[pi].contains(*witness)) continue;
      const bool b = topo::path_permits(before, all_paths[pi], *witness);
      const bool a = topo::path_permits(after, all_paths[pi], *witness);
      if (b != a) {
        Violation violation{*witness, pi, b, a, std::nullopt, {}, {}};
        explain_violation(before, after, all_paths[pi], violation);
        result.violations.push_back(std::move(violation));
        break;
      }
    }
  }
  result.smt_queries = smt_.query_count() - queries_before;
  return result;
}

CheckResult Checker::check(const topo::AclUpdate& update, const net::PacketSet& entering,
                           const std::vector<lai::ControlIntent>& controls) {
  CheckResult result;
  result.path_count = paths().size();

  // Plan: the obligation DAG (update-independent, cached).
  const VerifyPlan& verify_plan = plan(entering);
  const auto& obligations = verify_plan.obligations();
  result.fec_count = verify_plan.stats().fec_count;
  result.obligation_count = obligations.size();
  result.plan_seconds = last_plan_seconds();

  Executor& exec = executor();
  const bool stop_at_first = options_.stop_at_first;
  const bool parallel = exec.threads() > 1 && obligations.size() > 1;
  std::vector<std::optional<Violation>> found(obligations.size());
  ExecutionStats stats;

  if (!parallel) {
    // Sequential: one cached session on the checker's own context, executed
    // in plan order — byte-identical to the pre-pipeline sequential loop,
    // and the session's incremental base frame survives across commands.
    const std::uint64_t queries_before = smt_.query_count();
    const double solve_before = smt_.solve_seconds();
    CheckSession& main_session = session(update, controls);
    double busy = 0;
    const obs::TraceSpan execute_span{obs::Span::CheckerExecute};
    stats = exec.run(obligations.size(), [&](std::size_t) -> Executor::Task {
      return [&](std::size_t i, const CancellationToken& token) {
        if (token.cancelled()) return false;
        const auto start = std::chrono::steady_clock::now();
        const Obligation& o = obligations[i];
        auto violation = main_session.find_violation(*o.fec, o.paths);
        busy += seconds_since(start);
        if (!violation) return false;
        found[i] = std::move(*violation);
        return stop_at_first;
      };
    });
    result.smt_queries = smt_.query_count() - queries_before;
    result.solve_seconds = smt_.solve_seconds() - solve_before;
    result.compile_seconds =
        last_session_seconds_ + std::max(0.0, busy - result.solve_seconds);
  } else {
    // Parallel: each worker compiles its own session on a private Z3
    // context (Z3 contexts are single-threaded); the executor distributes
    // obligations by work stealing.
    struct WorkerState {
      smt::SmtContext smt;
      std::optional<CheckSession> session;
      double busy_seconds = 0;
    };
    std::mutex states_mutex;
    std::vector<std::unique_ptr<WorkerState>> states;
    const Executor::WorkerFactory factory = [&](std::size_t) -> Executor::Task {
      auto owned = std::make_unique<WorkerState>();
      WorkerState* state = owned.get();
      if (options_.timeout_ms > 0) state->smt.set_timeout_ms(options_.timeout_ms);
      state->session.emplace(*this, state->smt, update, controls);
      {
        const std::lock_guard<std::mutex> lock{states_mutex};
        states.push_back(std::move(owned));
      }
      return [&, state](std::size_t i, const CancellationToken& token) {
        if (token.cancelled()) return false;
        const auto start = std::chrono::steady_clock::now();
        const Obligation& o = obligations[i];
        auto violation = state->session->find_violation(*o.fec, o.paths);
        state->busy_seconds += seconds_since(start);
        if (!violation) return false;
        found[i] = std::move(*violation);
        return stop_at_first;
      };
    };
    {
      const obs::TraceSpan execute_span{obs::Span::CheckerExecute};
      stats = exec.run(obligations.size(), factory);
    }
    double busy = 0;
    double build = 0;
    for (const auto& state : states) {
      result.smt_queries += state->smt.query_count();
      result.solve_seconds += state->smt.solve_seconds();
      busy += state->busy_seconds;
      build += state->session->build_seconds();
    }
    result.compile_seconds = build + std::max(0.0, busy - result.solve_seconds);
  }

  result.obligations_executed = stats.executed;
  result.obligations_cancelled = stats.cancelled;
  result.execute_seconds = stats.execute_seconds;
  obs::count(obs::Counter::ObligationsExecuted, stats.executed);
  obs::count(obs::Counter::ObligationsCancelled, stats.cancelled);

  if (parallel && stop_at_first && stats.stop_index < obligations.size()) {
    // The executor guarantees stop_index is the *minimal* obligation with a
    // violation; re-derive its witness on a fresh context so the reported
    // packet does not depend on which worker got there first.
    smt::SmtContext fresh;
    if (options_.timeout_ms > 0) fresh.set_timeout_ms(options_.timeout_ms);
    CheckSession fresh_session{*this, fresh, update, controls};
    const Obligation& o = obligations[stats.stop_index];
    auto violation = fresh_session.find_violation(*o.fec, o.paths);
    result.smt_queries += fresh.query_count();
    if (!violation) violation = std::move(found[stats.stop_index]);  // unreachable fallback
    result.consistent = false;
    result.violations.push_back(std::move(*violation));
    return result;
  }

  for (auto& violation : found) {
    if (!violation) continue;
    result.consistent = false;
    result.violations.push_back(std::move(*violation));
  }
  return result;
}

}  // namespace jinjing::core
