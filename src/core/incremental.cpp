#include "core/incremental.h"

#include <chrono>

#include "obs/stats.h"
#include "topo/fec_delta.h"

namespace jinjing::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

IncrementalOutcome run_incremental_check(Checker& checker, const IncrementalLease& lease,
                                         const topo::AclUpdate& update) {
  IncrementalOutcome out;
  const VerifyPlan& plan = lease.bundle->plan;
  const auto& obligations = plan.obligations();
  out.clean.assign(obligations.size(), false);

  CheckResult& result = out.result;
  result.path_count = lease.bundle->paths.size();
  result.fec_count = plan.stats().fec_count;
  result.obligation_count = obligations.size();
  result.plan_seconds = 0;  // served from the planner's lease

  const std::uint64_t queries_before = checker.smt().query_count();
  const double solve_before = checker.smt().solve_seconds();
  CheckSession& session = checker.session(update, {});
  const bool stop_at_first = checker.options().stop_at_first;

  const auto start = std::chrono::steady_clock::now();
  for (const Obligation& o : obligations) {
    if (!touches(o, update)) {
      // No rewritten slot on any of its paths: both sides of Equation 3
      // coincide, the obligation is trivially consistent.
      ++out.skipped;
      out.clean[o.index] = true;
      continue;
    }
    if (o.index < lease.clean.size() && lease.clean[o.index]) {
      ++out.reused;  // proven consistent for this exact update earlier
      out.clean[o.index] = true;
      continue;
    }
    const std::uint32_t stale_from =
        o.index < lease.stale_from.size() ? lease.stale_from[o.index] : kNotStale;
    if (stale_from != kNotStale && stale_from < lease.diffs.size()) {
      // The verdict was proven and later invalidated by diffs[stale_from..]:
      // delta-refine the class and query only the sub-atoms those diffs
      // touch — the disjoint sub-atoms behaved identically under the old
      // proof and inherit consistency.
      const std::vector<net::PacketSet> changed(lease.diffs.begin() + stale_from,
                                                lease.diffs.end());
      const topo::FecDeltaResult delta = topo::refine_delta({*o.fec}, changed);
      ++result.obligations_executed;
      ++out.delta_checked;
      bool violated = false;
      for (std::size_t a = 0; a < delta.atoms.size() && !violated; ++a) {
        if (!delta.touched[a]) continue;
        violated = session.find_violation(delta.atoms[a], o.paths).has_value();
      }
      if (!violated) {
        out.clean[o.index] = true;
        continue;
      }
      // A violating sub-atom implies a full-class violation; re-derive it on
      // the whole class so the reported witness is bit-identical to a
      // from-scratch check.
      auto full = session.find_violation(*o.fec, o.paths);
      if (full) {
        result.consistent = false;
        result.violations.push_back(std::move(*full));
        if (stop_at_first) break;
      } else {
        out.clean[o.index] = true;  // defensive: treat as proven consistent
      }
      continue;
    }
    ++result.obligations_executed;
    auto violation = session.find_violation(*o.fec, o.paths);
    if (violation) {
      result.consistent = false;
      result.violations.push_back(std::move(*violation));
      if (stop_at_first) break;
    } else {
      out.clean[o.index] = true;
    }
  }
  result.execute_seconds = seconds_since(start);
  result.smt_queries = checker.smt().query_count() - queries_before;
  result.solve_seconds = checker.smt().solve_seconds() - solve_before;
  result.compile_seconds = session.build_seconds();
  obs::count(obs::Counter::ObligationsExecuted, result.obligations_executed);
  obs::count(obs::Counter::ObligationsSkipped, out.skipped + out.reused);
  return out;
}

}  // namespace jinjing::core
