#include "core/fixer.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "core/simplify.h"
#include "net/acl_algebra.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace jinjing::core {

namespace {

/// The ACL slots a decision variable must exist for: every hop on any of
/// the given paths.
std::vector<topo::AclSlot> decision_slots(const std::vector<topo::Path>& paths,
                                          const std::vector<std::size_t>& indices) {
  std::vector<topo::AclSlot> slots;
  for (const std::size_t pi : indices) {
    for (const auto& hop : paths[pi].hops()) {
      if (std::find(slots.begin(), slots.end(), hop.slot()) == slots.end()) {
        slots.push_back(hop.slot());
      }
    }
  }
  return slots;
}

/// Seconds since `start`, also advancing `start` to now.
double lap(std::chrono::steady_clock::time_point& start) {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed = std::chrono::duration<double>(now - start).count();
  start = now;
  return elapsed;
}

bool rewrites_any_hop(const topo::AclUpdate& update, const topo::Path& path) {
  return std::any_of(path.hops().begin(), path.hops().end(), [&](const topo::Hop& hop) {
    return update.contains(hop.slot());
  });
}

/// The obligation's violating region: ⋃_p (desired_p Δ after_p) over its
/// feasible paths, each side the class-clipped first-match walk. A path no
/// rewritten slot and no control intent touches has desired_p = after_p.
net::PacketSet violating_region(const Checker& checker, const topo::ConfigView& before,
                                const topo::ConfigView& after, const topo::AclUpdate& update,
                                const std::vector<lai::ControlIntent>& controls,
                                const Obligation& obligation) {
  const net::PacketSet& cls = *obligation.fec;
  net::PacketSet violating;
  for (const std::size_t pi : obligation.paths) {
    const topo::Path& path = checker.paths()[pi];
    const bool rewritten = rewrites_any_hop(update, path);
    const bool steered = std::any_of(controls.begin(), controls.end(), [&](const auto& intent) {
      return intent_spans_path(intent, path);
    });
    if (!rewritten && !steered) continue;
    net::PacketSet original = topo::clipped_path_set(before, path, cls);
    const net::PacketSet updated =
        rewritten ? topo::clipped_path_set(after, path, cls) : original;
    const net::PacketSet desired =
        steered ? desired_set(controls, path, original, cls) : std::move(original);
    violating = violating | (desired - updated) | (updated - desired);
  }
  return violating.compact();
}

/// Splits every piece into the part `inside` selects and the rest,
/// dropping empty parts; a piece `inside` leaves whole stays as it is.
template <typename Inside>
void split_pieces(std::vector<net::PacketSet>& pieces, const Inside& inside) {
  std::vector<net::PacketSet> next;
  next.reserve(pieces.size());
  for (auto& piece : pieces) {
    net::PacketSet in = inside(piece);
    if (in.is_empty()) {
      next.push_back(std::move(piece));
      continue;
    }
    net::PacketSet out = piece - in;
    if (out.is_empty()) {
      next.push_back(std::move(piece));
      continue;
    }
    next.push_back(std::move(in.compact()));
    next.push_back(std::move(out.compact()));
  }
  pieces = std::move(next);
}

}  // namespace

Fixer::Fixer(smt::SmtContext& smt, const topo::Topology& topo, const topo::Scope& scope,
             const FixOptions& options)
    : smt_(smt), options_(options), checker_(smt, topo, scope, options.check) {}

FixResult Fixer::fix(const topo::AclUpdate& update, const net::PacketSet& entering,
                     const std::vector<topo::AclSlot>& allowed,
                     const std::vector<lai::ControlIntent>& controls) {
  // Simplification needs only preserve behaviour on traffic that exists;
  // restricting it to `entering` keeps the header-space sets small.
  const net::PacketSet& simplify_universe = entering;
  const std::uint64_t queries_before = smt_.query_count();
  FixResult result;

  const auto& topo = checker_.topology();
  const topo::ConfigView before{topo};
  const topo::ConfigView after{topo, &update};

  // Phase 1: every violating neighborhood, by exact set algebra. Per live
  // obligation, the violating region V is split by the Equation 6
  // predicates — in-scope edges meeting the class, the before/after ACL of
  // every slot on the class's feasible paths, the header of every intent
  // spanning one of those paths. V is a union of such cells, so each piece
  // left is one whole cell: the neighborhood of any of its packets. One
  // global `handled` set dedupes cells across overlapping per-entry classes.
  net::PacketSet handled;
  auto stopwatch = std::chrono::steady_clock::now();
  const VerifyPlan& plan = checker_.plan(entering);
  result.obligations = plan.size();
  for (const auto& obligation : plan.obligations()) {
    // An obligation whose feasible paths traverse no rewritten slot cannot
    // violate (every hop decision is unchanged) — unless control intents
    // redefine the desired decision, in which case everything stays live.
    if (options_.replan_touched_only && controls.empty() && !touches(obligation, update)) {
      ++result.obligations_skipped;
      obs::count(obs::Counter::ObligationsSkipped);
      continue;
    }
    const net::PacketSet& cls = *obligation.fec;

    (void)lap(stopwatch);
    std::vector<net::PacketSet> cells;
    {
      const obs::TraceSpan span{obs::Span::FixSearch};
      net::PacketSet violating =
          violating_region(checker_, before, after, update, controls, obligation);
      if (!violating.is_empty()) cells.push_back(std::move(violating));
    }
    result.search_seconds += lap(stopwatch);
    if (cells.empty()) continue;

    const obs::TraceSpan enlarge_span{obs::Span::FixEnlarge};
    for (const auto& edge : topo.edges()) {
      if (checker_.scope().contains_interface(topo, edge.from) &&
          checker_.scope().contains_interface(topo, edge.to) &&
          edge.predicate.intersects(cls)) {
        split_pieces(cells, [&](const net::PacketSet& piece) { return piece & edge.predicate; });
      }
    }
    const auto split_by_acl = [&cells](const net::Acl& acl) {
      if (acl.empty() && acl.default_action() == net::Action::Permit) return;
      split_pieces(cells, [&acl](const net::PacketSet& piece) {
        return net::permitted_within(acl, piece);
      });
    };
    const auto feasible = checker_.feasible_paths(cls);
    for (const auto slot : decision_slots(checker_.paths(), feasible)) {
      const net::Acl& original = before.acl(slot);
      const net::Acl& updated = after.acl(slot);
      split_by_acl(original);
      if (&updated != &original) split_by_acl(updated);
    }
    for (const auto& intent : controls) {
      const bool spans = std::any_of(feasible.begin(), feasible.end(), [&](std::size_t pi) {
        return intent_spans_path(intent, checker_.paths()[pi]);
      });
      if (!spans) continue;
      split_pieces(cells, [&](const net::PacketSet& piece) { return piece & intent.header; });
    }

    for (auto& cell : cells) {
      if ((cell - handled).is_empty()) continue;
      if (result.neighborhoods.size() >= options_.max_neighborhoods) {
        throw std::runtime_error("fix: exceeded max_neighborhoods = " +
                                 std::to_string(options_.max_neighborhoods));
      }
      handled = (handled | cell).compact();
      const net::Packet representative = cell.sample();
      result.neighborhoods.push_back(NeighborhoodReport{std::move(cell), representative, true});
    }
    result.enlarge_seconds += lap(stopwatch);
  }

  // Phase 2: solve a placement problem per neighborhood.
  (void)lap(stopwatch);
  // Per slot, in neighborhood order: each neighborhood whose solved
  // decision differs there, and whether it must now permit.
  std::unordered_map<topo::AclSlot, std::vector<std::pair<std::size_t, bool>>, topo::AclSlotHash>
      changes;
  for (std::size_t index = 0; index < result.neighborhoods.size(); ++index) {
    auto& report = result.neighborhoods[index];
    const obs::TraceSpan place_span{obs::Span::FixPlace};
    const net::PacketSet& neighborhood = report.set;
    const net::Packet& h = report.representative;
    const auto feasible = checker_.feasible_paths(neighborhood);
    const auto slots = decision_slots(checker_.paths(), feasible);

    auto opt = smt_.make_optimize();
    z3::context& ctx = smt_.ctx();
    std::unordered_map<topo::AclSlot, z3::expr, topo::AclSlotHash> decision;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      decision.emplace(slots[i], ctx.bool_const(("D_" + std::to_string(i)).c_str()));
    }

    // Every feasible path reproduces the desired decision (Equation 7/3).
    for (const std::size_t pi : feasible) {
      const auto& path = checker_.paths()[pi];
      const bool original = topo::path_permits(before, path, h);
      const bool desired = desired_decision(controls, path, h, original);
      z3::expr conj = ctx.bool_val(true);
      for (const auto& hop : path.hops()) conj = conj && decision.at(hop.slot());
      opt.add(conj == ctx.bool_val(desired));
    }

    // Placement constraints and the minimal-change objective.
    const auto allowed_contains = [&allowed](topo::AclSlot slot) {
      return std::find(allowed.begin(), allowed.end(), slot) != allowed.end();
    };
    for (const auto slot : slots) {
      const bool updated_decision = after.acl(slot).permits(h);
      const z3::expr keep = decision.at(slot) == ctx.bool_val(updated_decision);
      if (allowed_contains(slot)) {
        opt.add_soft(keep, 1);
      } else {
        opt.add(keep);
      }
    }

    const auto model = smt_.check_optimize(opt);
    if (!model) {
      report.solved = false;
      result.success = false;
      continue;
    }

    for (const auto slot : slots) {
      const bool updated_decision = after.acl(slot).permits(h);
      const bool solved_decision =
          z3::eq(model->eval(decision.at(slot), true), ctx.bool_val(true));
      if (solved_decision != updated_decision) changes[slot].emplace_back(index, solved_decision);
    }
  }

  result.place_seconds = lap(stopwatch);

  // Assemble the repaired update: one merged cover per slot. Walking the
  // slot's neighborhoods in order, each adds only what no earlier one
  // covers, so overlapping neighborhoods keep their first-match priority
  // and the permit and deny blocks are disjoint.
  const obs::TraceSpan assemble_span{obs::Span::FixAssemble};
  result.fixed_update = update;
  for (const auto& [slot, slot_changes] : changes) {
    net::PacketSet covered;
    net::PacketSet permit;
    net::PacketSet deny;
    for (const auto& [index, permits] : slot_changes) {
      const net::PacketSet& set = result.neighborhoods[index].set;
      net::PacketSet& block = permits ? permit : deny;
      block = block | (set - covered);
      covered = (covered | set).compact();
    }
    std::vector<net::AclRule> rules = net::rules_for_set(permit.compact(), net::Action::Permit);
    for (auto& rule : net::rules_for_set(deny.compact(), net::Action::Deny)) {
      rules.push_back(std::move(rule));
    }
    net::Acl acl = after.acl(slot);
    acl.prepend(rules);
    if (options_.simplify_result) acl = simplify_on(acl, simplify_universe);
    result.fixed_update.insert_or_assign(slot, std::move(acl));
    result.actions.push_back(FixAction{slot, std::move(rules)});
  }
  std::sort(result.actions.begin(), result.actions.end(),
            [](const FixAction& a, const FixAction& b) {
              return a.slot.iface != b.slot.iface ? a.slot.iface < b.slot.iface
                                                  : a.slot.dir < b.slot.dir;
            });

  result.assemble_seconds = lap(stopwatch);
  result.smt_queries = smt_.query_count() - queries_before;
  return result;
}

}  // namespace jinjing::core
