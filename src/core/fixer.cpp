#include "core/fixer.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "core/placement.h"
#include "core/simplify.h"
#include "core/verdict.h"
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
net::PacketSet violating_region(const Planner& planner, const topo::ConfigView& before,
                                const topo::ConfigView& after, const topo::AclUpdate& update,
                                const std::vector<lai::ControlIntent>& controls,
                                const Obligation& obligation) {
  const net::PacketSet& cls = *obligation.fec;
  net::PacketSet violating;
  for (const std::size_t pi : obligation.paths) {
    const topo::Path& path = planner.paths()[pi];
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

std::optional<std::vector<topo::AclSlot>> place_neighborhood(
    const std::vector<topo::Path>& paths, const std::vector<std::size_t>& feasible,
    const topo::ConfigView& before, const topo::ConfigView& after,
    const std::vector<topo::AclSlot>& allowed, const std::vector<lai::ControlIntent>& controls,
    const net::Packet& h) {
  // One variable per allowed slot on the feasible paths, in the order they
  // are first met, preferring the update's decision; the other slots are
  // constants at the update's decision.
  std::vector<topo::AclSlot> vars;
  std::vector<bool> preferred;
  for (const auto slot : decision_slots(paths, feasible)) {
    if (std::find(allowed.begin(), allowed.end(), slot) == allowed.end()) continue;
    vars.push_back(slot);
    preferred.push_back(after.acl(slot).permits(h));
  }
  PlacementProblem problem{std::move(preferred)};
  for (const std::size_t pi : feasible) {
    const auto& path = paths[pi];
    std::vector<std::size_t> path_vars;
    bool blocked = false;
    for (const auto& hop : path.hops()) {
      const auto it = std::find(vars.begin(), vars.end(), hop.slot());
      if (it != vars.end()) {
        path_vars.push_back(static_cast<std::size_t>(it - vars.begin()));
      } else if (!after.acl(hop.slot()).permits(h)) {
        blocked = true;
      }
    }
    const bool original = topo::path_permits(before, path, h);
    problem.add_path(std::move(path_vars), blocked,
                     desired_decision(controls, path, h, original));
  }
  const auto placement = solve_placement(problem);
  if (!placement) return std::nullopt;
  std::vector<topo::AclSlot> flipped;
  for (std::size_t v = 0; v < vars.size(); ++v) {
    if (placement->values[v] != problem.preferred()[v]) flipped.push_back(vars[v]);
  }
  return flipped;
}

Fixer::Fixer(Planner& planner, const FixOptions& options)
    : planner_(planner), options_(options) {}

FixResult Fixer::fix(const topo::AclUpdate& update, const net::PacketSet& entering,
                     const std::vector<topo::AclSlot>& allowed,
                     const std::vector<lai::ControlIntent>& controls,
                     const StopProbes& probes) {
  // Simplification needs only preserve behaviour on traffic that exists;
  // restricting it to `entering` keeps the header-space sets small.
  const net::PacketSet& simplify_universe = entering;
  FixResult result;

  const auto& topo = planner_.topology();
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
  const VerifyPlan& plan = planner_.plan(entering);
  result.obligations = plan.size();
  for (const auto& obligation : plan.obligations()) {
    probes.poll();
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
          violating_region(planner_, before, after, update, controls, obligation);
      if (!violating.is_empty()) cells.push_back(std::move(violating));
    }
    result.search_seconds += lap(stopwatch);
    if (cells.empty()) continue;

    const obs::TraceSpan enlarge_span{obs::Span::FixEnlarge};
    for (const auto& edge : topo.edges()) {
      if (planner_.scope().contains_interface(topo, edge.from) &&
          planner_.scope().contains_interface(topo, edge.to) &&
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
    const auto feasible = planner_.feasible_paths(cls);
    for (const auto slot : decision_slots(planner_.paths(), feasible)) {
      const net::Acl& original = before.acl(slot);
      const net::Acl& updated = after.acl(slot);
      split_by_acl(original);
      if (&updated != &original) split_by_acl(updated);
    }
    for (const auto& intent : controls) {
      const bool spans = std::any_of(feasible.begin(), feasible.end(), [&](std::size_t pi) {
        return intent_spans_path(intent, planner_.paths()[pi]);
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
    probes.poll();
    auto& report = result.neighborhoods[index];
    const obs::TraceSpan place_span{obs::Span::FixPlace};
    const net::Packet& h = report.representative;
    const auto flipped =
        place_neighborhood(planner_.paths(), planner_.feasible_paths(report.set), before, after,
                           allowed, controls, h);
    if (!flipped) {
      report.solved = false;
      result.success = false;
      continue;
    }
    for (const auto slot : *flipped) {
      changes[slot].emplace_back(index, !after.acl(slot).permits(h));
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
  return result;
}

}  // namespace jinjing::core
