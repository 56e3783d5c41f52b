#include "core/placement.h"

#include <algorithm>
#include <set>

#include "core/verdict.h"
#include "obs/stats.h"

namespace jinjing::core {

void PlacementProblem::add_path(std::vector<std::size_t> vars, bool blocked, bool permit) {
  if (blocked) {
    if (permit) blocked_permit_ = true;
    return;
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  (permit ? all_true_ : some_false_).push_back(std::move(vars));
}

namespace {

/// Exact minimum hitting set by branch and bound: choose the fewest
/// variables so that every set contains a chosen one.
class HittingSet {
 public:
  HittingSet(std::vector<std::vector<std::size_t>> sets, std::size_t vars)
      : sets_(std::move(sets)), chosen_(vars, 0), excluded_(vars, 0), used_(vars, 0) {}

  /// The chosen variables of a minimum hitting set (nullopt when some set
  /// cannot be hit).
  std::optional<std::vector<std::size_t>> solve() {
    search();
    if (!found_) return std::nullopt;
    return best_;
  }

  [[nodiscard]] std::size_t nodes() const { return nodes_; }

 private:
  [[nodiscard]] bool hit(const std::vector<std::size_t>& set) const {
    return std::any_of(set.begin(), set.end(), [&](std::size_t v) { return chosen_[v] != 0; });
  }

  [[nodiscard]] std::size_t open_count(const std::vector<std::size_t>& set) const {
    return static_cast<std::size_t>(
        std::count_if(set.begin(), set.end(), [&](std::size_t v) { return excluded_[v] == 0; }));
  }

  /// Unhit sets sharing no open variable each need their own choice: a
  /// greedy packing of them, smallest first, bounds the remaining cost.
  std::size_t packing_bound(std::vector<std::size_t>& unhit) {
    std::stable_sort(unhit.begin(), unhit.end(), [&](std::size_t a, std::size_t b) {
      return open_count(sets_[a]) < open_count(sets_[b]);
    });
    std::size_t bound = 0;
    std::vector<std::size_t> marked;
    for (const std::size_t i : unhit) {
      const auto& set = sets_[i];
      const bool disjoint = std::none_of(set.begin(), set.end(), [&](std::size_t v) {
        return excluded_[v] == 0 && used_[v] != 0;
      });
      if (!disjoint) continue;
      ++bound;
      for (const std::size_t v : set) {
        if (excluded_[v] == 0 && used_[v] == 0) {
          used_[v] = 1;
          marked.push_back(v);
        }
      }
    }
    for (const std::size_t v : marked) used_[v] = 0;
    return bound;
  }

  void search() {
    ++nodes_;
    std::vector<std::size_t> unhit;
    std::size_t branch = sets_.size();
    std::size_t branch_open = 0;
    for (std::size_t i = 0; i < sets_.size(); ++i) {
      if (hit(sets_[i])) continue;
      const std::size_t open = open_count(sets_[i]);
      if (open == 0) return;  // every variable that could hit it is excluded
      unhit.push_back(i);
      if (branch == sets_.size() || open < branch_open) {
        branch = i;
        branch_open = open;
      }
    }
    if (unhit.empty()) {
      if (!found_ || current_.size() < best_.size()) {
        best_ = current_;
        found_ = true;
      }
      return;
    }
    if (found_ && current_.size() + packing_bound(unhit) >= best_.size()) return;

    // Branch on the smallest unhit set: choose each open variable in turn,
    // lowest index first, excluding it from the later siblings (their
    // solutions without it are the ones not yet explored).
    std::vector<std::size_t> excluded_here;
    for (const std::size_t v : sets_[branch]) {
      if (excluded_[v] != 0) continue;
      chosen_[v] = 1;
      current_.push_back(v);
      search();
      current_.pop_back();
      chosen_[v] = 0;
      excluded_[v] = 1;
      excluded_here.push_back(v);
    }
    for (const std::size_t v : excluded_here) excluded_[v] = 0;
  }

  std::vector<std::vector<std::size_t>> sets_;
  std::vector<char> chosen_;
  std::vector<char> excluded_;
  std::vector<char> used_;  // packing_bound scratch
  std::vector<std::size_t> current_;
  std::vector<std::size_t> best_;
  bool found_ = false;
  std::size_t nodes_ = 0;
};

}  // namespace

std::optional<Placement> solve_placement(const PlacementProblem& problem) {
  if (problem.blocked_permit()) return std::nullopt;
  const std::vector<bool>& preferred = problem.preferred();
  Placement out;
  out.values = preferred;

  // Permit paths force every variable on them true.
  std::vector<char> forced(preferred.size(), 0);
  for (const auto& set : problem.all_true()) {
    for (const std::size_t v : set) forced[v] = 1;
  }
  for (std::size_t v = 0; v < preferred.size(); ++v) {
    if (forced[v] == 0) continue;
    if (!preferred[v]) ++out.cost;
    out.values[v] = true;
  }

  // A deny path is satisfied for free by a variable that prefers false;
  // the others need one of their unforced variables flipped to false.
  std::vector<std::vector<std::size_t>> pending;
  for (const auto& set : problem.some_false()) {
    std::vector<std::size_t> open;
    bool free_hit = false;
    for (const std::size_t v : set) {
      if (forced[v] != 0) continue;
      if (!preferred[v]) {
        free_hit = true;
        break;
      }
      open.push_back(v);
    }
    if (free_hit) continue;
    if (open.empty()) return std::nullopt;  // every slot on the path must permit
    pending.push_back(std::move(open));
  }
  // A set containing another is hit whenever the smaller one is.
  std::sort(pending.begin(), pending.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
  std::vector<std::vector<std::size_t>> sets;
  for (auto& set : pending) {
    const bool implied = std::any_of(sets.begin(), sets.end(), [&](const auto& smaller) {
      return std::includes(set.begin(), set.end(), smaller.begin(), smaller.end());
    });
    if (!implied) sets.push_back(std::move(set));
  }

  HittingSet hitting{std::move(sets), preferred.size()};
  const auto flipped = hitting.solve();
  out.nodes = hitting.nodes();
  obs::gauge_max(obs::Gauge::PlacementNodes, out.nodes);
  if (!flipped) return std::nullopt;
  for (const std::size_t v : *flipped) out.values[v] = false;
  out.cost += flipped->size();
  return out;
}

PlacementSolver::PlacementSolver(const Planner& planner) : planner_(planner) {}

std::optional<ClassDecision> PlacementSolver::solve_class(
    const MigrationSpec& spec, const net::PacketSet& cls,
    const std::vector<std::size_t>& path_set,
    const std::vector<lai::ControlIntent>& controls) const {
  const net::Packet h = cls.sample();
  const topo::ConfigView view{planner_.topology()};

  // One variable per target (in spec order), preferring permit: with no
  // constraint a target defaults to permit, which matches operator practice
  // and the paper's Table 4.
  std::unordered_map<topo::AclSlot, std::size_t, topo::AclSlotHash> var_of;
  for (std::size_t i = 0; i < spec.targets.size(); ++i) var_of.emplace(spec.targets[i], i);
  PlacementProblem problem{std::vector<bool>(spec.targets.size(), true)};

  // Concrete f_ξ(h) decisions, memoized across the many paths that share
  // interfaces.
  std::unordered_map<topo::AclSlot, bool, topo::AclSlotHash> decision_memo;
  const auto slot_permits = [&](topo::AclSlot slot) {
    const auto it = decision_memo.find(slot);
    if (it != decision_memo.end()) return it->second;
    const bool permits = view.acl(slot).permits(h);
    decision_memo.emplace(slot, permits);
    return permits;
  };

  // Many paths reduce to the same constraint (e.g. every core->gateway path
  // through one gateway interface); dedupe on (variable set, desired).
  std::set<std::pair<std::vector<std::size_t>, bool>> seen;
  for (const std::size_t pi : path_set) {
    const auto& path = planner_.paths()[pi];
    bool original = true;
    for (const auto& hop : path.hops()) {
      if (!slot_permits(hop.slot())) {
        original = false;
        break;
      }
    }
    const bool desired = desired_decision(controls, path, h, original);

    // c'_p (Equations 8–9): sources carry their fixed post-update ACL —
    // permit-all for a migration, or an explicit replacement — targets are
    // free variables, everything else keeps its concrete decision on h.
    std::vector<std::size_t> vars;
    bool blocked = false;
    for (const auto& hop : path.hops()) {
      const auto slot = hop.slot();
      if (std::find(spec.sources.begin(), spec.sources.end(), slot) != spec.sources.end()) {
        blocked = !spec.source_permits(slot, h);
      } else if (const auto it = var_of.find(slot); it != var_of.end()) {
        vars.push_back(it->second);
      } else {
        blocked = !slot_permits(slot);
      }
      if (blocked) break;
    }
    if (blocked && desired) return std::nullopt;  // unreachable via fixed denies
    if (blocked) continue;
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    if (!seen.emplace(vars, desired).second) continue;
    problem.add_path(std::move(vars), false, desired);
  }

  const auto placement = solve_placement(problem);
  if (!placement) return std::nullopt;
  ClassDecision result;
  result.cls = cls;
  result.representative = h;
  for (std::size_t i = 0; i < spec.targets.size(); ++i) {
    result.decision.emplace(spec.targets[i], placement->values[i]);
  }
  return result;
}

ClassOutcome PlacementSolver::solve_one(const MigrationSpec& spec, const net::PacketSet& cls,
                                        const std::vector<lai::ControlIntent>& controls) const {
  ClassOutcome outcome;

  // AEC level: Equation 10 ranges over every path in Ω.
  std::vector<std::size_t> all_paths(planner_.paths().size());
  for (std::size_t i = 0; i < all_paths.size(); ++i) all_paths[i] = i;
  if ((outcome.aec = solve_class(spec, cls, all_paths, controls))) return outcome;

  // DEC refinement (§5.3): split by routing, solve on feasible paths.
  for (const auto& dec :
       dataplane_equivalence_classes(planner_.topology(), planner_.scope(), cls)) {
    if (auto solved = solve_class(spec, dec, planner_.feasible_paths(dec), controls)) {
      solved->dec_level = true;
      outcome.decs.push_back(std::move(*solved));
    } else {
      outcome.unsolved.push_back(dec);
    }
  }
  return outcome;
}

PlacementResult PlacementSolver::solve(const MigrationSpec& spec,
                                       const std::vector<net::PacketSet>& classes,
                                       const std::vector<lai::ControlIntent>& controls,
                                       const StopProbes& probes) const {
  PlacementResult result;
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    probes.poll();
    ClassOutcome outcome = solve_one(spec, classes[ci], controls);
    if (outcome.aec) {
      result.aec_solutions.emplace(ci, std::move(*outcome.aec));
      continue;
    }
    if (!outcome.decs.empty()) result.dec_solutions[ci] = std::move(outcome.decs);
    for (auto& dec : outcome.unsolved) {
      result.success = false;
      result.unsolved.push_back(std::move(dec));
    }
  }
  return result;
}

}  // namespace jinjing::core
