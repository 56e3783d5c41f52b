// Randomized end-to-end properties cross-validating the SMT pipeline
// against the exact header-space engine on generated WANs, and the exact
// engine stages (placement kernel, intent scan) against Z3 references.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>

#include "core/aec.h"
#include "core/batch.h"
#include "core/checker.h"
#include "core/fixer.h"
#include "core/generator.h"
#include "gen/scenario.h"
#include "net/acl_algebra.h"
#include "obs/stats.h"
#include "reference_simplify.h"
#include "smt/acl_encoder.h"
#include "smt/encode.h"
#include "topo/paths.h"

namespace jinjing {
namespace {

gen::WanParams tiny_wan(unsigned seed) {
  gen::WanParams p;
  p.cores = 2;
  p.aggs = 2;
  p.cells = 2;
  p.gateways_per_cell = 2;
  p.prefixes_per_gateway = 2;
  p.rules_per_acl = 10;
  p.seed = seed;
  return p;
}

bool spans(const lai::ControlIntent& intent, const topo::Path& path) {
  return std::find(intent.from.begin(), intent.from.end(), path.entry()) != intent.from.end() &&
         std::find(intent.to.begin(), intent.to.end(), path.exit()) != intent.to.end();
}

/// Oracle: exact per-path consistency verdict via the header-space engine.
/// With control intents, each path's target is its desired set: earlier
/// intents take precedence, unmatched packets keep the pre-update decision.
bool oracle_consistent(const gen::Wan& wan, const topo::AclUpdate& update,
                       const std::vector<lai::ControlIntent>& intents = {}) {
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  // Whole-ACL permitted sets, one per distinct ACL (paths share hops).
  std::unordered_map<const net::Acl*, net::PacketSet> permitted;
  const auto path_permitted = [&](const topo::ConfigView& view, const topo::Path& path,
                                  const net::PacketSet& carried) {
    net::PacketSet set = carried;
    for (const auto& hop : path.hops()) {
      const net::Acl& acl = view.acl(hop.slot());
      auto it = permitted.find(&acl);
      if (it == permitted.end()) it = permitted.emplace(&acl, net::permitted_set(acl)).first;
      set = set & it->second;
    }
    return set;
  };
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    const auto original = path_permitted(before, path, carried);
    auto desired = original;
    for (auto it = intents.rbegin(); it != intents.rend(); ++it) {
      if (!spans(*it, path)) continue;
      net::PacketSet kept;  // what the intent permits inside its header
      switch (it->verb) {
        case lai::ControlVerb::Open: kept = it->header & carried; break;
        case lai::ControlVerb::Isolate: break;
        case lai::ControlVerb::Maintain: kept = original & it->header; break;
      }
      desired = (desired - it->header) | kept;
    }
    if (!desired.equals(path_permitted(after, path, carried))) return false;
  }
  return true;
}

// The checker's verdict must equal the exact set-based oracle, in every
// mode, across random WANs and random perturbations.
struct CheckOracleCase {
  unsigned seed;
  bool differential;
  bool per_entry;
};

class CheckMatchesOracle : public ::testing::TestWithParam<CheckOracleCase> {};

TEST_P(CheckMatchesOracle, VerdictsAgree) {
  const auto wan = gen::make_wan(tiny_wan(100 + GetParam().seed));
  const auto update = gen::perturb_rules(wan, 0.04, GetParam().seed);

  smt::SmtContext smt;
  core::CheckOptions options;
  options.use_differential = GetParam().differential;
  options.per_entry_fec = GetParam().per_entry;
  core::Checker checker{smt, wan.topo, wan.scope, options};
  const auto result = checker.check(update, wan.traffic);

  EXPECT_EQ(result.consistent, oracle_consistent(wan, update)) << "seed " << GetParam().seed;

  // Witnesses must be genuine violations.
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  for (const auto& v : result.violations) {
    const auto& path = checker.paths()[v.path_index];
    EXPECT_EQ(topo::path_permits(before, path, v.witness), v.decision_before);
    EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after);
    EXPECT_NE(v.decision_before, v.decision_after);
    EXPECT_TRUE(topo::forwarding_set(wan.topo, path).contains(v.witness))
        << "witness not routable on the violated path";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CheckMatchesOracle,
    ::testing::Values(CheckOracleCase{1, true, true}, CheckOracleCase{1, false, false},
                      CheckOracleCase{2, true, false}, CheckOracleCase{2, false, true},
                      CheckOracleCase{3, true, true}, CheckOracleCase{4, false, false},
                      CheckOracleCase{5, true, true}, CheckOracleCase{6, true, false},
                      CheckOracleCase{7, false, true}, CheckOracleCase{8, true, true}),
    [](const auto& info) {
      return "Seed" + std::to_string(info.param.seed) + (info.param.differential ? "Diff" : "Basic") +
             (info.param.per_entry ? "PerEntry" : "Global");
    });

// fix must terminate with a plan that the oracle accepts.
class FixRepairsToOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(FixRepairsToOracle, FixedUpdateIsExactlyConsistent) {
  const auto wan = gen::make_wan(tiny_wan(200 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.06, GetParam());

  core::Planner planner{wan.topo, wan.scope};
  core::Fixer fixer{planner};
  const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots());
  ASSERT_TRUE(fix.success);
  EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixRepairsToOracle, ::testing::Range(1u, 9u));

// fix's exact violation search against the SMT exclusion loop it replaced.

std::vector<topo::AclSlot> slots_on(const std::vector<topo::Path>& paths,
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

struct ReferenceFix {
  std::vector<net::PacketSet> neighborhoods;
  topo::AclUpdate fixed_update;
  bool success = true;
};

/// The fixer's Phase 2 as it was before assembly merged its covers: the
/// Equation 7 placement of every neighborhood at its representative (every
/// bound slot allowed, decisions from the placement kernel), then, at each
/// slot whose decision changes, that neighborhood's own rules_for_set cover
/// prepended in neighborhood order. With `simplify`, every touched ACL then
/// goes through the fixpoint simplifier on `wan.traffic`.
struct ReferencePlacement {
  topo::AclUpdate fixed_update;
  bool success = true;
};

ReferencePlacement reference_place(const core::Checker& checker, const gen::Wan& wan,
                                   const topo::AclUpdate& update,
                                   const std::vector<lai::ControlIntent>& controls,
                                   const std::vector<net::PacketSet>& neighborhoods,
                                   const std::vector<net::Packet>& representatives,
                                   bool simplify) {
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  const auto allowed = wan.topo.bound_slots();
  ReferencePlacement out;
  std::unordered_map<topo::AclSlot, std::vector<net::AclRule>, topo::AclSlotHash> prepends;
  for (std::size_t n = 0; n < neighborhoods.size(); ++n) {
    const net::Packet& w = representatives[n];
    const auto flipped =
        core::place_neighborhood(checker.paths(), checker.feasible_paths(neighborhoods[n]),
                                 before, after, allowed, controls, w);
    if (!flipped) {
      out.success = false;
      continue;
    }
    for (const auto slot : *flipped) {
      const bool permit = !after.acl(slot).permits(w);
      for (auto& rule :
           net::rules_for_set(neighborhoods[n], permit ? net::Action::Permit : net::Action::Deny)) {
        prepends[slot].push_back(std::move(rule));
      }
    }
  }
  out.fixed_update = update;
  for (const auto& [slot, rules] : prepends) {
    net::Acl acl = after.acl(slot);
    acl.prepend(rules);
    if (simplify) acl = test::reference_simplify_on(acl, wan.traffic);
    out.fixed_update.insert_or_assign(slot, std::move(acl));
  }
  return out;
}

/// The fixer as it was before its search became set algebra. Phase 1 asks
/// Z3 (whole ACLs encoded) for one violating packet of the class outside
/// `handled`, folds it to its Equation 6 region — in-scope edges meeting
/// the class, the before/after permitted set of every slot on the class's
/// feasible paths, the header of every intent spanning one of them —
/// excludes the region and asks again. Phase 2 is reference_place, without
/// the simplification pass.
ReferenceFix reference_fix(const gen::Wan& wan, const topo::AclUpdate& update,
                           const std::vector<lai::ControlIntent>& controls, bool per_entry) {
  smt::SmtContext smt;
  core::CheckOptions options;
  options.per_entry_fec = per_entry;
  core::Checker checker{smt, wan.topo, wan.scope, options};
  const auto& paths = checker.paths();
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  const auto h = smt.packet_vars("ref");

  const auto decision = [&](const topo::Path& path, const topo::ConfigView& view) {
    z3::expr conj = smt.bool_val(true);
    for (const auto& hop : path.hops()) conj = conj && smt::acl_permits(h, view.acl(hop.slot()));
    return conj;
  };
  std::unordered_map<std::size_t, z3::expr> inconsistent;  // per path
  const auto path_inconsistent = [&](std::size_t pi) -> const z3::expr& {
    if (const auto it = inconsistent.find(pi); it != inconsistent.end()) return it->second;
    const z3::expr original = decision(paths[pi], before);
    z3::expr desired = original;
    for (auto it = controls.rbegin(); it != controls.rend(); ++it) {
      if (!spans(*it, paths[pi])) continue;
      const z3::expr value = it->verb == lai::ControlVerb::Open      ? smt.bool_val(true)
                             : it->verb == lai::ControlVerb::Isolate ? smt.bool_val(false)
                                                                     : original;
      desired = z3::ite(smt::set_expr(h, it->header), value, desired);
    }
    return inconsistent.emplace(pi, desired != decision(paths[pi], after)).first->second;
  };

  ReferenceFix out;
  std::vector<net::Packet> witnesses;
  net::PacketSet handled;
  for (const auto& o : checker.plan(wan.traffic).obligations()) {
    if (controls.empty() && !core::touches(o, update)) continue;
    const net::PacketSet& cls = *o.fec;
    const auto feasible = checker.feasible_paths(cls);
    z3::expr any = smt.bool_val(false);
    for (const std::size_t pi : o.paths) any = any || path_inconsistent(pi);
    while (true) {
      auto solver = smt.make_solver();
      solver.add(any);
      solver.add(smt::set_expr(h, cls));
      const net::PacketSet excluded = (handled & cls).compact();
      if (!excluded.is_empty()) solver.add(!smt::set_expr(h, excluded));
      const auto witness = smt.solve_for_packet(solver, h);
      if (!witness) break;

      net::PacketSet region = cls;
      const auto fold = [&](const net::PacketSet& predicate) {
        region = predicate.contains(*witness) ? (region & predicate) : (region - predicate);
        region.compact();
      };
      for (const auto& edge : wan.topo.edges()) {
        if (wan.scope.contains_interface(wan.topo, edge.from) &&
            wan.scope.contains_interface(wan.topo, edge.to) && edge.predicate.intersects(cls)) {
          fold(edge.predicate);
        }
      }
      for (const auto slot : slots_on(paths, feasible)) {
        fold(net::permitted_set(before.acl(slot)));
        fold(net::permitted_set(after.acl(slot)));
      }
      for (const auto& intent : controls) {
        if (std::any_of(feasible.begin(), feasible.end(),
                        [&](std::size_t pi) { return spans(intent, paths[pi]); })) {
          fold(intent.header);
        }
      }
      handled = (handled | region).compact();
      out.neighborhoods.push_back(std::move(region));
      witnesses.push_back(*witness);
    }
  }

  const auto placed = reference_place(checker, wan, update, controls, out.neighborhoods,
                                      witnesses, false);
  out.fixed_update = placed.fixed_update;
  out.success = placed.success;
  return out;
}

struct FixSearchCase {
  std::string name;
  bool medium = false;
  unsigned seed = 0;
  double fraction = 0;
  bool per_entry = true;
  bool control_open = false;  // add gen::control_open intents (k = 1)
};

// Names the case in test listings (its raw bytes hold a heap pointer).
void PrintTo(const FixSearchCase& c, std::ostream* os) { *os << c.name; }

class FixSearchMatchesExclusionLoop : public ::testing::TestWithParam<FixSearchCase> {};

TEST_P(FixSearchMatchesExclusionLoop, SameNeighborhoodsAndBothRepairsExact) {
  const FixSearchCase& c = GetParam();
  const auto wan = gen::make_wan(c.medium ? gen::medium_wan() : tiny_wan(800 + c.seed));
  const auto update = gen::perturb_rules(wan, c.fraction, c.seed);
  std::vector<lai::ControlIntent> controls;
  if (c.control_open) controls = gen::control_open(wan, 1, c.seed).intents;

  core::PlanOptions options;
  options.per_entry_fec = c.per_entry;
  core::Planner planner{wan.topo, wan.scope, options};
  core::Fixer fixer{planner};
  const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots(), controls);
  const auto ref = reference_fix(wan, update, controls, c.per_entry);

  ASSERT_FALSE(ref.neighborhoods.empty()) << "the case exercises no violation";
  ASSERT_EQ(fix.neighborhoods.size(), ref.neighborhoods.size());
  for (const auto& n : fix.neighborhoods) {
    EXPECT_EQ(std::count_if(ref.neighborhoods.begin(), ref.neighborhoods.end(),
                            [&](const net::PacketSet& r) { return r.equals(n.set); }),
              1)
        << net::to_string(n.set);
  }
  if (c.control_open) {
    // Some neighborhood lies inside an opened header: the intents take part.
    EXPECT_TRUE(std::any_of(fix.neighborhoods.begin(), fix.neighborhoods.end(), [&](const auto& n) {
      return std::any_of(controls.begin(), controls.end(),
                         [&](const auto& intent) { return intent.header.contains(n.set); });
    }));
  }

  ASSERT_TRUE(fix.success);
  ASSERT_TRUE(ref.success);
  EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update, controls));
  EXPECT_TRUE(oracle_consistent(wan, ref.fixed_update, controls));
}

std::vector<FixSearchCase> fix_search_cases() {
  const auto mode = [](bool per_entry) { return per_entry ? "PerEntry" : "Global"; };
  std::vector<FixSearchCase> cases;
  for (unsigned seed = 1; seed <= 4; ++seed) {
    for (const bool per_entry : {true, false}) {
      cases.push_back({"Tiny6pctSeed" + std::to_string(seed) + mode(per_entry), false, seed,
                       0.06, per_entry, false});
    }
  }
  for (unsigned seed = 1; seed <= 3; ++seed) {
    cases.push_back({"Medium1pctSeed" + std::to_string(seed), true, seed, 0.01, true, false});
  }
  for (unsigned seed = 1; seed <= 3; ++seed) {
    for (const bool per_entry : {true, false}) {
      cases.push_back({"ControlOpenSeed" + std::to_string(seed) + mode(per_entry), false, seed,
                       0.03, per_entry, true});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, FixSearchMatchesExclusionLoop,
                         ::testing::ValuesIn(fix_search_cases()),
                         [](const auto& info) { return info.param.name; });

// fix's assembly — one merged cover per slot, then the single-pass
// simplifier — against per-neighborhood prepends and the fixpoint
// simplifier it replaced, on the same neighborhoods. The reference takes
// its decisions from the same placement kernel, so both assemble the same
// optimum (PlacementMatchesZ3Optimize tests the kernel itself).
class FixAssemblyMatchesPerNeighborhoodPrepends
    : public ::testing::TestWithParam<FixSearchCase> {};

TEST_P(FixAssemblyMatchesPerNeighborhoodPrepends, SameAclsOnEnteringAndNoMoreRules) {
  const FixSearchCase& c = GetParam();
  const auto wan = gen::make_wan(c.medium ? gen::medium_wan() : tiny_wan(800 + c.seed));
  const auto update = gen::perturb_rules(wan, c.fraction, c.seed);
  std::vector<lai::ControlIntent> controls;
  if (c.control_open) controls = gen::control_open(wan, 1, c.seed).intents;

  core::PlanOptions options;
  options.per_entry_fec = c.per_entry;
  core::Planner planner{wan.topo, wan.scope, options};
  core::Fixer fixer{planner};
  const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots(), controls);
  ASSERT_TRUE(fix.success);
  ASSERT_FALSE(fix.neighborhoods.empty()) << "the case exercises no violation";

  std::vector<net::PacketSet> neighborhoods;
  std::vector<net::Packet> representatives;
  for (const auto& n : fix.neighborhoods) {
    neighborhoods.push_back(n.set);
    representatives.push_back(n.representative);
  }
  smt::SmtContext ref_smt;
  core::CheckOptions check_options;
  check_options.per_entry_fec = c.per_entry;
  core::Checker checker{ref_smt, wan.topo, wan.scope, check_options};
  const auto ref =
      reference_place(checker, wan, update, controls, neighborhoods, representatives, true);
  ASSERT_TRUE(ref.success);

  const topo::ConfigView fixed{wan.topo, &fix.fixed_update};
  const topo::ConfigView reference{wan.topo, &ref.fixed_update};
  std::size_t rules = 0;
  std::size_t ref_rules = 0;
  for (const auto slot : wan.topo.bound_slots()) {
    EXPECT_TRUE(net::equivalent_on(fixed.acl(slot), reference.acl(slot), wan.traffic))
        << "slot " << slot.iface << (slot.dir == topo::Dir::In ? " in" : " out");
    rules += fixed.acl(slot).size();
    ref_rules += reference.acl(slot).size();
  }
  EXPECT_LE(rules, ref_rules);
  EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update, controls));
  RecordProperty("rules", static_cast<int>(rules));
  RecordProperty("reference_rules", static_cast<int>(ref_rules));
}

INSTANTIATE_TEST_SUITE_P(Cases, FixAssemblyMatchesPerNeighborhoodPrepends,
                         ::testing::ValuesIn(fix_search_cases()),
                         [](const auto& info) { return info.param.name; });

// generate must produce plans the oracle accepts, for random migrations.
class GenerateSatisfiesOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(GenerateSatisfiesOracle, MigrationPreservesReachability) {
  const auto wan = gen::make_wan(tiny_wan(300 + GetParam()));

  core::GenerateOptions options;
  options.universe = wan.traffic;
  core::Planner planner{wan.topo, wan.scope};
  core::Generator generator{planner, options};
  const auto result = generator.generate(gen::migration_spec(wan));
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(oracle_consistent(wan, result.update));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenerateSatisfiesOracle, ::testing::Range(1u, 7u));

// ---- The placement kernel against Z3 optimize ----------------------------
//
// Every Equation 7 (fix) and Equation 10 (generate) instance is posed twice:
// to the kernel through the code that builds it (core::place_neighborhood,
// PlacementSolver::solve_class), and to Z3 optimize exactly as the solver
// path did before the kernel replaced it. Both must agree on feasibility
// and on the optimum cost; assignments may differ only among equal-cost
// optima (ties), which are counted and recorded.

/// Tallies kernel-vs-Z3 comparisons over one test.
struct PlacementTally {
  std::size_t instances = 0;
  std::size_t infeasible = 0;
  std::size_t ties = 0;  // same cost, different assignment

  /// Compares two answers over the same variables; cost counts the
  /// variables off their preferred value.
  void compare(const std::optional<std::vector<bool>>& kernel,
               const std::optional<std::vector<bool>>& z3, const std::vector<bool>& preferred,
               const std::string& tag) {
    ++instances;
    ASSERT_EQ(kernel.has_value(), z3.has_value()) << tag;
    if (!kernel) {
      ++infeasible;
      return;
    }
    const auto cost = [&](const std::vector<bool>& values) {
      std::size_t n = 0;
      for (std::size_t i = 0; i < values.size(); ++i) n += values[i] != preferred[i] ? 1 : 0;
      return n;
    };
    EXPECT_EQ(cost(*kernel), cost(*z3)) << tag;
    if (*kernel != *z3) ++ties;
  }

  void record() const {
    ::testing::Test::RecordProperty("instances", static_cast<int>(instances));
    ::testing::Test::RecordProperty("infeasible", static_cast<int>(infeasible));
    ::testing::Test::RecordProperty("tie_choices", static_cast<int>(ties));
  }
};

/// Equation 7 as Z3 optimize: one variable per slot on the feasible paths,
/// each path's AND equal to its desired decision, slots outside `allowed`
/// hard-kept at the update's decision, allowed ones soft-kept (weight 1).
/// Returns the decisions of `vars` (allowed slots only).
std::optional<std::vector<bool>> z3_fix_place(const std::vector<topo::Path>& paths,
                                              const std::vector<std::size_t>& feasible,
                                              const topo::ConfigView& before,
                                              const topo::ConfigView& after,
                                              const std::vector<topo::AclSlot>& allowed,
                                              const std::vector<lai::ControlIntent>& controls,
                                              const net::Packet& h,
                                              const std::vector<topo::AclSlot>& vars) {
  smt::SmtContext smt;
  auto opt = smt.make_optimize();
  std::unordered_map<topo::AclSlot, z3::expr, topo::AclSlotHash> d;
  const auto slots = slots_on(paths, feasible);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    d.emplace(slots[i], smt.ctx().bool_const(("D_" + std::to_string(i)).c_str()));
  }
  for (const std::size_t pi : feasible) {
    const bool original = topo::path_permits(before, paths[pi], h);
    z3::expr conj = smt.bool_val(true);
    for (const auto& hop : paths[pi].hops()) conj = conj && d.at(hop.slot());
    opt.add(conj == smt.bool_val(core::desired_decision(controls, paths[pi], h, original)));
  }
  for (const auto slot : slots) {
    const z3::expr keep = d.at(slot) == smt.bool_val(after.acl(slot).permits(h));
    if (std::find(allowed.begin(), allowed.end(), slot) != allowed.end()) {
      opt.add_soft(keep, 1);
    } else {
      opt.add(keep);
    }
  }
  const auto model = smt.check_optimize(opt);
  if (!model) return std::nullopt;
  std::vector<bool> values;
  for (const auto slot : vars) {
    values.push_back(z3::eq(model->eval(d.at(slot), true), smt.bool_val(true)));
  }
  return values;
}

/// Equation 10 as Z3 optimize over `path_set`, at the class representative:
/// one variable per target, sources at their fixed post-update decision,
/// other slots at their current one, every path's AND equal to its desired
/// decision, each target soft-preferring permit. Decisions in target order.
std::optional<std::vector<bool>> z3_generate_place(const gen::Wan& wan,
                                                   const core::MigrationSpec& spec,
                                                   const net::PacketSet& cls,
                                                   const std::vector<topo::Path>& paths,
                                                   const std::vector<std::size_t>& path_set,
                                                   const std::vector<lai::ControlIntent>& controls) {
  const net::Packet h = cls.sample();
  const topo::ConfigView view{wan.topo};
  smt::SmtContext smt;
  auto opt = smt.make_optimize();
  std::unordered_map<topo::AclSlot, z3::expr, topo::AclSlotHash> vars;
  for (std::size_t i = 0; i < spec.targets.size(); ++i) {
    vars.emplace(spec.targets[i], smt.ctx().bool_const(("D_" + std::to_string(i)).c_str()));
  }
  for (const std::size_t pi : path_set) {
    const auto& path = paths[pi];
    const bool desired =
        core::desired_decision(controls, path, h, topo::path_permits(view, path, h));
    z3::expr conj = smt.bool_val(true);
    for (const auto& hop : path.hops()) {
      const auto slot = hop.slot();
      if (std::find(spec.sources.begin(), spec.sources.end(), slot) != spec.sources.end()) {
        conj = conj && smt.bool_val(spec.source_permits(slot, h));
      } else if (const auto it = vars.find(slot); it != vars.end()) {
        conj = conj && it->second;
      } else {
        conj = conj && smt.bool_val(view.acl(slot).permits(h));
      }
    }
    opt.add(conj == smt.bool_val(desired));
  }
  for (const auto& [slot, var] : vars) opt.add_soft(var, 1);
  const auto model = smt.check_optimize(opt);
  if (!model) return std::nullopt;
  std::vector<bool> values;
  for (const auto slot : spec.targets) {
    values.push_back(z3::eq(model->eval(vars.at(slot), true), smt.bool_val(true)));
  }
  return values;
}

/// Every fix placement of `fix`: each neighborhood at its representative,
/// with every bound slot allowed and with every other one allowed (so
/// paths through fixed denying slots and infeasible instances occur).
void compare_fix_instances(const gen::Wan& wan, const core::Planner& planner,
                           const topo::AclUpdate& update, const core::FixResult& fix,
                           const std::vector<lai::ControlIntent>& controls,
                           PlacementTally& tally) {
  const auto& paths = planner.paths();
  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &update};
  const auto bound = wan.topo.bound_slots();
  std::vector<topo::AclSlot> every_other;
  for (std::size_t i = 0; i < bound.size(); i += 2) every_other.push_back(bound[i]);
  const std::vector<topo::AclSlot>* allow_lists[] = {&bound, &every_other};
  for (const auto* allowed : allow_lists) {
    for (std::size_t n = 0; n < fix.neighborhoods.size(); ++n) {
      const net::Packet& h = fix.neighborhoods[n].representative;
      const auto feasible = planner.feasible_paths(fix.neighborhoods[n].set);
      std::vector<topo::AclSlot> vars;
      std::vector<bool> preferred;
      for (const auto slot : slots_on(paths, feasible)) {
        if (std::find(allowed->begin(), allowed->end(), slot) == allowed->end()) continue;
        vars.push_back(slot);
        preferred.push_back(after.acl(slot).permits(h));
      }
      std::optional<std::vector<bool>> kernel;
      if (const auto flipped =
              core::place_neighborhood(paths, feasible, before, after, *allowed, controls, h)) {
        kernel = preferred;
        for (std::size_t i = 0; i < vars.size(); ++i) {
          if (std::find(flipped->begin(), flipped->end(), vars[i]) != flipped->end()) {
            (*kernel)[i] = !preferred[i];
          }
        }
      }
      tally.compare(kernel,
                    z3_fix_place(paths, feasible, before, after, *allowed, controls, h, vars),
                    preferred,
                    "fix neighborhood " + std::to_string(n) +
                        (allowed == &bound ? " (all allowed)" : " (every other allowed)"));
    }
  }
}

/// Every generate placement of (spec, controls) on `wan`, in the order the
/// generator poses them: each AEC over all paths, and for an AEC with no
/// decision function, each of its DECs over its feasible paths.
void compare_generate_instances(const gen::Wan& wan, const core::MigrationSpec& spec,
                                const std::vector<lai::ControlIntent>& controls,
                                PlacementTally& tally) {
  const topo::ConfigView view{wan.topo};
  std::vector<topo::AclSlot> slots;
  for (const auto slot : wan.topo.bound_slots()) {
    if (wan.scope.contains_interface(wan.topo, slot.iface)) slots.push_back(slot);
  }
  const auto classes = core::acl_equivalence_classes(view, slots, wan.traffic, controls);
  const core::Planner planner{wan.topo, wan.scope};
  const core::PlacementSolver solver{planner};
  const auto& paths = planner.paths();
  const std::vector<bool> preferred(spec.targets.size(), true);
  const auto kernel_values = [&](const std::optional<core::ClassDecision>& decision) {
    std::optional<std::vector<bool>> values;
    if (!decision) return values;
    values.emplace();
    for (const auto slot : spec.targets) values->push_back(decision->decision.at(slot));
    return values;
  };
  std::vector<std::size_t> all(paths.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    const auto aec = solver.solve_class(spec, classes[ci], all, controls);
    tally.compare(kernel_values(aec),
                  z3_generate_place(wan, spec, classes[ci], paths, all, controls), preferred,
                  "AEC " + std::to_string(ci));
    if (aec) continue;
    for (const auto& dec : core::dataplane_equivalence_classes(wan.topo, wan.scope, classes[ci])) {
      std::vector<std::size_t> feasible;
      for (std::size_t pi = 0; pi < paths.size(); ++pi) {
        if (topo::forwarding_set(wan.topo, paths[pi]).intersects(dec)) feasible.push_back(pi);
      }
      tally.compare(kernel_values(solver.solve_class(spec, dec, feasible, controls)),
                    z3_generate_place(wan, spec, dec, paths, feasible, controls), preferred,
                    "DEC of AEC " + std::to_string(ci));
    }
  }
}

class PlacementMatchesZ3Optimize : public ::testing::TestWithParam<FixSearchCase> {};

TEST_P(PlacementMatchesZ3Optimize, FixAndGenerateInstances) {
  const FixSearchCase& c = GetParam();
  const auto wan = gen::make_wan(c.medium ? gen::medium_wan() : tiny_wan(800 + c.seed));
  const auto update = gen::perturb_rules(wan, c.fraction, c.seed);
  std::vector<lai::ControlIntent> controls;
  core::MigrationSpec spec = gen::migration_spec(wan);
  if (c.control_open) {
    const auto scenario = gen::control_open(wan, 1, c.seed);
    controls = scenario.intents;
    spec = scenario.spec;
  }

  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};
  core::PlanOptions options;
  options.per_entry_fec = c.per_entry;
  core::Planner planner{wan.topo, wan.scope, options};
  core::Fixer fixer{planner};
  const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots(), controls);
  ASSERT_FALSE(fix.neighborhoods.empty()) << "the case exercises no violation";

  PlacementTally tally;
  compare_fix_instances(wan, planner, update, fix, controls, tally);
  if (c.per_entry) compare_generate_instances(wan, spec, controls, tally);  // mode-independent
  tally.record();
  RecordProperty("max_nodes", static_cast<int>(registry.gauge(obs::Gauge::PlacementNodes)));
}

INSTANTIATE_TEST_SUITE_P(Cases, PlacementMatchesZ3Optimize, ::testing::ValuesIn(fix_search_cases()),
                         [](const auto& info) { return info.param.name; });

class PlacementMatchesZ3OptimizeOnGenerate : public ::testing::TestWithParam<unsigned> {};

TEST_P(PlacementMatchesZ3OptimizeOnGenerate, MigrationInstances) {
  const auto wan = gen::make_wan(tiny_wan(300 + GetParam()));  // GenerateSatisfiesOracle's WANs
  PlacementTally tally;
  compare_generate_instances(wan, gen::migration_spec(wan), {}, tally);
  EXPECT_GT(tally.instances, 0u);
  tally.record();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementMatchesZ3OptimizeOnGenerate, ::testing::Range(1u, 7u));

TEST(PlacementMatchesZ3OptimizeRandom, TwoHundredFortyInstances) {
  // Random instances of 1..12 variables: random preferences, permit and
  // deny paths over random variable subsets, some blocked by a constant
  // deny. The kernel's answer must also satisfy every path itself.
  std::mt19937 rng(20261017);
  PlacementTally tally;
  std::size_t max_nodes = 0;
  for (int instance = 0; instance < 240; ++instance) {
    const std::size_t n = 1 + rng() % 12;
    std::vector<bool> preferred(n);
    for (std::size_t v = 0; v < n; ++v) preferred[v] = rng() % 4 != 0;
    struct RandomPath {
      std::vector<std::size_t> vars;
      bool blocked;
      bool permit;
    };
    std::vector<RandomPath> random_paths(1 + rng() % 10);
    for (auto& path : random_paths) {
      for (std::size_t v = 0; v < n; ++v) {
        if (rng() % 3 == 0) path.vars.push_back(v);
      }
      if (path.vars.empty()) path.vars.push_back(rng() % n);
      path.blocked = rng() % 12 == 0;
      path.permit = rng() % 8 == 0;
    }
    core::PlacementProblem problem{preferred};
    for (const auto& path : random_paths) problem.add_path(path.vars, path.blocked, path.permit);
    const auto placement = core::solve_placement(problem);

    smt::SmtContext smt;
    auto opt = smt.make_optimize();
    std::vector<z3::expr> d;
    for (std::size_t v = 0; v < n; ++v) {
      d.push_back(smt.ctx().bool_const(("D_" + std::to_string(v)).c_str()));
      opt.add_soft(d[v] == smt.bool_val(preferred[v]), 1);
    }
    for (const auto& path : random_paths) {
      z3::expr conj = smt.bool_val(!path.blocked);
      for (const std::size_t v : path.vars) conj = conj && d[v];
      opt.add(conj == smt.bool_val(path.permit));
    }
    std::optional<std::vector<bool>> z3_values;
    if (const auto model = smt.check_optimize(opt)) {
      z3_values.emplace();
      for (std::size_t v = 0; v < n; ++v) {
        z3_values->push_back(z3::eq(model->eval(d[v], true), smt.bool_val(true)));
      }
    }
    std::optional<std::vector<bool>> kernel;
    if (placement) {
      kernel = placement->values;
      max_nodes = std::max(max_nodes, placement->nodes);
      for (const auto& path : random_paths) {
        bool permits = !path.blocked;
        for (const std::size_t v : path.vars) permits = permits && placement->values[v];
        EXPECT_EQ(permits, path.permit) << "instance " << instance;
      }
      std::size_t cost = 0;
      for (std::size_t v = 0; v < n; ++v) cost += placement->values[v] != preferred[v] ? 1 : 0;
      EXPECT_EQ(cost, placement->cost) << "instance " << instance;
    }
    tally.compare(kernel, z3_values, preferred, "instance " + std::to_string(instance));
  }
  EXPECT_GT(tally.infeasible, 0u);
  EXPECT_LT(tally.infeasible, tally.instances);
  tally.record();
  RecordProperty("max_nodes", static_cast<int>(max_nodes));
}

// ---- The check scan with control intents, against Checker::check ---------

/// The plan obligation a violation witnesses: its class holds the witness
/// and its feasible paths include the violated one.
std::size_t obligation_of(const core::VerifyPlan& plan, const core::Violation& violation) {
  for (const auto& o : plan.obligations()) {
    if (o.fec->contains(violation.witness) &&
        std::find(o.paths.begin(), o.paths.end(), violation.path_index) != o.paths.end()) {
      return o.index;
    }
  }
  return plan.size();
}

class ControlScanMatchesChecker : public ::testing::TestWithParam<unsigned> {};

TEST_P(ControlScanMatchesChecker, VerdictMinimalObligationAndWitness) {
  const unsigned seed = GetParam();
  const auto wan = gen::make_wan(tiny_wan(900 + seed));
  // Open and isolate intents: the control-open scenario's headers, every
  // other one turned into an isolate.
  std::mt19937 rng(seed);
  auto controls = gen::control_open(wan, 2, seed).intents;
  for (auto& intent : controls) {
    if (rng() % 2 == 0) intent.verb = lai::ControlVerb::Isolate;
  }
  const auto perturbed = gen::perturb_rules(wan, 0.03, seed);
  core::Planner planner{wan.topo, wan.scope};
  core::Fixer fixer{planner};
  const auto fix = fixer.fix(perturbed, wan.traffic, wan.topo.bound_slots(), controls);
  ASSERT_TRUE(fix.success);
  const std::vector<std::pair<std::string, topo::AclUpdate>> updates = {
      {"no update", {}}, {"perturbed", perturbed}, {"repaired", fix.fixed_update}};

  std::size_t consistent = 0;
  for (const bool per_entry : {true, false}) {
    for (const bool stop_at_first : {true, false}) {
      smt::SmtContext smt;
      core::CheckOptions options;
      options.per_entry_fec = per_entry;
      options.stop_at_first = stop_at_first;
      core::Checker checker{smt, wan.topo, wan.scope, options};
      const auto algebra =
          core::build_batch_algebra(wan.topo, checker.share_plan(wan.traffic));
      const core::VerifyPlan& plan = algebra.bundle->plan;
      core::BatchRunOptions run;
      run.stop_at_first = stop_at_first;
      for (const auto& [name, update] : updates) {
        const std::string tag = name + (per_entry ? " per-entry" : " global") +
                                (stop_at_first ? " stop_at_first" : " all");
        const auto expected = checker.check(update, wan.traffic, controls);
        const auto scanned =
            core::run_check_batch(wan.topo, algebra, {core::BatchItem{&update, {}, {}, &controls}},
                                  run)
                .front()
                .result;
        ASSERT_EQ(scanned.consistent, expected.consistent) << tag;
        EXPECT_EQ(scanned.smt_queries, 0u) << tag;
        consistent += scanned.consistent ? 1 : 0;
        ASSERT_EQ(scanned.violations.size(), expected.violations.size()) << tag;
        const topo::ConfigView before{wan.topo};
        const topo::ConfigView after{wan.topo, &update};
        for (std::size_t i = 0; i < scanned.violations.size(); ++i) {
          const auto& v = scanned.violations[i];
          EXPECT_EQ(obligation_of(plan, v), obligation_of(plan, expected.violations[i])) << tag;
          // The witness violates concretely, on a path that carries it.
          const auto& path = checker.paths()[v.path_index];
          const bool desired = core::desired_decision(controls, path, v.witness,
                                                      topo::path_permits(before, path, v.witness));
          EXPECT_EQ(desired, v.decision_before) << tag;
          EXPECT_EQ(topo::path_permits(after, path, v.witness), v.decision_after) << tag;
          EXPECT_NE(v.decision_before, v.decision_after) << tag;
          EXPECT_TRUE(topo::forwarding_set(wan.topo, path).contains(v.witness)) << tag;
        }
      }
    }
  }
  EXPECT_GT(consistent, 0u) << "the repaired update must verify";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlScanMatchesChecker, ::testing::Range(1u, 7u));

// control-open: the opened prefixes are reachable afterwards, everything
// else is untouched — verified exactly.
class ControlOpenOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(ControlOpenOracle, OpenedTrafficFlowsOthersUnchanged) {
  const auto wan = gen::make_wan(tiny_wan(400 + GetParam()));
  const auto sc = gen::control_open(wan, 1, GetParam());

  core::GenerateOptions options;
  options.universe = wan.traffic;
  core::Planner planner{wan.topo, wan.scope};
  core::Generator generator{planner, options};
  const auto result = generator.generate(sc.spec, sc.intents);
  ASSERT_TRUE(result.success);

  const topo::ConfigView before{wan.topo};
  const topo::ConfigView after{wan.topo, &result.update};
  for (const auto& path : topo::enumerate_paths(wan.topo, wan.scope)) {
    const auto carried = topo::forwarding_set(wan.topo, path) & wan.traffic;
    if (carried.is_empty()) continue;
    const auto before_permitted = topo::path_permitted_set(before, path) & carried;
    const auto after_permitted = topo::path_permitted_set(after, path) & carried;

    // Desired set per path: original, plus the opened headers on spanned
    // paths.
    auto desired = before_permitted;
    for (const auto& intent : sc.intents) {
      if (spans(intent, path)) desired = desired | (intent.header & carried);
    }
    EXPECT_TRUE(after_permitted.equals(desired)) << to_string(wan.topo, path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlOpenOracle, ::testing::Range(1u, 6u));


// Parallel checking returns the same verdict as sequential.
class ParallelCheck : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelCheck, MatchesSequentialVerdict) {
  const auto wan = gen::make_wan(tiny_wan(500 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.04, GetParam());

  smt::SmtContext smt_seq;
  core::CheckOptions seq;
  seq.stop_at_first = false;
  core::Checker sequential{smt_seq, wan.topo, wan.scope, seq};
  const auto a = sequential.check(update, wan.traffic);

  smt::SmtContext smt_par;
  core::CheckOptions par;
  par.stop_at_first = false;
  par.threads = 4;
  core::Checker parallel{smt_par, wan.topo, wan.scope, par};
  const auto b = parallel.check(update, wan.traffic);

  EXPECT_EQ(a.consistent, b.consistent);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.fec_count, b.fec_count);

  // stop_at_first parallel: consistent verdicts also agree.
  smt::SmtContext smt_stop;
  core::CheckOptions stop;
  stop.threads = 4;
  core::Checker stopping{smt_stop, wan.topo, wan.scope, stop};
  EXPECT_EQ(stopping.check(update, wan.traffic).consistent, a.consistent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCheck, ::testing::Range(1u, 6u));


// §6 x Theorem 4.1 interaction: with control intents present, the
// differential reduction must keep the rules the intents can flip — the
// verdict must match basic mode exactly.
class ControlDifferentialAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(ControlDifferentialAgreement, VerdictsMatchAcrossModes) {
  const auto wan = gen::make_wan(tiny_wan(600 + GetParam()));
  const auto update = gen::perturb_rules(wan, 0.03, GetParam());
  const auto sc = gen::control_open(wan, 1, GetParam());

  std::optional<bool> previous;
  for (const bool differential : {false, true}) {
    for (const bool per_entry : {false, true}) {
      smt::SmtContext smt;
      core::CheckOptions options;
      options.use_differential = differential;
      options.per_entry_fec = per_entry;
      options.stop_at_first = false;
      core::Checker checker{smt, wan.topo, wan.scope, options};
      const bool verdict = checker.check(update, wan.traffic, sc.intents).consistent;
      if (previous) {
        EXPECT_EQ(*previous, verdict)
            << "diff=" << differential << " per_entry=" << per_entry;
      }
      previous = verdict;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlDifferentialAgreement, ::testing::Range(1u, 7u));


// Topology-shape sweep: the oracle agreement must hold across structural
// variants (full bipartite fabric, wider cells, single aggregation).
struct WanVariant {
  unsigned seed;
  std::size_t aggs;
  std::size_t gateways_per_cell;
  std::size_t asymmetry;
};

class WanShapeOracle : public ::testing::TestWithParam<WanVariant> {};

TEST_P(WanShapeOracle, CheckAndFixAgreeWithOracle) {
  gen::WanParams params = tiny_wan(700 + GetParam().seed);
  params.aggs = GetParam().aggs;
  params.gateways_per_cell = GetParam().gateways_per_cell;
  params.asymmetry = GetParam().asymmetry;
  const auto wan = gen::make_wan(params);
  const auto update = gen::perturb_rules(wan, 0.05, GetParam().seed);

  smt::SmtContext smt;
  core::Checker checker{smt, wan.topo, wan.scope};
  EXPECT_EQ(checker.check(update, wan.traffic).consistent, oracle_consistent(wan, update));

  core::Planner planner{wan.topo, wan.scope};
  core::Fixer fixer{planner};
  const auto fix = fixer.fix(update, wan.traffic, wan.topo.bound_slots());
  ASSERT_TRUE(fix.success);
  EXPECT_TRUE(oracle_consistent(wan, fix.fixed_update));
}

INSTANTIATE_TEST_SUITE_P(Shapes, WanShapeOracle,
                         ::testing::Values(WanVariant{1, 2, 2, 0},   // full bipartite
                                           WanVariant{2, 1, 2, 0},   // single aggregation
                                           WanVariant{3, 3, 3, 4},   // wider, asymmetric
                                           WanVariant{4, 2, 1, 3},   // one gateway per cell
                                           WanVariant{5, 3, 2, 2}),  // heavy pruning
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param.seed) + "Aggs" +
                                  std::to_string(info.param.aggs) + "Gpc" +
                                  std::to_string(info.param.gateways_per_cell) + "Asym" +
                                  std::to_string(info.param.asymmetry);
                         });

}  // namespace
}  // namespace jinjing
