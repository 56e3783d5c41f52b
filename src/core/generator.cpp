#include "core/generator.h"

#include <chrono>

#include "net/acl_algebra.h"
#include "obs/trace.h"

namespace jinjing::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

Generator::Generator(Planner& planner, const GenerateOptions& options)
    : planner_(planner), options_(options) {}

GenerateResult Generator::generate(const MigrationSpec& spec,
                                   const std::vector<lai::ControlIntent>& controls,
                                   const StopProbes& probes) {
  GenerateResult result;

  // Phase 1: derive ACL equivalence classes (§5.1; §6 adds the control
  // headers as refinement predicates).
  auto t0 = std::chrono::steady_clock::now();
  const topo::Topology& topo = planner_.topology();
  const topo::ConfigView view{topo};
  std::vector<topo::AclSlot> slots;
  for (const auto slot : topo.bound_slots()) {
    if (planner_.scope().contains_interface(topo, slot.iface)) slots.push_back(slot);
  }
  std::vector<net::PacketSet> replacement_predicates;
  for (const auto& [slot, acl] : spec.replacements) {
    replacement_predicates.push_back(net::permitted_set(acl));
  }
  std::vector<net::PacketSet> classes;
  {
    const obs::TraceSpan span{obs::Span::GenDerive};
    classes = acl_equivalence_classes(view, slots, options_.universe, controls,
                                      replacement_predicates, &planner_.fec_cache());
  }
  result.aec_count = classes.size();
  result.derive_seconds = seconds_since(t0);

  // Phase 2: solve decision functions (§5.2), refine to DECs where needed
  // (§5.3), fanned out over the shared executor.
  t0 = std::chrono::steady_clock::now();
  PlacementResult placement;
  {
    const obs::TraceSpan solve_span{obs::Span::GenSolve};
    const PlacementSolver solver{planner_};
    placement = solver.solve(spec, classes, controls, &planner_.executor(), probes);
  }
  result.aec_solved = placement.aec_solutions.size();
  for (const auto& [ci, decs] : placement.dec_solutions) result.dec_count += decs.size();
  result.dec_count += placement.unsolved.size();
  result.unsolved = placement.unsolved.size();
  result.success = placement.success;
  result.solve_seconds = seconds_since(t0);

  // Phase 3: synthesize ACLs (§5.4 + §5.5).
  t0 = std::chrono::steady_clock::now();
  const obs::TraceSpan synth_span{obs::Span::GenSynth};
  auto synthesis = synthesize(topo, planner_.scope(), spec, classes, placement,
                              options_.synthesis, controls);
  result.update = std::move(synthesis.acls);
  result.synthesis = synthesis.stats;
  result.synth_seconds = seconds_since(t0);
  return result;
}

}  // namespace jinjing::core
