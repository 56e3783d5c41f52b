// The generate primitive (§5): derive classes → solve placements →
// synthesize ACLs, with the timing breakdown the paper reports in
// Figures 4c/4d.
#pragma once

#include <cstdint>

#include "core/planner.h"
#include "core/stop_probes.h"
#include "core/synthesizer.h"

namespace jinjing::core {

struct GenerateOptions {
  SynthesisOptions synthesis;
  /// The traffic to classify and preserve. Defaults to every packet.
  net::PacketSet universe = net::PacketSet::all();
};

struct GenerateResult {
  bool success = true;
  /// The generated plan: target slots -> synthesized ACLs, source slots ->
  /// permit-all.
  topo::AclUpdate update;

  std::size_t aec_count = 0;
  std::size_t aec_solved = 0;     // solved at AEC level
  std::size_t dec_count = 0;      // DECs derived for the unsolved AECs
  std::size_t unsolved = 0;       // DECs with no valid decision
  SynthesisStats synthesis;

  // Phase timing (seconds) — the Figure 4c/4d breakdown.
  double derive_seconds = 0;
  double solve_seconds = 0;
  double synth_seconds = 0;
};

class Generator {
 public:
  /// Generates over `planner`'s scope (borrowed; it must outlive the
  /// generator). Phase 1's AEC overlay goes through the planner's
  /// PlanOptions::aec_memo when one is set, so warm jobs whose scoped ACLs
  /// match an earlier derivation skip it; phase 2 solves on the planner's
  /// paths, class by class.
  explicit Generator(Planner& planner, const GenerateOptions& options = {});

  /// Runs the three phases; `probes` are polled before each class's
  /// placement (Interrupted when one fires).
  [[nodiscard]] GenerateResult generate(const MigrationSpec& spec,
                                        const std::vector<lai::ControlIntent>& controls = {},
                                        const StopProbes& probes = {});

 private:
  Planner& planner_;
  GenerateOptions options_;
};

}  // namespace jinjing::core
