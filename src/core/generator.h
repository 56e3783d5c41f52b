// The generate primitive (§5): derive classes → solve placements →
// synthesize ACLs, with the timing breakdown the paper reports in
// Figures 4c/4d.
#pragma once

#include <cstdint>
#include <memory>

#include "core/executor.h"
#include "core/synthesizer.h"
#include "topo/fec_cache.h"

namespace jinjing::core {

struct GenerateOptions {
  SynthesisOptions synthesis;
  topo::PathEnumOptions path_options;
  /// The traffic to classify and preserve. Defaults to every packet.
  net::PacketSet universe = net::PacketSet::all();
  /// Shared obligation executor for the per-class placement solving
  /// (phase 2). Unset or single-threaded = the sequential seed path.
  std::shared_ptr<Executor> executor;
  /// Shared partition cache: phase 1's AEC overlay is memoized by the exact
  /// cubes of (universe, refinement regions), so warm generate jobs whose
  /// scoped ACLs match an earlier derivation skip the overlay while
  /// producing bit-identical classes. Unset = always derive.
  std::shared_ptr<topo::FecCache> fec_cache;
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
  Generator(const topo::Topology& topo, const topo::Scope& scope,
            const GenerateOptions& options = {});

  /// Runs the three phases; `probes` are polled before each class's
  /// placement (Interrupted when one fires).
  [[nodiscard]] GenerateResult generate(const MigrationSpec& spec,
                                        const std::vector<lai::ControlIntent>& controls = {},
                                        const StopProbes& probes = {});

 private:
  const topo::Topology& topo_;
  const topo::Scope scope_;
  GenerateOptions options_;
};

}  // namespace jinjing::core
