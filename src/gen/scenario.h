// Workload recipes for the §7–§8 experiments, built on the synthetic WAN.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/placement.h"
#include "gen/wan.h"
#include "lai/sema.h"
#include "net/acl.h"

namespace jinjing::gen {

/// Figures 4a/4b: randomly perturb `fraction` of the rules in every
/// configured ACL (flip action / narrow prefix / delete / insert).
/// Deterministic for a given seed. The trailing permit-all is preserved.
[[nodiscard]] topo::AclUpdate perturb_rules(const Wan& wan, double fraction, unsigned seed);

/// Figure 4c: the common migration — move all ACLs from the middle
/// (aggregation) layer down to the gateway layer.
[[nodiscard]] core::MigrationSpec migration_spec(const Wan& wan);

/// Figure 4d: control-open scenario — open `k` gateway-protected /24
/// subnets per gateway (clamped to availability) and regenerate the
/// gateway ACLs. `intents` feed check/generate; `spec` lists the targets.
struct ControlOpenScenario {
  std::vector<lai::ControlIntent> intents;
  core::MigrationSpec spec;
  std::size_t opened = 0;  // total prefixes opened
};
[[nodiscard]] ControlOpenScenario control_open(const Wan& wan, std::size_t k, unsigned seed);

/// §7 Scenario 2: relocate every gateway's ingress ACL to its host-side
/// egress interface — subtly breaking intra-cell (pe) reachability.
[[nodiscard]] topo::AclUpdate ingress_to_egress_update(const Wan& wan);

/// The slots fix may touch in the scenario-2 repair (the gateway layer).
[[nodiscard]] std::vector<topo::AclSlot> gateway_layer_allow(const Wan& wan);

// ---- Continuous-churn event streams (the soak harness's workload). -------

/// One event class of the churn mix. Check-shaped events carry a full LAI
/// program; Cancel carries nothing (the harness targets a recently
/// submitted job); Malformed must be rejected at submission.
enum class ChurnEventKind : std::uint8_t {
  PureCheck,     // whole-network check of the pinned head
  PendingCheck,  // modify(perturbation) + check
  CheckFix,      // perturbation check + fix (batch priority, full engine)
  Apply,         // consistency-preserving rebind; deploy the plan on success
  ControlOpen,   // control ... open burst + generate
  Migration,     // aggregation -> gateway migration + generate
  Cancel,        // cancel a recently submitted job
  Malformed,     // unparsable / unresolvable LAI: a submission error
  Conflicting,   // mutually conflicting control lines (priority-resolved)
};

[[nodiscard]] std::string_view to_string(ChurnEventKind kind);

/// Relative weights of the event classes (they need not sum to 1; zero
/// removes a class from the stream entirely).
struct ChurnMix {
  double pure_check = 0.30;
  double pending_check = 0.24;
  double check_fix = 0.04;
  double apply = 0.12;
  double control_open = 0.03;
  double migration = 0.02;
  double cancel = 0.10;
  double malformed = 0.07;
  double conflicting = 0.08;
};

struct ChurnStreamParams {
  std::size_t events = 500;
  unsigned seed = 1;
  ChurnMix mix;
  double perturb_fraction = 0.05;  // PendingCheck / CheckFix mutation budget
  std::size_t control_open_k = 1;  // prefixes opened per gateway
};

struct ChurnEvent {
  std::size_t index = 0;
  ChurnEventKind kind = ChurnEventKind::PureCheck;
  std::string program;                                  // empty for Cancel
  std::vector<std::pair<std::string, net::Acl>> acls;   // named bodies
  bool expect_submit_error = false;  // Malformed: submission must fail
  bool apply_plan = false;           // Apply: deploy the plan once verified
};

/// The seeded churn stream: `params.events` events drawn from the mix.
/// Deterministic — the same (wan, params) always produces byte-identical
/// programs and ACL bodies, so a soak run is replayable from its seed.
/// Apply-event bodies are derived from the *base* topology (semantically
/// no-op rebinds under first-match), so the stream never depends on the
/// run-time version history it will itself create.
[[nodiscard]] std::vector<ChurnEvent> churn_stream(const Wan& wan,
                                                   const ChurnStreamParams& params);

/// One-line fingerprint "index kind fnv64(program+bodies)" for stream
/// dumps; two runs of the same seed must produce identical dumps.
[[nodiscard]] std::string describe(const ChurnEvent& event);

// ---- LAI program emitters (Table 5: program line counts). ----------------

/// The check+fix program for a perturbation update (modify one line per
/// perturbed slot).
[[nodiscard]] std::string check_fix_program(const Wan& wan, const topo::AclUpdate& update);

/// The migration program (modify sources to permit-all, generate at
/// targets).
[[nodiscard]] std::string migration_program(const Wan& wan);

/// The control-open program (one control line per opened prefix group).
[[nodiscard]] std::string control_open_program(const Wan& wan, const ControlOpenScenario& sc);

}  // namespace jinjing::gen
