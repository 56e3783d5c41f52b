// The Jinjing engine: executes a resolved LAI program (§3).
//
// The engine dispatches each command of the program against the *current*
// plan (initially the modify update; fix and generate replace it, so a
// trailing check re-validates the final plan):
//   check    -> the exact set scan of core/batch (Algorithm 1's verdict,
//               with control intents through their desired sets) over the
//               planner's plan,
//   fix      -> Fixer (§4.2) constrained to the allow-listed slots,
//   generate -> Generator (§5): modify-to-permit-all slots are migration
//               sources, allow-listed slots are synthesis targets, control
//               statements define the desired reachability (§6).
// The final update of the last executed command is the deployable plan. No
// command issues an SMT query.
//
// One Planner is kept per scope and reused across the commands of a task
// (and across tasks with the same scope): check, fix and generate read its
// paths, enumerated once, and its plan, built once per entering set (or
// adopted from PlanOptions::adopted_plan, as the service does). Every
// command runs on the calling thread; the service runs one engine per job
// and gets its concurrency from running jobs side by side.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/batch.h"
#include "core/fixer.h"
#include "core/generator.h"
#include "lai/sema.h"

namespace jinjing::core {

struct EngineOptions {
  /// Planning and the check command's early exit.
  PlanOptions plan;
  FixOptions fix;
  GenerateOptions generate;
};

/// Outcome of one command of the program.
struct CommandOutcome {
  lai::Command command = lai::Command::Check;
  std::optional<CheckResult> check;
  std::optional<FixResult> fix;
  std::optional<GenerateResult> generate;

  [[nodiscard]] bool ok() const;
};

struct EngineReport {
  std::vector<CommandOutcome> outcomes;
  /// The update plan produced by the pipeline: the modify update, possibly
  /// repaired by fix or replaced by generate.
  topo::AclUpdate final_update;
  /// The pipeline produced a deployable plan: the *last* command succeeded
  /// (a failing check followed by a successful fix is the intended
  /// check-then-repair workflow, not a failure).
  [[nodiscard]] bool success() const;
};

class EngineError : public std::runtime_error {
 public:
  explicit EngineError(const std::string& what) : std::runtime_error(what) {}
};

class Engine {
 public:
  Engine(const topo::Topology& topo, EngineOptions options = {});

  /// Executes a resolved task against the traffic entering its scope.
  [[nodiscard]] EngineReport run(const lai::UpdateTask& task, const net::PacketSet& entering);

  /// Executes one command of `task` against the current plan `current`
  /// (initialized by the caller to task.modify), advancing it in place —
  /// fix replaces it with the repaired update, generate with the
  /// synthesized one. run() is a loop over this; it is exposed separately
  /// so a serving layer can pass a job's `probes`, which every command polls
  /// between its units of work (Interrupted when one fires).
  [[nodiscard]] CommandOutcome run_command(const lai::UpdateTask& task, lai::Command command,
                                           topo::AclUpdate& current,
                                           const net::PacketSet& entering,
                                           const StopProbes& probes = {});

  /// Parses, resolves and executes an LAI program in one call.
  [[nodiscard]] EngineReport run_program(std::string_view source, const lai::AclLibrary& acls,
                                         const net::PacketSet& entering);

 private:
  /// The scope's planner, rebuilt (with the scan algebra dropped) only
  /// when the task scope changes.
  Planner& planner_for(const topo::Scope& scope);

  /// The check command: one scan of `update` over the scope's plan.
  [[nodiscard]] CheckResult check(const lai::UpdateTask& task, const topo::AclUpdate& update,
                                  const net::PacketSet& entering, const StopProbes& probes);

  const topo::Topology& topo_;
  EngineOptions options_;

  std::unique_ptr<Planner> planner_;
  std::shared_ptr<const BatchAlgebra> algebra_;  // for the planner's last entering set
};

}  // namespace jinjing::core
