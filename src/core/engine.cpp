#include "core/engine.h"

#include <algorithm>

#include "lai/parser.h"
#include "net/acl_algebra.h"
#include "obs/trace.h"

namespace jinjing::core {

namespace {

bool same_scope(const topo::Scope& a, const topo::Scope& b) {
  return a.devices() == b.devices();
}

}  // namespace

bool CommandOutcome::ok() const {
  switch (command) {
    case lai::Command::Check: return check && check->consistent;
    case lai::Command::Fix: return fix && fix->success;
    case lai::Command::Generate: return generate && generate->success;
  }
  return false;
}

bool EngineReport::success() const { return !outcomes.empty() && outcomes.back().ok(); }

Engine::Engine(const topo::Topology& topo, EngineOptions options)
    : topo_(topo), options_(std::move(options)) {}

Planner& Engine::planner_for(const topo::Scope& scope) {
  if (!planner_ || !same_scope(planner_->scope(), scope)) {
    algebra_.reset();
    planner_ = std::make_unique<Planner>(topo_, scope, options_.plan);
  }
  return *planner_;
}

CheckResult Engine::check(const lai::UpdateTask& task, const topo::AclUpdate& update,
                          const net::PacketSet& entering, const StopProbes& probes) {
  Planner& planner = planner_for(task.scope);
  double plan_seconds = 0;
  if (!algebra_ || !algebra_->bundle->entering.equals(entering)) {
    auto bundle = planner.share_plan(entering);
    plan_seconds = planner.last_plan_seconds();
    algebra_ = std::make_shared<const BatchAlgebra>(build_batch_algebra(topo_, std::move(bundle)));
  }
  BatchItem item;
  item.update = &update;
  item.probes = probes;
  item.controls = &task.controls;
  BatchRunOptions run;
  run.stop_at_first = options_.plan.stop_at_first;
  auto outcome = std::move(run_check_batch(topo_, *algebra_, {item}, run).front());
  if (outcome.cancelled) throw Interrupted{false};
  if (outcome.deadline_expired) throw Interrupted{true};
  outcome.result.plan_seconds = plan_seconds;
  return outcome.result;
}

CommandOutcome Engine::run_command(const lai::UpdateTask& task, lai::Command command,
                                   topo::AclUpdate& current, const net::PacketSet& entering,
                                   const StopProbes& probes) {
  CommandOutcome outcome;
  outcome.command = command;
  switch (command) {
    case lai::Command::Check: {
      const obs::TraceSpan span{obs::Span::EngineCheck};
      outcome.check = check(task, current, entering, probes);
      break;
    }
    case lai::Command::Fix: {
      const obs::TraceSpan span{obs::Span::EngineFix};
      Fixer fixer{planner_for(task.scope), options_.fix};
      outcome.fix = fixer.fix(current, entering, task.allowed, task.controls, probes);
      current = outcome.fix->fixed_update;
      break;
    }
    case lai::Command::Generate: {
      const obs::TraceSpan span{obs::Span::EngineGenerate};
      // Modify slots are generate sources: their post-update ACL is fixed
      // (permit-all for a plain migration, or the named replacement). The
      // spec reads task.modify, not `current`: sources are the operator's
      // original migration statement, regardless of intervening repairs.
      MigrationSpec spec;
      for (const auto& [slot, acl] : task.modify) {
        spec.sources.push_back(slot);
        if (!net::permitted_set(acl).equals(net::PacketSet::all())) {
          spec.replacements.emplace(slot, acl);
        }
      }
      for (const auto slot : task.allowed) {
        if (std::find(spec.sources.begin(), spec.sources.end(), slot) == spec.sources.end()) {
          spec.targets.push_back(slot);
        }
      }
      GenerateOptions gen_options = options_.generate;
      gen_options.universe = gen_options.universe & entering;
      Generator generator{planner_for(task.scope), gen_options};
      outcome.generate = generator.generate(spec, task.controls, probes);
      current = outcome.generate->update;
      break;
    }
  }
  return outcome;
}

EngineReport Engine::run(const lai::UpdateTask& task, const net::PacketSet& entering) {
  EngineReport report;
  // Commands operate on the *current* plan: check after fix re-validates
  // the repaired update, not the original proposal.
  report.final_update = task.modify;
  for (const auto command : task.commands) {
    report.outcomes.push_back(run_command(task, command, report.final_update, entering));
  }
  return report;
}

EngineReport Engine::run_program(std::string_view source, const lai::AclLibrary& acls,
                                 const net::PacketSet& entering) {
  const auto program = lai::parse(source);
  const auto task = lai::resolve(program, topo_, acls);
  return run(task, entering);
}

}  // namespace jinjing::core
