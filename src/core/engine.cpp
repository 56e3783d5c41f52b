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
    : topo_(topo), options_(std::move(options)) {
  // One equivalence-class cache across every checker/fixer the engine
  // creates: a check → fix → check pipeline derives each partition once.
  if (!options_.check.fec_cache) options_.check.fec_cache = std::make_shared<topo::FecCache>();
  if (!options_.fix.check.fec_cache) options_.fix.check.fec_cache = options_.check.fec_cache;
  if (!options_.generate.fec_cache) options_.generate.fec_cache = options_.check.fec_cache;
  // One executor likewise: check obligations, fix searches and generate
  // placements all draw from the same worker pool.
  if (!options_.check.executor) {
    options_.check.executor = std::make_shared<Executor>(options_.check.threads);
  }
  if (!options_.fix.check.executor) options_.fix.check.executor = options_.check.executor;
  if (!options_.generate.executor) options_.generate.executor = options_.check.executor;
}

void Engine::use_scope(const topo::Scope& scope) {
  if (session_scope_ && same_scope(*session_scope_, scope)) return;
  algebra_.reset();
  fixer_.reset();
  checker_.reset();
  session_scope_ = scope;
}

Checker& Engine::checker_for(const topo::Scope& scope) {
  use_scope(scope);
  if (!checker_) checker_ = std::make_unique<Checker>(smt_, topo_, scope, options_.check);
  return *checker_;
}

Fixer& Engine::fixer_for(const topo::Scope& scope) {
  use_scope(scope);
  if (!fixer_) fixer_ = std::make_unique<Fixer>(smt_, topo_, scope, options_.fix);
  return *fixer_;
}

CheckResult Engine::check(const lai::UpdateTask& task, const topo::AclUpdate& update,
                          const net::PacketSet& entering, const StopProbes& probes) {
  Checker& checker = checker_for(task.scope);
  double plan_seconds = 0;
  if (!algebra_ || !algebra_->bundle->entering.equals(entering)) {
    auto bundle = checker.share_plan(entering);
    plan_seconds = checker.last_plan_seconds();
    algebra_ = std::make_shared<const BatchAlgebra>(build_batch_algebra(topo_, std::move(bundle)));
  }
  BatchItem item;
  item.update = &update;
  item.probes = probes;
  item.controls = &task.controls;
  BatchRunOptions run;
  run.stop_at_first = options_.check.stop_at_first;
  run.executor = &checker.executor();
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
      outcome.fix =
          fixer_for(task.scope).fix(current, entering, task.allowed, task.controls, probes);
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
      Generator generator{topo_, task.scope, gen_options};
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
