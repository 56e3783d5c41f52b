#include "core/planner.h"

#include "obs/stats.h"
#include "obs/trace.h"

namespace jinjing::core {

Planner::Planner(const topo::Topology& topo, const topo::Scope& scope, const PlanOptions& options)
    : topo_(topo),
      scope_(scope),
      options_(options),
      fec_cache_(options.fec_cache ? options.fec_cache : std::make_shared<topo::FecCache>()) {
  if (options_.adopted_plan) {
    // The bundle carries paths, forwarding sets and the plan verbatim; the
    // caller guarantees it was built over the same structure (see
    // PlanOptions::adopted_plan).
    adopted_ = options_.adopted_plan;
    return;
  }
  paths_ = topo::enumerate_paths(topo_, scope_);
  path_forwarding_.reserve(paths_.size());
  for (const auto& p : paths_) path_forwarding_.push_back(topo::forwarding_set(topo_, p));
}

std::shared_ptr<const std::vector<topo::EntryClasses>> Planner::entry_classes(
    const net::PacketSet& entering) {
  return fec_cache_->entry_classes(topo_, scope_, entering, topo::FecOptions{options_.threads});
}

std::shared_ptr<const std::vector<net::PacketSet>> Planner::global_classes(
    const net::PacketSet& entering) {
  return fec_cache_->global_classes(topo_, scope_, entering, topo::FecOptions{options_.threads});
}

std::vector<std::size_t> Planner::feasible_paths(const net::PacketSet& traffic) const {
  const auto& forwarding = path_forwarding();
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < forwarding.size(); ++i) {
    if (forwarding[i].intersects(traffic)) out.push_back(i);
  }
  return out;
}

const VerifyPlan& Planner::plan(const net::PacketSet& entering) {
  if (adopted_ && adopted_->entering.equals(entering)) {
    last_plan_seconds_ = 0;  // served from the adopted bundle
    obs::count(obs::Counter::PlanCacheHits);
    return adopted_->plan;
  }
  if (plan_entering_ && plan_entering_->equals(entering)) {
    last_plan_seconds_ = 0;  // served from cache
    obs::count(obs::Counter::PlanCacheHits);
    return plan_;
  }
  const obs::TraceSpan span{obs::Span::CheckerPlan};
  if (options_.per_entry_fec) {
    plan_ = build_verify_plan(paths(), path_forwarding(), entry_classes(entering));
  } else {
    plan_ = build_verify_plan(paths(), path_forwarding(), global_classes(entering));
  }
  plan_entering_ = entering;
  last_plan_seconds_ = plan_.stats().plan_seconds;
  obs::count(obs::Counter::PlanBuilds);
  obs::count(obs::Counter::ObligationsPlanned, plan_.obligations().size());
  return plan_;
}

std::shared_ptr<const PlanBundle> Planner::share_plan(const net::PacketSet& entering) {
  if (adopted_ && adopted_->entering.equals(entering)) return adopted_;
  auto bundle = std::make_shared<PlanBundle>();
  bundle->plan = plan(entering);  // builds (or reuses) first; copies share class storage
  bundle->paths = paths();
  bundle->path_forwarding = path_forwarding();
  bundle->entering = entering;
  return bundle;
}

Executor& Planner::executor() {
  if (options_.executor) return *options_.executor;
  if (!own_executor_) own_executor_ = std::make_shared<Executor>(options_.threads);
  return *own_executor_;
}

}  // namespace jinjing::core
