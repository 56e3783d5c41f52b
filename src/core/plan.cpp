#include "core/plan.h"

#include <algorithm>
#include <chrono>

namespace jinjing::core {

namespace {

/// Feasible paths of one class: paths whose forwarding set can carry it,
/// optionally restricted to one entry interface — exactly the set Y the
/// sequential checker computed per query.
std::vector<std::size_t> feasible_paths(const std::vector<topo::Path>& paths,
                                        const std::vector<net::PacketSet>& path_forwarding,
                                        const net::PacketSet& fec,
                                        std::optional<topo::InterfaceId> entry) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (entry && paths[i].entry() != *entry) continue;
    if (path_forwarding[i].intersects(fec)) out.push_back(i);
  }
  return out;
}

std::vector<topo::AclSlot> slot_union(const std::vector<topo::Path>& paths,
                                      const std::vector<std::size_t>& feasible) {
  std::vector<topo::AclSlot> slots;
  for (const std::size_t pi : feasible) {
    for (const auto& hop : paths[pi].hops()) slots.push_back(hop.slot());
  }
  const auto less = [](topo::AclSlot a, topo::AclSlot b) {
    if (a.iface != b.iface) return a.iface < b.iface;
    return a.dir < b.dir;
  };
  std::sort(slots.begin(), slots.end(), less);
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

}  // namespace

bool touches(const Obligation& obligation, const topo::AclUpdate& update) {
  for (const auto slot : obligation.slots) {
    if (update.find(slot) != update.end()) return true;
  }
  return false;
}

std::size_t VerifyPlan::live_count(const topo::AclUpdate& update, bool has_controls) const {
  if (has_controls) return obligations_.size();
  std::size_t live = 0;
  for (const auto& o : obligations_) {
    if (touches(o, update)) ++live;
  }
  return live;
}

VerifyPlan build_verify_plan(const std::vector<topo::Path>& paths,
                             const std::vector<net::PacketSet>& path_forwarding,
                             std::shared_ptr<const std::vector<topo::EntryClasses>> entry_classes) {
  const auto start = std::chrono::steady_clock::now();
  VerifyPlan plan;
  plan.entry_classes_ = std::move(entry_classes);
  for (const auto& [entry, classes] : *plan.entry_classes_) {
    for (const auto& cls : classes) {
      Obligation o;
      o.index = plan.obligations_.size();
      o.entry = entry;
      o.fec = &cls;
      o.paths = feasible_paths(paths, path_forwarding, cls, entry);
      o.slots = slot_union(paths, o.paths);
      plan.obligations_.push_back(std::move(o));
    }
  }
  plan.stats_.fec_count = plan.obligations_.size();
  plan.stats_.path_count = paths.size();
  plan.stats_.plan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return plan;
}

VerifyPlan build_verify_plan(const std::vector<topo::Path>& paths,
                             const std::vector<net::PacketSet>& path_forwarding,
                             std::shared_ptr<const std::vector<net::PacketSet>> global_classes) {
  const auto start = std::chrono::steady_clock::now();
  VerifyPlan plan;
  plan.global_classes_ = std::move(global_classes);
  for (const auto& cls : *plan.global_classes_) {
    Obligation o;
    o.index = plan.obligations_.size();
    o.fec = &cls;
    o.paths = feasible_paths(paths, path_forwarding, cls, std::nullopt);
    o.slots = slot_union(paths, o.paths);
    plan.obligations_.push_back(std::move(o));
  }
  plan.stats_.fec_count = plan.obligations_.size();
  plan.stats_.path_count = paths.size();
  plan.stats_.plan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return plan;
}

}  // namespace jinjing::core
