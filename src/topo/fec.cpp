#include "topo/fec.h"

namespace jinjing::topo {

namespace {

/// Predicates are refined by reference; the pointers stay valid for the
/// duration of one classification call (they point into topo.edges() or a
/// caller-owned vector).
using PredRefs = std::vector<const net::PacketSet*>;

/// One pass per predicate: every class it cuts splits into its inside and
/// outside parts, in place, so the order is deterministic.
std::vector<net::PacketSet> refine_refs(const net::PacketSet& universe,
                                        const PredRefs& predicates) {
  std::vector<net::PacketSet> classes;
  if (!universe.is_empty()) classes.push_back(universe);
  for (const auto* pred : predicates) {
    std::vector<net::PacketSet> next;
    next.reserve(classes.size());
    for (const auto& cls : classes) {
      net::PacketSet inside = cls & *pred;
      if (inside.is_empty()) {
        next.push_back(cls);
        continue;
      }
      net::PacketSet outside = cls - *pred;
      next.push_back(std::move(inside.compact()));
      if (!outside.is_empty()) next.push_back(std::move(outside.compact()));
    }
    classes = std::move(next);
  }
  return classes;
}

/// The predicates of edges reachable from `entry` by BFS over the in-scope
/// graph.
PredRefs reachable_predicates(const Topology& topo, const Scope& scope, InterfaceId entry) {
  std::vector<bool> visited(topo.interface_count(), false);
  std::vector<InterfaceId> queue{entry};
  visited[entry] = true;
  PredRefs predicates;
  while (!queue.empty()) {
    const InterfaceId at = queue.back();
    queue.pop_back();
    for (const auto ei : topo.out_edges(at)) {
      const Edge& edge = topo.edges()[ei];
      if (!scope.contains_interface(topo, edge.to)) continue;
      predicates.push_back(&edge.predicate);
      if (!visited[edge.to]) {
        visited[edge.to] = true;
        queue.push_back(edge.to);
      }
    }
  }
  return predicates;
}

}  // namespace

std::vector<net::PacketSet> refine_into_atoms(const net::PacketSet& universe,
                                              const std::vector<net::PacketSet>& predicates) {
  PredRefs refs;
  refs.reserve(predicates.size());
  for (const auto& pred : predicates) refs.push_back(&pred);
  return refine_refs(universe, refs);
}

std::vector<net::PacketSet> forwarding_equivalence_classes(const Topology& topo,
                                                           const Scope& scope,
                                                           const net::PacketSet& entering) {
  PredRefs predicates;
  for (const auto& edge : topo.edges()) {
    if (scope.contains_interface(topo, edge.from) && scope.contains_interface(topo, edge.to)) {
      predicates.push_back(&edge.predicate);
    }
  }
  return refine_refs(entering, predicates);
}

std::vector<EntryClasses> per_entry_equivalence_classes(const Topology& topo, const Scope& scope,
                                                        const net::PacketSet& entering) {
  const auto entries = entry_interfaces(topo, scope);
  std::vector<EntryClasses> out;
  out.reserve(entries.size());
  for (const InterfaceId entry : entries) {
    out.push_back(
        EntryClasses{entry, refine_refs(entering, reachable_predicates(topo, scope, entry))});
  }
  return out;
}

}  // namespace jinjing::topo
