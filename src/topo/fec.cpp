#include "topo/fec.h"

#include <atomic>
#include <thread>

namespace jinjing::topo {

namespace {

/// Predicates are refined by reference; the pointers stay valid for the
/// duration of one classification call (they point into topo.edges() or a
/// caller-owned vector).
using PredRefs = std::vector<const net::PacketSet*>;

std::vector<net::PacketSet> refine_sequential(const net::PacketSet& universe,
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

/// Atoms of (preds(acc) ∪ preds(part)) from the two partitions: every
/// nonempty pairwise intersection. Exact — partition merging is how the
/// parallel groups recombine without losing or splitting classes.
std::vector<net::PacketSet> merge_partitions(std::vector<net::PacketSet> acc,
                                             const std::vector<net::PacketSet>& part) {
  std::vector<net::PacketSet> merged;
  merged.reserve(acc.size() + part.size());
  for (const auto& a : acc) {
    for (const auto& b : part) {
      net::PacketSet both = a & b;
      if (!both.is_empty()) merged.push_back(std::move(both.compact()));
    }
  }
  return merged;
}

std::vector<net::PacketSet> refine_refs(const net::PacketSet& universe, const PredRefs& predicates,
                                        const FecOptions& options) {
  const auto threads =
      static_cast<unsigned>(std::min<std::size_t>(options.threads, predicates.size()));
  if (threads <= 1) return refine_sequential(universe, predicates);

  // Contiguous balanced predicate groups, one per worker; each worker's
  // PacketSets are confined to its thread.
  std::vector<PredRefs> groups(threads);
  for (std::size_t i = 0; i < predicates.size(); ++i) {
    groups[i * threads / predicates.size()].push_back(predicates[i]);
  }
  std::vector<std::vector<net::PacketSet>> parts(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() { parts[t] = refine_sequential(universe, groups[t]); });
  }
  for (auto& t : pool) t.join();

  auto result = std::move(parts[0]);
  for (unsigned t = 1; t < threads; ++t) result = merge_partitions(std::move(result), parts[t]);
  return result;
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
                                              const std::vector<net::PacketSet>& predicates,
                                              const FecOptions& options) {
  PredRefs refs;
  refs.reserve(predicates.size());
  for (const auto& pred : predicates) refs.push_back(&pred);
  return refine_refs(universe, refs, options);
}

std::vector<net::PacketSet> forwarding_equivalence_classes(const Topology& topo,
                                                           const Scope& scope,
                                                           const net::PacketSet& entering,
                                                           const FecOptions& options) {
  PredRefs predicates;
  for (const auto& edge : topo.edges()) {
    if (scope.contains_interface(topo, edge.from) && scope.contains_interface(topo, edge.to)) {
      predicates.push_back(&edge.predicate);
    }
  }
  return refine_refs(entering, predicates, options);
}

net::PacketSet fec_region_of(const Topology& topo, const Scope& scope,
                             const net::PacketSet& seed, const net::Packet& h) {
  net::PacketSet region = seed;
  for (const auto& edge : topo.edges()) {
    if (!scope.contains_interface(topo, edge.from) || !scope.contains_interface(topo, edge.to)) {
      continue;
    }
    region = edge.predicate.contains(h) ? (region & edge.predicate) : (region - edge.predicate);
    if (region.is_empty()) break;  // defensive: h itself remains inside
    region.compact();
  }
  return region;
}

std::vector<EntryClasses> per_entry_equivalence_classes(const Topology& topo, const Scope& scope,
                                                        const net::PacketSet& entering,
                                                        const FecOptions& options) {
  const auto entries = entry_interfaces(topo, scope);
  std::vector<EntryClasses> out(entries.size());

  const auto threads = static_cast<unsigned>(std::min<std::size_t>(options.threads,
                                                                   entries.size()));
  if (threads <= 1) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out[i] = EntryClasses{
          entries[i],
          refine_refs(entering, reachable_predicates(topo, scope, entries[i]), options)};
    }
    return out;
  }

  // Entries are independent classification problems: fan them over workers.
  // Inner refinement stays sequential.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&]() {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= entries.size()) break;
        out[i] = EntryClasses{
            entries[i],
            refine_sequential(entering, reachable_predicates(topo, scope, entries[i]))};
      }
    });
  }
  for (auto& t : pool) t.join();
  return out;
}

}  // namespace jinjing::topo
