#include "topo/fec_delta.h"

#include <utility>

#include "obs/stats.h"

namespace jinjing::topo {

namespace {

/// One in-flight fragment of a base atom: the packet set plus
/// whether it has landed inside a changed predicate so far. The flag rides
/// the split: an `inside` fragment is contained in the predicate (touched);
/// an `outside` fragment inherits — it is disjoint from this predicate but
/// may sit inside an earlier one.
struct Fragment {
  net::PacketSet set;
  bool touched = false;
};

/// Refines one base atom by the changed predicates. Identical step
/// semantics to fec.cpp's sequential refinement: a fragment disjoint from
/// the predicate passes through verbatim (no re-compaction); otherwise the
/// contained part is pushed first, then the nonempty remainder, both
/// compacted. Returns whether any split happened.
bool refine_atom(const net::PacketSet& atom, const std::vector<net::PacketSet>& changed,
                 std::vector<Fragment>& out) {
  out.clear();
  out.push_back({atom, false});
  bool any_split = false;
  for (const auto& pred : changed) {
    std::vector<Fragment> next;
    next.reserve(out.size());
    for (auto& frag : out) {
      net::PacketSet inside = frag.set & pred;
      if (inside.is_empty()) {
        next.push_back(std::move(frag));
        continue;
      }
      any_split = true;
      net::PacketSet outside = frag.set - pred;
      next.push_back({std::move(inside.compact()), true});
      if (!outside.is_empty()) next.push_back({std::move(outside.compact()), frag.touched});
    }
    out = std::move(next);
  }
  return any_split;
}

}  // namespace

FecDeltaResult refine_delta(const std::vector<net::PacketSet>& base,
                            const std::vector<net::PacketSet>& changed) {
  if (changed.empty()) {
    FecDeltaResult result;
    result.atoms = base;
    result.touched.assign(base.size(), false);
    result.reused = base.size();
    return result;
  }
  FecDeltaResult result;
  result.atoms.reserve(base.size());
  result.touched.reserve(base.size());
  std::vector<Fragment> fragments;
  for (const auto& atom : base) {
    if (!refine_atom(atom, changed, fragments)) {
      // Untouched: the atom keeps its class and its exact representation.
      result.atoms.push_back(atom);
      result.touched.push_back(false);
      ++result.reused;
      continue;
    }
    ++result.split;
    for (auto& frag : fragments) {
      result.atoms.push_back(std::move(frag.set));
      result.touched.push_back(frag.touched);
    }
  }
  obs::count(obs::Counter::FecDeltaSplits, result.split);
  obs::count(obs::Counter::FecDeltaReusedAtoms, result.reused);
  return result;
}

}  // namespace jinjing::topo
