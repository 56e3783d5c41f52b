// Delta FEC refinement: carry a partition across a predicate delta.
//
// Refinement is a meet-semilattice: atoms(P ∪ D) is obtainable from
// atoms(P) by refining the base atoms — in base order — by the predicates
// of D, in order. An atom disjoint from every changed predicate keeps its
// class (it passes through every split untouched), so only atoms whose
// packet sets actually meet a changed predicate are re-split; the rest are
// stitched through unchanged. This is the per-version fast path: a typical
// applied update perturbs a handful of predicates, so the delta costs
// |atoms| × |D| emptiness tests plus the few real splits instead of a full
// |P ∪ D| refinement.
//
// Exactness contract (property-tested in fec_delta_test): given
//   base == refine_into_atoms(universe, P)
// the delta result's atoms are bit-identical — same classes, same order,
// same cube representation — to
//   refine_into_atoms(universe, P ++ D).
// The identity holds because refinement processes predicates outermost:
// the state after P is exactly `base`, and continuing with D is what
// refine_delta executes — including the representation details
// (pass-through atoms are never re-compacted; split fragments are compacted
// inside-before-outside).
#pragma once

#include <vector>

#include "topo/fec.h"

namespace jinjing::topo {

struct FecDeltaResult {
  /// The refined partition: atoms(P ∪ D) in deterministic order.
  std::vector<net::PacketSet> atoms;
  /// touched[i]: atoms[i] lies inside at least one changed predicate — the
  /// delta may have changed behaviour there. Atoms with touched[i] == false
  /// are provably unaffected (disjoint from every changed predicate).
  std::vector<bool> touched;
  /// Base atoms that passed through every changed predicate unchanged.
  std::size_t reused = 0;
  /// Base atoms that met at least one changed predicate and were re-split
  /// (or had their representation replaced by the contained fragment).
  std::size_t split = 0;
};

/// Refines `base` (a disjoint partition) by the `changed` predicates, in
/// order, reproducing sequential from-scratch refinement of the combined
/// predicate list. Always sequential: the changed set is small by
/// construction, and sequential continuation is what the bit-identity
/// contract requires.
[[nodiscard]] FecDeltaResult refine_delta(const std::vector<net::PacketSet>& base,
                                          const std::vector<net::PacketSet>& changed);

}  // namespace jinjing::topo
