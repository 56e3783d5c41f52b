// Differential and related rules (§4.1, Definitions 4.1 & 4.2, Theorem 4.1).
//
// The check/fix fast path: an update usually touches few rules, so instead
// of encoding whole ACLs we (1) diff each ACL pair via longest common
// subsequence, (2) pool the added/removed rules into Diff_Ω, and (3) shrink
// every ACL to the rules overlapping Diff_Ω. Theorem 4.1 guarantees the
// reduced pair is consistent iff the original pair is.
//
// The set-algebra scans (fix's violation search, core/batch) use the same
// reduction in header space: a packet that matches no differential rule of
// a rewritten slot meets the same LCS rules in the same order before and
// after, so it gets the same decision there. Every before/after path walk
// is clipped to the union of those matches (changed_regions, path_clip).
#pragma once

#include <unordered_map>
#include <vector>

#include "lai/sema.h"
#include "net/acl.h"
#include "net/packet_set.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace jinjing::core {

/// Marks which positions of two rule lists belong to one longest common
/// subsequence (the paper's L ⋒ L').
struct LcsMarks {
  std::vector<bool> in_a;
  std::vector<bool> in_b;
};

[[nodiscard]] LcsMarks lcs_marks(const std::vector<net::AclRule>& a,
                                 const std::vector<net::AclRule>& b);

/// D_{L,L'} ∪ D_{L',L}: every rule added or removed by the update
/// (Definition 4.1, both directions pooled). A default-action change
/// contributes a match-all rule, since it can flip any packet.
[[nodiscard]] std::vector<net::AclRule> differential_rules(const net::Acl& before,
                                                           const net::Acl& after);

/// R(L, S): the sub-ACL of rules overlapping at least one rule in S
/// (Definition 4.2), order and default action preserved.
[[nodiscard]] net::Acl related_rules(const net::Acl& acl, const std::vector<net::AclRule>& diff);

/// Diff_Ω: the union of differential rules over every (L, L') slot pair of
/// the two configuration views, for the given slots.
[[nodiscard]] std::vector<net::AclRule> scope_differential(
    const topo::ConfigView& before, const topo::ConfigView& after,
    const std::vector<topo::AclSlot>& slots);

/// The reduced ACL groups R_L / R_L' of Theorem 4.1: every slot's before-
/// and after-ACL filtered to rules related to Diff_Ω.
struct ReducedGroups {
  topo::AclUpdate before;  // slot -> R(L, Diff_Ω)
  topo::AclUpdate after;   // slot -> R(L', Diff_Ω)
  std::vector<net::AclRule> diff;
};

[[nodiscard]] ReducedGroups reduce_by_differential(const topo::ConfigView& before,
                                                   const topo::ConfigView& after,
                                                   const std::vector<topo::AclSlot>& slots);

/// D_s per rewritten slot s: the union of the match cubes of
/// differential_rules(before_s, after_s), compacted. A packet outside D_s
/// gets the same decision from the slot's before- and after-ACL (a changed
/// default action makes D_s the whole space). A rewrite to an equal ACL
/// has an empty D_s.
using ChangedRegions = std::unordered_map<topo::AclSlot, net::PacketSet, topo::AclSlotHash>;

[[nodiscard]] ChangedRegions changed_regions(const topo::ConfigView& before,
                                             const topo::AclUpdate& update);

/// The part of `cls` where `path`'s desired and updated decisions may
/// differ: (⋃ D_s over the path's rewritten hops ∪ the headers of the
/// control intents spanning the path) ∩ cls. Outside it both sides agree
/// with the path's before decision, so desired_p Δ after_p ⊆ path_clip.
[[nodiscard]] net::PacketSet path_clip(const ChangedRegions& changed,
                                       const std::vector<lai::ControlIntent>& controls,
                                       const topo::Path& path, const net::PacketSet& cls);

}  // namespace jinjing::core
