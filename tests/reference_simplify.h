// The fixpoint ACL simplifier that core::simplify_on's single pass
// replaced, kept as a test reference for the simplifier and fix assembly.
#pragma once

#include <vector>

#include "net/acl.h"
#include "net/packet_set.h"

namespace jinjing::test {

/// The fixpoint simplifier the single pass replaced: each pass computes
/// `remaining` and the `tail` of every suffix, then removes the redundant
/// rules whose match overlaps no other removal of the same pass, until a
/// pass removes nothing.
inline net::Acl reference_simplify_on(const net::Acl& acl, const net::PacketSet& universe) {
  std::vector<net::AclRule> rules = acl.rules();
  for (bool changed = true; changed;) {
    const std::size_t n = rules.size();
    std::vector<net::PacketSet> match(n);
    std::vector<net::PacketSet> remaining(n);
    for (std::size_t i = 0; i < n; ++i) {
      match[i] = net::PacketSet{rules[i].match.cube()};
      remaining[i] = i == 0 ? universe : (remaining[i - 1] - match[i - 1]).compact();
    }
    std::vector<net::PacketSet> tail(n + 1);
    tail[n] = acl.default_action() == net::Action::Permit ? universe : net::PacketSet{};
    for (std::size_t i = n; i-- > 0;) {
      tail[i] = rules[i].action == net::Action::Permit
                    ? ((match[i] & universe) | (tail[i + 1] - match[i])).compact()
                    : (tail[i + 1] - match[i]).compact();
    }
    std::vector<bool> remove(n, false);
    for (std::size_t i = n; i-- > 0;) {
      const net::PacketSet decided = remaining[i] & match[i];
      const bool redundant = decided.is_empty() ||
                             (rules[i].action == net::Action::Permit
                                  ? tail[i + 1].contains(decided)
                                  : !tail[i + 1].intersects(decided));
      bool conflicts = false;
      for (std::size_t j = i + 1; j < n && !conflicts; ++j) {
        conflicts = remove[j] && match[i].intersects(match[j]);
      }
      remove[i] = redundant && !conflicts;
    }
    std::vector<net::AclRule> kept;
    for (std::size_t i = 0; i < n; ++i) {
      if (!remove[i]) kept.push_back(rules[i]);
    }
    changed = kept.size() != n;
    rules = std::move(kept);
  }
  return net::Acl{std::move(rules), acl.default_action()};
}

}  // namespace jinjing::test
