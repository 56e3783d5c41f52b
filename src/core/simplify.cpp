#include "core/simplify.h"

#include "net/acl_algebra.h"

namespace jinjing::core {

/// One pass from the last rule to the first. Rule i decides the packets of
/// `universe` in its match that no earlier rule matches; it is redundant
/// when that set is empty, or when the rules kept after it plus the default
/// decide all of it the same way. Both walks stay clipped to rule i's
/// match, so no set grows beyond one rule's share of the universe. Every
/// earlier rule is still present when rule i is checked and its suffix is
/// final, so each removal keeps the permitted set on `universe`; a later
/// removal of an earlier rule only grows a kept rule's decided set, so no
/// kept rule becomes redundant.
net::Acl simplify_on(const net::Acl& acl, const net::PacketSet& universe) {
  const std::vector<net::AclRule>& rules = acl.rules();
  std::vector<net::PacketSet> match;
  match.reserve(rules.size());
  for (const auto& rule : rules) match.emplace_back(rule.match.cube());

  std::vector<std::size_t> tail;  // the rules kept so far, last first
  for (std::size_t i = rules.size(); i-- > 0;) {
    net::PacketSet decided = universe & match[i];
    for (std::size_t j = 0; j < i && !decided.is_empty(); ++j) {
      if (match[j].intersects(match[i])) decided = decided - match[j];
    }
    bool same = true;
    for (auto it = tail.rbegin(); it != tail.rend() && same && !decided.is_empty(); ++it) {
      if (!decided.intersects(match[*it])) continue;
      same = rules[*it].action == rules[i].action;
      decided = decided - match[*it];
    }
    if (same && !decided.is_empty()) same = acl.default_action() == rules[i].action;
    if (!same) tail.push_back(i);
  }
  std::vector<net::AclRule> kept;
  kept.reserve(tail.size());
  for (auto it = tail.rbegin(); it != tail.rend(); ++it) kept.push_back(rules[*it]);
  return net::Acl{std::move(kept), acl.default_action()};
}

net::Acl simplify(const net::Acl& acl) { return simplify_on(acl, net::PacketSet::all()); }

}  // namespace jinjing::core
