#include "core/verdict.h"

#include <algorithm>

namespace jinjing::core {

namespace {

/// The rule text an ACL uses to decide `h`.
std::string deciding_rule(const net::Acl& acl, const net::Packet& h) {
  const auto index = acl.first_match(h);
  if (index) return net::to_string(acl.rules()[*index]);
  return "default " + std::string(net::to_string(acl.default_action()));
}

}  // namespace

void explain_violation(const topo::ConfigView& before, const topo::ConfigView& after,
                       const topo::Path& path, Violation& violation) {
  for (const auto& hop : path.hops()) {
    const bool b = before.acl(hop.slot()).permits(violation.witness);
    const bool a = after.acl(hop.slot()).permits(violation.witness);
    if (b != a) {
      violation.changed_slot = hop.slot();
      violation.before_rule = deciding_rule(before.acl(hop.slot()), violation.witness);
      violation.after_rule = deciding_rule(after.acl(hop.slot()), violation.witness);
      return;
    }
  }
}

bool intent_spans_path(const lai::ControlIntent& intent, const topo::Path& path) {
  const auto has = [](const std::vector<topo::InterfaceId>& list, topo::InterfaceId i) {
    return std::find(list.begin(), list.end(), i) != list.end();
  };
  return has(intent.from, path.entry()) && has(intent.to, path.exit());
}

bool desired_decision(const std::vector<lai::ControlIntent>& controls, const topo::Path& path,
                      const net::Packet& h, bool original_decision) {
  for (const auto& intent : controls) {
    if (!intent_spans_path(intent, path)) continue;
    if (!intent.header.contains(h)) continue;
    switch (intent.verb) {
      case lai::ControlVerb::Open: return true;
      case lai::ControlVerb::Isolate: return false;
      case lai::ControlVerb::Maintain: return original_decision;
    }
  }
  return original_decision;
}

net::PacketSet desired_set(const std::vector<lai::ControlIntent>& controls,
                           const topo::Path& path, const net::PacketSet& original,
                           const net::PacketSet& clip) {
  net::PacketSet desired;
  net::PacketSet unmatched = clip;  // not yet claimed by an earlier intent
  for (const auto& intent : controls) {
    if (!intent_spans_path(intent, path)) continue;
    const net::PacketSet matched = unmatched & intent.header;
    if (matched.is_empty()) continue;
    switch (intent.verb) {
      case lai::ControlVerb::Open: desired = desired | matched; break;
      case lai::ControlVerb::Isolate: break;
      case lai::ControlVerb::Maintain: desired = desired | (matched & original); break;
    }
    unmatched = unmatched - matched;
  }
  return (desired | (unmatched & original)).compact();
}

}  // namespace jinjing::core
