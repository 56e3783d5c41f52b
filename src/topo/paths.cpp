#include "topo/paths.h"

#include <algorithm>

#include "net/acl_algebra.h"

namespace jinjing::topo {

bool Path::visits(InterfaceId iface) const {
  return std::any_of(hops_.begin(), hops_.end(),
                     [iface](const Hop& h) { return h.iface == iface; });
}

bool Path::visits(AclSlot slot) const {
  return std::any_of(hops_.begin(), hops_.end(), [slot](const Hop& h) { return h.slot() == slot; });
}

std::string to_string(const Topology& topo, const Path& p) {
  std::string out = "<";
  for (std::size_t i = 0; i < p.hops().size(); ++i) {
    if (i > 0) out += ", ";
    out += topo.qualified_name(p.hops()[i].iface);
  }
  out += ">";
  return out;
}

net::PacketSet forwarding_set(const Topology& topo, const Path& p) {
  net::PacketSet carried = net::PacketSet::all();
  for (std::size_t i = 0; i + 1 < p.hops().size(); ++i) {
    const InterfaceId from = p.hops()[i].iface;
    const InterfaceId to = p.hops()[i + 1].iface;
    bool found = false;
    for (const std::size_t e : topo.out_edges(from)) {
      if (topo.edges()[e].to == to) {
        carried = carried & topo.edges()[e].predicate;
        found = true;
        break;
      }
    }
    if (!found) throw TopologyError("path hop without a connecting edge");
    if (carried.is_empty()) break;
  }
  return carried;
}

bool path_permits(const Topology& topo, const Path& p, const net::Packet& h) {
  return path_permits(ConfigView{topo}, p, h);
}

bool path_permits(const ConfigView& view, const Path& p, const net::Packet& h) {
  for (const Hop& hop : p.hops()) {
    if (!view.acl(hop.slot()).permits(h)) return false;
  }
  return true;
}

net::PacketSet path_permitted_set(const ConfigView& view, const Path& p) {
  net::PacketSet permitted = net::PacketSet::all();
  for (const Hop& hop : p.hops()) {
    const net::Acl& acl = view.acl(hop.slot());
    if (acl.empty() && acl.default_action() == net::Action::Permit) continue;
    permitted = permitted & net::permitted_set(acl);
    if (permitted.is_empty()) break;
  }
  return permitted;
}

net::PacketSet clipped_path_set(const ConfigView& view, const Path& p,
                                const net::PacketSet& clip) {
  net::PacketSet permitted = clip;
  for (const Hop& hop : p.hops()) {
    if (permitted.is_empty()) break;
    const net::Acl& acl = view.acl(hop.slot());
    if (acl.empty() && acl.default_action() == net::Action::Permit) continue;
    permitted = net::permitted_within(acl, permitted);
  }
  return permitted;
}

namespace {

class PathEnumerator {
 public:
  PathEnumerator(const Topology& topo, const Scope& scope, const PathEnumOptions& options)
      : topo_(topo), scope_(scope), options_(options), visited_(topo.interface_count(), false) {}

  std::vector<Path> run() {
    for (const InterfaceId entry : entry_interfaces(topo_, scope_)) {
      current_.clear();
      std::fill(visited_.begin(), visited_.end(), false);
      current_.push_back(Hop{entry, Dir::In});
      visited_[entry] = true;
      dfs(entry, Dir::In);
    }
    return std::move(paths_);
  }

 private:
  void record() {
    if (paths_.size() >= options_.max_paths) {
      throw TopologyError("path enumeration exceeded max_paths = " +
                          std::to_string(options_.max_paths));
    }
    Path p{current_};
    if (options_.prune_unroutable && forwarding_set(topo_, p).is_empty()) return;
    paths_.push_back(std::move(p));
  }

  void dfs(InterfaceId iface, Dir role) {
    // This hop completes a path when the packet can leave the scope here:
    // an externally attached egress interface, or an edge out of Ω.
    bool leaves_scope = false;
    if (role == Dir::Out && topo_.is_external(iface)) leaves_scope = true;
    for (const std::size_t e : topo_.out_edges(iface)) {
      if (!scope_.contains_interface(topo_, topo_.edges()[e].to)) leaves_scope = true;
    }
    if (leaves_scope && current_.size() > 1) record();

    for (const std::size_t e : topo_.out_edges(iface)) {
      const Edge& edge = topo_.edges()[e];
      if (!scope_.contains_interface(topo_, edge.to)) continue;
      if (visited_[edge.to]) continue;
      const Dir next_role =
          topo_.device_of(edge.to) == topo_.device_of(iface) ? Dir::Out : Dir::In;
      visited_[edge.to] = true;
      current_.push_back(Hop{edge.to, next_role});
      dfs(edge.to, next_role);
      current_.pop_back();
      visited_[edge.to] = false;
    }
  }

  const Topology& topo_;
  const Scope& scope_;
  const PathEnumOptions& options_;
  std::vector<bool> visited_;
  std::vector<Hop> current_;
  std::vector<Path> paths_;
};

}  // namespace

std::vector<Path> enumerate_paths(const Topology& topo, const Scope& scope,
                                  const PathEnumOptions& options) {
  return PathEnumerator{topo, scope, options}.run();
}

}  // namespace jinjing::topo
