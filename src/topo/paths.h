// Border-to-border path enumeration and path decision models (§3.3).
//
// A path p is a list of interface hops from an entry border interface to an
// exit border interface of the scope Ω. A hop filters traffic with its
// ingress ACL when the packet enters a device through it and with its egress
// ACL when the packet leaves through it; the path decision model c_p is the
// conjunction of the hop decision models (Equation 1).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "topo/topology.h"

namespace jinjing::topo {

/// One ACL-relevant position on a path.
struct Hop {
  InterfaceId iface = 0;
  Dir dir = Dir::In;  // In: packet enters the device here; Out: leaves here

  [[nodiscard]] AclSlot slot() const { return AclSlot{iface, dir}; }
  friend constexpr bool operator==(const Hop&, const Hop&) = default;
};

class Path {
 public:
  Path() = default;
  explicit Path(std::vector<Hop> hops) : hops_(std::move(hops)) {}

  [[nodiscard]] const std::vector<Hop>& hops() const { return hops_; }
  [[nodiscard]] bool empty() const { return hops_.empty(); }
  [[nodiscard]] std::size_t size() const { return hops_.size(); }
  [[nodiscard]] InterfaceId entry() const { return hops_.front().iface; }
  [[nodiscard]] InterfaceId exit() const { return hops_.back().iface; }

  /// True when the path visits the interface (in either role).
  [[nodiscard]] bool visits(InterfaceId iface) const;
  [[nodiscard]] bool visits(AclSlot slot) const;

  friend bool operator==(const Path&, const Path&) = default;

 private:
  std::vector<Hop> hops_;
};

/// "⟨A1, A4, D1, D3⟩" — the paper's path notation.
[[nodiscard]] std::string to_string(const Topology& topo, const Path& p);

/// The set of packets routing can carry along the whole path: the
/// intersection of all edge predicates g on the path.
[[nodiscard]] net::PacketSet forwarding_set(const Topology& topo, const Path& p);

/// The path decision model c_p(h): conjunction of every hop ACL's decision.
[[nodiscard]] bool path_permits(const Topology& topo, const Path& p, const net::Packet& h);

/// c_p(h) under a configuration view (original or updated ACLs).
[[nodiscard]] bool path_permits(const ConfigView& view, const Path& p, const net::Packet& h);

/// The exact set of packets a path's ACLs permit (∧ of hop permitted-sets),
/// under a configuration view. This is the header-space dual of c_p.
[[nodiscard]] net::PacketSet path_permitted_set(const ConfigView& view, const Path& p);

/// The subset of `clip` a path's ACLs permit under a view: the first-match
/// walk of every hop ACL, each intermediate set confined to `clip`. Equals
/// path_permitted_set(view, p) & clip, but never materializes whole-ACL
/// permitted sets, so its cost scales with `clip` (a narrow class).
[[nodiscard]] net::PacketSet clipped_path_set(const ConfigView& view, const Path& p,
                                              const net::PacketSet& clip);

/// Options for path enumeration.
struct PathEnumOptions {
  /// Hard cap guarding against path explosion; exceeded => TopologyError.
  std::size_t max_paths = 1u << 20;
  /// Skip paths whose forwarding set is empty (no routable traffic). The
  /// paper's generate primitive wants *all* topological paths (Eq. 10), so
  /// this defaults to false.
  bool prune_unroutable = false;
};

/// Enumerates all simple border-to-border paths inside Ω (footnote 1: cloud
/// topologies are DAG-structured, so this is polynomial in practice).
[[nodiscard]] std::vector<Path> enumerate_paths(const Topology& topo, const Scope& scope,
                                                const PathEnumOptions& options = {});

}  // namespace jinjing::topo
