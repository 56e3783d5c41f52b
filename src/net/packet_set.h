// Exact header-space sets: unions of pairwise-disjoint hypercubes.
//
// PacketSet is the second, independent implementation of packet semantics in
// this repository (the first being the SMT encoding). It backs forwarding
// predicates, equivalence-class derivation (FEC/AEC/DEC), neighborhood
// enlargement, ACL equivalence proofs, and all cross-validation in tests.
#pragma once

#include <string>
#include <vector>

#include "net/hypercube.h"

namespace jinjing::net {

class PacketSet {
 public:
  /// The empty set.
  PacketSet() = default;

  /// The set of exactly one cube.
  explicit PacketSet(const HyperCube& cube) : cubes_{cube} {}

  [[nodiscard]] static PacketSet empty() { return {}; }

  [[nodiscard]] static PacketSet all() { return PacketSet{HyperCube{}}; }
  [[nodiscard]] static PacketSet point(const Packet& p) { return PacketSet{HyperCube::point(p)}; }

  [[nodiscard]] bool is_empty() const { return cubes_.empty(); }
  [[nodiscard]] bool contains(const Packet& p) const;
  [[nodiscard]] bool contains(const PacketSet& other) const;

  [[nodiscard]] Volume volume() const;

  /// Some packet in the set. Precondition: !is_empty().
  [[nodiscard]] Packet sample() const;

  [[nodiscard]] const std::vector<HyperCube>& cubes() const { return cubes_; }

  /// Number of cubes in the internal representation (fragmentation metric).
  [[nodiscard]] std::size_t cube_count() const { return cubes_.size(); }

  friend PacketSet operator&(const PacketSet& a, const PacketSet& b);
  friend PacketSet operator|(const PacketSet& a, const PacketSet& b);
  friend PacketSet operator-(const PacketSet& a, const PacketSet& b);

  /// Complement with respect to the full header space.
  [[nodiscard]] PacketSet complement() const;

  /// Merges cubes that differ in exactly one dimension with adjacent or
  /// touching intervals. Set operations fragment their results (subtraction
  /// especially); compacting keeps downstream costs — SMT ψ encodings,
  /// pairwise overlap tests — proportional to the set's true shape.
  /// Returns *this for chaining.
  PacketSet& compact();

  /// Set equality (exact, via symmetric-difference emptiness).
  [[nodiscard]] bool equals(const PacketSet& other) const;

  /// True when the intersection with `other` is non-empty.
  [[nodiscard]] bool intersects(const PacketSet& other) const;

 private:
  // Invariant: cubes are pairwise disjoint.
  std::vector<HyperCube> cubes_;
};

[[nodiscard]] std::string to_string(const PacketSet& s);

}  // namespace jinjing::net
