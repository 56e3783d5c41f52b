// ACL simplification (§4.2 "Simplifying the final ACL").
//
// Removes redundant rules while provably preserving the decision model —
// the fixing process routinely shadows original rules (the running example
// ends with "permit 1/8, permit 2/8, deny 1/8, deny 2/8, deny 6/8,
// permit-all" on A1, which simplifies to "deny 6/8, permit-all").
#pragma once

#include "net/acl.h"
#include "net/packet_set.h"

namespace jinjing::core {

/// One pass from the last rule to the first. The result is exact
/// (simplify(acl) ≡ acl on all packets) and irredundant: removing any one
/// of its rules changes the permitted set. Of twin "permit X" rules over a
/// deny default, exactly one stays.
[[nodiscard]] net::Acl simplify(const net::Acl& acl);

/// Same, but exact and irredundant only on `universe` (useful when the
/// scope's traffic is known, e.g. from the IP management system).
[[nodiscard]] net::Acl simplify_on(const net::Acl& acl, const net::PacketSet& universe);

}  // namespace jinjing::core
