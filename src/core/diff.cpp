#include "core/diff.h"

#include <algorithm>

#include "core/synth_opt.h"
#include "core/verdict.h"

namespace jinjing::core {

namespace {

/// Appends to `out` the rules of `list` not marked as LCS members.
void collect_unmarked(const std::vector<net::AclRule>& list, const std::vector<bool>& marks,
                      std::vector<net::AclRule>& out) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (!marks[i]) out.push_back(list[i]);
  }
}

void append_unique(std::vector<net::AclRule>& pool, const std::vector<net::AclRule>& extra) {
  for (const auto& rule : extra) {
    if (std::find(pool.begin(), pool.end(), rule) == pool.end()) pool.push_back(rule);
  }
}

}  // namespace

LcsMarks lcs_marks(const std::vector<net::AclRule>& a, const std::vector<net::AclRule>& b) {
  LcsMarks marks;
  marks.in_a.assign(a.size(), false);
  marks.in_b.assign(b.size(), false);

  // Updates usually change a handful of rules, so trim the common prefix and
  // suffix before running the quadratic DP on the (tiny) middle.
  std::size_t lo = 0;
  while (lo < a.size() && lo < b.size() && a[lo] == b[lo]) {
    marks.in_a[lo] = marks.in_b[lo] = true;
    ++lo;
  }
  std::size_t a_hi = a.size();
  std::size_t b_hi = b.size();
  while (a_hi > lo && b_hi > lo && a[a_hi - 1] == b[b_hi - 1]) {
    --a_hi;
    --b_hi;
    marks.in_a[a_hi] = true;
    marks.in_b[b_hi] = true;
  }

  const std::size_t n = a_hi - lo;
  const std::size_t m = b_hi - lo;
  if (n == 0 || m == 0) return marks;

  // Classic LCS length table with backtracking.
  std::vector<std::vector<std::uint32_t>> dp(n + 1, std::vector<std::uint32_t>(m + 1, 0));
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      if (a[lo + i - 1] == b[lo + j - 1]) {
        dp[i][j] = dp[i - 1][j - 1] + 1;
      } else {
        dp[i][j] = std::max(dp[i - 1][j], dp[i][j - 1]);
      }
    }
  }
  std::size_t i = n;
  std::size_t j = m;
  while (i > 0 && j > 0) {
    if (a[lo + i - 1] == b[lo + j - 1]) {
      marks.in_a[lo + i - 1] = true;
      marks.in_b[lo + j - 1] = true;
      --i;
      --j;
    } else if (dp[i - 1][j] >= dp[i][j - 1]) {
      --i;
    } else {
      --j;
    }
  }
  return marks;
}

std::vector<net::AclRule> differential_rules(const net::Acl& before, const net::Acl& after) {
  const auto marks = lcs_marks(before.rules(), after.rules());
  std::vector<net::AclRule> diff;
  collect_unmarked(before.rules(), marks.in_a, diff);
  collect_unmarked(after.rules(), marks.in_b, diff);
  if (before.default_action() != after.default_action()) {
    diff.push_back(net::AclRule{net::Action::Permit, net::Match::any()});
  }
  return diff;
}

namespace {

/// Index of the differential matches by dst interval (the §5.5 search
/// tree): the overlap test of Definition 4.2 then touches only candidate
/// rules instead of the whole Diff_Ω pool.
DstIntervalIndex index_diff(const std::vector<net::AclRule>& diff) {
  std::vector<net::HyperCube> cubes;
  cubes.reserve(diff.size());
  for (const auto& d : diff) cubes.push_back(d.match.cube());
  return DstIntervalIndex{std::move(cubes)};
}

net::Acl related_rules_indexed(const net::Acl& acl, const DstIntervalIndex& index) {
  std::vector<net::AclRule> kept;
  for (const auto& rule : acl.rules()) {
    if (index.overlaps_cube(rule.match.cube())) kept.push_back(rule);
  }
  return net::Acl{std::move(kept), acl.default_action()};
}

}  // namespace

net::Acl related_rules(const net::Acl& acl, const std::vector<net::AclRule>& diff) {
  return related_rules_indexed(acl, index_diff(diff));
}

std::vector<net::AclRule> scope_differential(const topo::ConfigView& before,
                                             const topo::ConfigView& after,
                                             const std::vector<topo::AclSlot>& slots) {
  std::vector<net::AclRule> diff;
  for (const auto slot : slots) {
    append_unique(diff, differential_rules(before.acl(slot), after.acl(slot)));
  }
  return diff;
}

ReducedGroups reduce_by_differential(const topo::ConfigView& before, const topo::ConfigView& after,
                                     const std::vector<topo::AclSlot>& slots) {
  ReducedGroups groups;
  groups.diff = scope_differential(before, after, slots);
  const DstIntervalIndex index = index_diff(groups.diff);
  for (const auto slot : slots) {
    groups.before.emplace(slot, related_rules_indexed(before.acl(slot), index));
    groups.after.emplace(slot, related_rules_indexed(after.acl(slot), index));
  }
  return groups;
}

ChangedRegions changed_regions(const topo::ConfigView& before, const topo::AclUpdate& update) {
  ChangedRegions changed;
  for (const auto& [slot, acl] : update) {
    net::PacketSet region;
    for (const auto& rule : differential_rules(before.acl(slot), acl)) {
      if (rule.match.is_any()) {
        region = net::PacketSet::all();
        break;
      }
      region = (region | net::PacketSet{rule.match.cube()}).compact();
    }
    changed.emplace(slot, std::move(region));
  }
  return changed;
}

net::PacketSet path_clip(const ChangedRegions& changed,
                         const std::vector<lai::ControlIntent>& controls, const topo::Path& path,
                         const net::PacketSet& cls) {
  net::PacketSet region;
  for (const auto& hop : path.hops()) {
    const auto it = changed.find(hop.slot());
    if (it != changed.end()) region = region | it->second;
  }
  for (const auto& intent : controls) {
    if (intent_spans_path(intent, path)) region = region | intent.header;
  }
  if (region.is_empty()) return region;
  return (region & cls).compact();
}

}  // namespace jinjing::core
