#include "core/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>

#include "core/diff.h"
#include "obs/stats.h"

namespace jinjing::core {

namespace {

constexpr std::size_t kNoViolation = std::numeric_limits<std::size_t>::max();

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Mutable per-job state shared by that job's shard tasks. Distinct shards
/// own disjoint obligation indices, so the per-obligation byte vectors are
/// written race-free; the scalars are atomics.
struct JobScratch {
  std::atomic<std::size_t> bound{kNoViolation};  // CAS-min violated index
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> skipped{0};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> expired{false};
  std::vector<std::uint8_t> clean;
  std::vector<std::uint8_t> violated;
};

void lower_bound_to(std::atomic<std::size_t>& bound, std::size_t index) {
  std::size_t seen = bound.load(std::memory_order_relaxed);
  while (index < seen &&
         !bound.compare_exchange_weak(seen, index, std::memory_order_relaxed)) {
  }
}

/// Partitions obligation indices into shards by entry interface (the
/// per-gateway plan structure); global-mode obligations (no entry) are
/// spread round-robin. Groups beyond `max_shards` are merged round-robin.
/// Every shard is ascending in obligation index.
std::vector<std::vector<std::size_t>> make_shards(const VerifyPlan& plan,
                                                  std::size_t max_shards) {
  if (max_shards == 0) max_shards = 1;
  std::map<std::uint64_t, std::vector<std::size_t>> groups;  // ordered => deterministic
  std::size_t spread = 0;
  for (const Obligation& o : plan.obligations()) {
    const std::uint64_t key = o.entry ? static_cast<std::uint64_t>(*o.entry)
                                      : (spread++ % max_shards);
    groups[key].push_back(o.index);
  }
  std::vector<std::vector<std::size_t>> shards;
  shards.resize(std::min(max_shards, std::max<std::size_t>(groups.size(), 1)));
  std::size_t g = 0;
  for (auto& [key, indices] : groups) {
    auto& shard = shards[g++ % shards.size()];
    shard.insert(shard.end(), indices.begin(), indices.end());
  }
  for (auto& shard : shards) std::sort(shard.begin(), shard.end());
  std::erase_if(shards, [](const auto& shard) { return shard.empty(); });
  return shards;
}

const std::vector<lai::ControlIntent>& intents_of(const BatchItem& item) {
  static const std::vector<lai::ControlIntent> kNone;
  return item.controls != nullptr ? *item.controls : kNone;
}

/// One feasible path of an obligation, clipped to its changed region: the
/// packets of the clip it should permit and those it permits under the
/// update. Outside the clip both sides agree.
struct PathSides {
  net::PacketSet desired;
  net::PacketSet updated;
};

PathSides path_sides(const topo::ConfigView& base, const topo::ConfigView& after,
                     const std::vector<lai::ControlIntent>& controls, const topo::Path& path,
                     const net::PacketSet& clip) {
  PathSides sides{topo::clipped_path_set(base, path, clip),
                  topo::clipped_path_set(after, path, clip)};
  if (any_intent_spans_path(controls, path)) {
    sides.desired = desired_set(controls, path, sides.desired, clip);
  }
  return sides;
}

}  // namespace

BatchAlgebra build_batch_algebra(const topo::Topology& topo,
                                 std::shared_ptr<const PlanBundle> bundle) {
  return BatchAlgebra{std::move(bundle), &topo};
}

std::vector<BatchOutcome> run_check_batch(const topo::Topology& topo,
                                          const BatchAlgebra& algebra,
                                          const std::vector<BatchItem>& items,
                                          const BatchRunOptions& options) {
  const PlanBundle& bundle = *algebra.bundle;
  const auto& obligations = bundle.plan.obligations();
  const std::size_t count = obligations.size();

  std::vector<BatchOutcome> outcomes(items.size());
  if (items.empty()) return outcomes;

  const auto shards = make_shards(bundle.plan, options.max_shards);
  for (const auto& shard : shards) {
    obs::observe(obs::Histogram::SvcBatchShardOccupancy, shard.size());
  }

  std::vector<JobScratch> scratch(items.size());
  for (auto& s : scratch) {
    s.clean.assign(count, 0);
    s.violated.assign(count, 0);
  }

  // Each job's changed regions, built before the fan-out and only read by
  // its shard tasks.
  const topo::ConfigView base{topo};
  std::vector<ChangedRegions> changed;
  changed.reserve(items.size());
  for (const BatchItem& item : items) changed.push_back(changed_regions(base, *item.update));

  const bool stop_at_first = options.stop_at_first;
  // One task per (job, shard): job-major so one worker's contiguous range
  // walks a single job's after-view, keeping its update hot.
  const auto body = [&](std::size_t task_index) {
    const std::size_t job = task_index / shards.size();
    const auto& shard = shards[task_index % shards.size()];
    const BatchItem& item = items[job];
    const auto& controls = intents_of(item);
    const StopProbes& probes = item.probes;
    JobScratch& s = scratch[job];
    const topo::ConfigView after{topo, item.update};
    for (const std::size_t index : shard) {
      if (s.cancelled.load(std::memory_order_relaxed) ||
          (probes.cancelled && probes.cancelled())) {
        s.cancelled.store(true, std::memory_order_relaxed);
        return;
      }
      if (s.expired.load(std::memory_order_relaxed) || (probes.expired && probes.expired())) {
        s.expired.store(true, std::memory_order_relaxed);
        return;
      }
      if (stop_at_first && index > s.bound.load(std::memory_order_relaxed)) continue;
      const Obligation& o = obligations[index];
      // No rewritten slot and no spanning intent on any feasible path (the
      // desired and updated sides coincide), or a verdict already proven
      // for this update: consistent without a scan.
      const bool live = touches(o, *item.update) ||
                        std::any_of(o.paths.begin(), o.paths.end(), [&](std::size_t p) {
                          return any_intent_spans_path(controls, bundle.paths[p]);
                        });
      if (!live || (index < item.clean.size() && item.clean[index])) {
        s.clean[index] = 1;
        s.skipped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      s.executed.fetch_add(1, std::memory_order_relaxed);
      bool violated = false;
      for (std::size_t k = 0; k < o.paths.size() && !violated; ++k) {
        const topo::Path& path = bundle.paths[o.paths[k]];
        const net::PacketSet clip = path_clip(changed[job], controls, path, *o.fec);
        if (clip.is_empty()) continue;
        const PathSides sides = path_sides(base, after, controls, path, clip);
        violated = !sides.updated.equals(sides.desired);
      }
      if (violated) {
        s.violated[index] = 1;
        lower_bound_to(s.bound, index);
      } else {
        s.clean[index] = 1;
      }
    }
  };

  const std::size_t tasks = items.size() * shards.size();
  const auto start = std::chrono::steady_clock::now();
  if (options.executor != nullptr && options.executor->threads() > 1 && tasks > 1) {
    (void)options.executor->run(tasks, [&](std::size_t) {
      return [&](std::size_t index, const CancellationToken&) {
        body(index);
        return false;  // early exit is per-job (the scratch bound), not global
      };
    });
  } else {
    for (std::size_t t = 0; t < tasks; ++t) body(t);
  }
  const double execute_seconds = seconds_since(start);

  // Canonical witness re-derivation, sequential and deterministic: for each
  // violated obligation (the minimal one under stop_at_first), the first
  // feasible path with a changed region, and that region's first sample.
  std::uint64_t executed_total = 0;
  std::uint64_t skipped_total = 0;
  for (std::size_t job = 0; job < items.size(); ++job) {
    JobScratch& s = scratch[job];
    BatchOutcome& out = outcomes[job];
    out.cancelled = s.cancelled.load(std::memory_order_relaxed);
    out.deadline_expired = s.expired.load(std::memory_order_relaxed);
    out.clean.assign(count, false);
    for (std::size_t i = 0; i < count; ++i) out.clean[i] = s.clean[i] != 0;

    CheckResult& result = out.result;
    result.obligation_count = count;
    result.fec_count = bundle.plan.stats().fec_count;
    result.path_count = bundle.paths.size();
    result.obligations_executed = s.executed.load(std::memory_order_relaxed);
    const std::size_t skipped = s.skipped.load(std::memory_order_relaxed);
    result.obligations_cancelled = count - result.obligations_executed - skipped;
    result.plan_seconds = 0;  // amortized into the shared plan bundle
    result.execute_seconds = execute_seconds;
    executed_total += result.obligations_executed;
    skipped_total += skipped;
    if (out.cancelled || out.deadline_expired) continue;

    const topo::ConfigView after{topo, items[job].update};
    const auto& controls = intents_of(items[job]);
    for (std::size_t index = 0; index < count; ++index) {
      if (s.violated[index] == 0) continue;
      const Obligation& o = obligations[index];
      for (std::size_t k = 0; k < o.paths.size(); ++k) {
        const topo::Path& path = bundle.paths[o.paths[k]];
        const net::PacketSet clip = path_clip(changed[job], controls, path, *o.fec);
        if (clip.is_empty()) continue;
        const auto [desired, updated] = path_sides(base, after, controls, path, clip);
        const net::PacketSet flipped = (desired - updated) | (updated - desired);
        if (flipped.is_empty()) continue;
        Violation violation;
        violation.witness = flipped.sample();
        violation.path_index = o.paths[k];
        violation.decision_before = desired.contains(violation.witness);
        violation.decision_after = updated.contains(violation.witness);
        explain_violation(base, after, path, violation);
        result.consistent = false;
        result.violations.push_back(std::move(violation));
        break;
      }
      if (stop_at_first && !result.consistent) break;
    }
  }
  obs::count(obs::Counter::ObligationsExecuted, executed_total);
  obs::count(obs::Counter::ObligationsSkipped, skipped_total);
  return outcomes;
}

}  // namespace jinjing::core
