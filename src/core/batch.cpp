#include "core/batch.h"

#include <algorithm>
#include <chrono>

#include "core/diff.h"
#include "obs/stats.h"

namespace jinjing::core {

namespace {

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
  const topo::ConfigView base{topo};

  std::vector<BatchOutcome> outcomes(items.size());
  std::uint64_t executed_total = 0;
  std::uint64_t skipped_total = 0;
  for (std::size_t job = 0; job < items.size(); ++job) {
    const auto start = std::chrono::steady_clock::now();
    const BatchItem& item = items[job];
    const auto& controls = intents_of(item);
    const StopProbes& probes = item.probes;
    const topo::ConfigView after{topo, item.update};
    const ChangedRegions changed = changed_regions(base, *item.update);
    BatchOutcome& out = outcomes[job];
    CheckResult& result = out.result;
    result.obligation_count = obligations.size();
    result.fec_count = bundle.plan.stats().fec_count;
    result.path_count = bundle.paths.size();
    result.plan_seconds = 0;  // amortized into the shared plan bundle
    std::size_t skipped = 0;
    for (const Obligation& o : obligations) {
      if (probes.cancelled && probes.cancelled()) {
        out.cancelled = true;
        break;
      }
      if (probes.expired && probes.expired()) {
        out.deadline_expired = true;
        break;
      }
      // No rewritten slot and no spanning intent on any feasible path: the
      // desired and updated sides coincide without a walk.
      const bool live = touches(o, *item.update) ||
                        std::any_of(o.paths.begin(), o.paths.end(), [&](std::size_t p) {
                          return any_intent_spans_path(controls, bundle.paths[p]);
                        });
      bool walked = false;
      for (std::size_t k = 0; live && k < o.paths.size(); ++k) {
        const topo::Path& path = bundle.paths[o.paths[k]];
        const net::PacketSet clip = path_clip(changed, controls, path, *o.fec);
        if (clip.is_empty()) continue;
        walked = true;
        const auto [desired, updated] = path_sides(base, after, controls, path, clip);
        if (updated.equals(desired)) continue;
        const net::PacketSet flipped = (desired - updated) | (updated - desired);
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
      if (walked) {
        ++result.obligations_executed;
      } else {
        ++skipped;
      }
      if (options.stop_at_first && !result.consistent) break;
    }
    result.obligations_cancelled = obligations.size() - result.obligations_executed - skipped;
    result.execute_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    executed_total += result.obligations_executed;
    skipped_total += skipped;
  }
  obs::count(obs::Counter::ObligationsExecuted, executed_total);
  obs::count(obs::Counter::ObligationsSkipped, skipped_total);
  return outcomes;
}

}  // namespace jinjing::core
