// The continuous-churn soak harness.
//
// A soak run boots a live svc::Server in-process, replays a seeded
// gen::churn_stream against it through concurrent svc::Client sessions
// (optionally paced to a target QPS), and holds the service to two
// independent standards at once:
//
//  * Differential oracle — every job that reaches Done is re-run on a
//    fresh single-threaded core::Engine against its pinned snapshot; the
//    verdict and the formatted plan must match bit for bit. Jobs running
//    side by side on the workers, plan bundles shared across versions and
//    concurrent applies are never allowed to change a client-visible
//    answer.
//  * Metric-leak watchdogs — `metrics` snapshots are diffed across epochs:
//    tracked jobs must respect the retention bound, and after a retention
//    flush the live-snapshot count, version index and cached plans must
//    fall back to baseline-shaped bounds, and the AEC memo must stay within
//    its capacity. A
//    leak-proxy sum that only ever grows across every epoch fails the run.
//
// The stream is replayable: the same (wan params, stream params) produce
// byte-identical events, so any soak failure can be reproduced from the
// seed printed in its report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gen/scenario.h"
#include "gen/wan.h"
#include "svc/server.h"

namespace jinjing::soak {

struct SoakOptions {
  gen::WanParams wan = gen::small_wan();
  gen::ChurnStreamParams stream;
  /// Concurrent client sessions; stream events are dealt round-robin.
  std::size_t sessions = 4;
  /// Aggregate submission rate; 0 = unpaced (as fast as results allow).
  double target_qps = 0;
  /// Keep replaying passes (seed derived per pass) until this much wall
  /// time has elapsed; 0 = exactly one pass.
  double min_duration_seconds = 0;
  /// Per-session cap on submitted-but-unresolved jobs (backpressure).
  std::size_t window = 8;
  bool oracle = true;
  /// Dial the sessions over loopback TCP (ephemeral port, token auth)
  /// instead of the Unix socket — same churn, plus the network framing and
  /// the auth handshake under load.
  bool tcp = false;
  /// Progress/summary sink; nullptr = silent.
  std::ostream* log = nullptr;
  /// Server configuration. socket_path may be empty (a temp path is
  /// chosen); keep retain_jobs modest — the harness flushes exactly that
  /// many trivial checks at the end to rotate every churn job out of
  /// retention before the leak invariants are asserted.
  svc::ServerOptions server;
};

/// One parsed `metrics` snapshot (the gauges the watchdogs care about).
struct MetricSample {
  std::string label;
  std::uint64_t queued = 0;
  std::uint64_t running = 0;
  std::uint64_t head_version = 0;
  std::uint64_t versions = 0;
  std::uint64_t live_snapshots = 0;
  std::uint64_t tracked_jobs = 0;
  std::uint64_t aec_memo_entries = 0;
  std::uint64_t cached_plans = 0;
  std::uint64_t cached_obligations = 0;

  /// The RSS proxy: every count that should be bounded by live state, not
  /// by how long the server has been running.
  [[nodiscard]] std::uint64_t leak_proxy() const {
    return versions + live_snapshots + tracked_jobs + aec_memo_entries + cached_plans +
           cached_obligations;
  }
};

struct SoakReport {
  std::size_t passes = 0;
  std::size_t events = 0;           // stream events consumed (all passes)
  std::size_t submitted = 0;        // jobs admitted by the server
  std::size_t completed = 0;        // terminal Done
  std::size_t cancelled = 0;        // terminal Cancelled
  std::size_t failed = 0;           // terminal Failed (always a soak failure)
  std::size_t cancel_attempts = 0;
  std::size_t applies = 0;          // deployed version bumps
  std::size_t apply_conflicts = 0;  // 409: another apply won the race
  std::size_t rejected = 0;         // 429 admission rejections (retried)
  /// Jobs whose result was already rotated out of retention when the
  /// session read it (the documented 404 contract; excluded from the
  /// oracle — the service never produced an answer for us to check).
  std::size_t evicted_before_read = 0;
  std::size_t expected_submit_errors = 0;  // malformed events bounced
  std::size_t flushed = 0;          // retention-flush jobs
  std::size_t oracle_checked = 0;
  std::size_t oracle_mismatches = 0;
  /// Every reason the run is not ok: oracle divergence, invariant breach,
  /// unexpected error codes, failed jobs (first ~40, then truncated).
  std::vector<std::string> failures;
  std::vector<MetricSample> samples;
  double wall_seconds = 0;
  double achieved_qps = 0;  // submitted / wall
  /// FNV-1a over every event's describe() line, all passes — two runs of
  /// one seed must report the same fingerprint.
  std::uint64_t stream_fingerprint = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the soak to completion (drain + oracle + flush + invariants).
[[nodiscard]] SoakReport run_soak(const SoakOptions& options);

/// The report as one JSON document (the CI artifact / --report-json body).
void write_report_json(std::ostream& out, const SoakOptions& options,
                       const SoakReport& report);

/// First value of a `name value` line in Prometheus text exposition
/// ("# TYPE" comments never match); 0 when absent.
[[nodiscard]] std::uint64_t prometheus_value(const std::string& text,
                                             const std::string& name);

}  // namespace jinjing::soak
