#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string_view>
#include <vector>

namespace jinjing::obs {

// Monotonic counters. Every name maps 1:1 to a `jinjing_<name>_total` series
// in the Prometheus export and a key in the --report-json counter dump.
enum class Counter : std::size_t {
  SmtQueries,           // solver.check() calls (feasibility + violation search)
  SmtQueriesCached,     // queries answered by an incremental session solver
  SmtTimeouts,          // queries that hit the per-query deadline (z3 unknown)
  SmtFrameReuses,       // CheckSession cache hits (base frame reused as-is)
  SmtSessionsBuilt,     // CheckSession compiles (base frame asserted from scratch)
  SmtOptimizeQueries,   // z3 optimize calls during fixer placement
  PlanBuilds,           // VerifyPlan constructions
  PlanCacheHits,        // Planner::plan() reuses (same entering set)
  AecMemoHits,          // core::AecMemo lookups served from memo (fec_cache_hits)
  AecMemoMisses,        // core::AecMemo lookups that overlaid (fec_cache_misses)
  ObligationsPlanned,   // obligations materialized into VerifyPlans
  ObligationsExecuted,  // obligations walked by the scan or solved by the checker
  ObligationsCancelled, // obligations skipped by early-exit cancellation
  ObligationsSkipped,   // obligations proven without a walk or a query
  SvcJobsSubmitted,     // jobs admitted by the service scheduler
  SvcJobsRejected,      // submissions refused by admission control / drain
  SvcJobsCancelled,     // jobs that terminated as cancelled
  SvcJobsDone,          // jobs that ran to completion (success or not)
  SvcJobsFailed,        // jobs that terminated with an error (incl. deadline)
  SvcApplies,           // state-store head advances via the apply method
  DeltaCacheHits,       // plan-cache lookups served from a cached bundle
  DeltaCacheMisses,     // plan-cache lookups that built the bundle
  DeltaCacheInvalidations, // cached obligation verdicts cleared by an apply delta
  DeltaCacheRebases,    // cached plan entries carried across a version bump
  SvcLeasesGranted,     // snapshot leases acquired (lease verb)
  SvcLeasesRenewed,     // lease renewals (incl. re-pins to a newer version)
  SvcLeasesReleased,    // leases released explicitly by the holder
  SvcLeasesExpired,     // leases collected by the sweeper after expiry
  SvcReplRecordsStreamed, // replication records written to subscribers
  FecDeltaSplits,       // partition atoms re-split by delta FEC refinement
  FecDeltaReusedAtoms,  // partition atoms carried across a version delta unchanged
};
inline constexpr std::size_t kCounterCount = 31;

// Gauges track a high-water mark (set_max semantics).
enum class Gauge : std::size_t {
  SvcCachedObligations,  // peak obligations held by a plan cache
  PlacementNodes,        // peak branch-and-bound nodes of one placement solve
};
inline constexpr std::size_t kGaugeCount = 2;

// Histograms use power-of-two buckets: bucket i counts values whose bit
// width is i, i.e. cumulative(le = 2^i - 1) is exact.
enum class Histogram : std::size_t {
  SmtSolveMicros,       // wall time of individual solver.check() calls
  SvcQueueWaitMicros,   // job wait time from submission to execution start
  SvcJobRunMicros,      // job execution wall time
};
inline constexpr std::size_t kHistogramCount = 3;
inline constexpr std::size_t kHistogramBuckets = 40;

// Trace span names; every value maps to a "name" in the Chrome trace export.
enum class Span : std::size_t {
  EngineCheck,
  EngineFix,
  EngineGenerate,
  CheckerPlan,
  CheckerCompile,
  CheckerExecute,
  FecDerive,
  SmtQuery,
  SmtOptimize,
  FixSearch,
  FixEnlarge,
  FixPlace,
  FixAssemble,
  GenDerive,
  GenSolve,
  GenSynth,
  SvcJob,
};
inline constexpr std::size_t kSpanCount = 17;

// Span storage is a ring of this many events per registry, shared by all
// threads: once it is full, each new event overwrites the oldest one.
inline constexpr std::size_t kTraceCapacity = 16384;

std::string_view to_string(Counter counter);
std::string_view to_string(Gauge gauge);
std::string_view to_string(Histogram histogram);
std::string_view to_string(Span span);

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};  // per-bucket counts
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

struct TraceEvent {
  Span name;
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

// Thread-safe statistics sink. Counters are sharded across cache-line-aligned
// atomic blocks to keep concurrent increments cheap; trace events go to one
// fixed-capacity ring (kTraceCapacity), so span memory stays bounded however
// many threads record. All methods are safe to call from any thread at any
// time.
class StatsRegistry {
 public:
  StatsRegistry();
  ~StatsRegistry();

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void add(Counter counter, std::uint64_t n = 1);
  void set_max(Gauge gauge, std::uint64_t value);
  void observe(Histogram histogram, std::uint64_t value);

  std::uint64_t total(Counter counter) const;
  std::uint64_t gauge(Gauge gauge) const;
  HistogramSnapshot histogram(Histogram histogram) const;

  // Microseconds since this registry was created (steady clock).
  std::uint64_t now_us() const;
  void record_span(Span name, std::uint64_t start_us, std::uint64_t end_us);
  // The retained events (at most kTraceCapacity), oldest first.
  std::vector<TraceEvent> trace_events() const;

  // Prometheus text exposition format (counters, gauges, histograms).
  void write_prometheus(std::ostream& out) const;
  // Chrome trace-event JSON ("X" complete events), loadable in Perfetto.
  void write_chrome_trace(std::ostream& out) const;
  // JSON object {"counters":{...},"gauges":{...},"histograms":{...}} for
  // embedding into --report-json / BENCH_check.json.
  void write_json(std::ostream& out, const std::string& indent) const;

  // The globally installed registry, or nullptr when observability is off.
  static StatsRegistry* current();

 private:
  friend class ScopedRegistry;

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  };
  struct HistogramCells {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };

  static constexpr std::size_t kShards = 8;

  Shard& shard_for_thread();
  // This thread's trace tid in this registry, assigned on first use.
  std::uint32_t tid_for_thread();

  std::uint64_t serial_ = 0;
  std::uint64_t epoch_ns_ = 0;
  std::array<Shard, kShards> shards_;
  std::array<std::atomic<std::uint64_t>, kGaugeCount> gauges_{};
  std::array<HistogramCells, kHistogramCount> histograms_;
  std::atomic<std::uint32_t> next_tid_{0};
  mutable std::mutex trace_mutex_;
  std::vector<TraceEvent> trace_ring_;  // grows to kTraceCapacity, then wraps
  std::uint64_t trace_recorded_ = 0;    // events ever recorded
};

namespace detail {
extern std::atomic<StatsRegistry*> g_registry;
}  // namespace detail

inline StatsRegistry* StatsRegistry::current() {
  return detail::g_registry.load(std::memory_order_acquire);
}

// Installs a registry as the global sink for the lifetime of the scope.
// Scopes may be destroyed in any order (servers restart independently of
// each other): the newest still-live registration is the sink, so tearing
// one down never re-installs a registry that has already been destroyed.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(StatsRegistry& registry);
  ~ScopedRegistry();

  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  StatsRegistry* registry_;
};

// Hot-path helpers: a single relaxed pointer load and branch when disabled.
inline void count(Counter counter, std::uint64_t n = 1) {
  if (StatsRegistry* registry = StatsRegistry::current()) {
    registry->add(counter, n);
  }
}

inline void gauge_max(Gauge gauge, std::uint64_t value) {
  if (StatsRegistry* registry = StatsRegistry::current()) {
    registry->set_max(gauge, value);
  }
}

inline void observe(Histogram histogram, std::uint64_t value) {
  if (StatsRegistry* registry = StatsRegistry::current()) {
    registry->observe(histogram, value);
  }
}

}  // namespace jinjing::obs
