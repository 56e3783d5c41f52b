#include "obs/stats.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <ostream>
#include <thread>
#include <vector>

namespace jinjing::obs {
namespace detail {

std::atomic<StatsRegistry*> g_registry{nullptr};

}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_next_serial{1};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::array<std::string_view, kCounterCount> kCounterNames = {
    "smt_queries",               "smt_queries_cached",        "smt_timeouts",
    "smt_frame_reuses",          "smt_sessions_built",        "smt_optimize_queries",
    "plan_builds",               "plan_cache_hits",           "fec_cache_hits",
    "fec_cache_misses",          "obligations_planned",       "obligations_executed",
    "obligations_cancelled",     "obligations_skipped",       "svc_jobs_submitted",
    "svc_jobs_rejected",         "svc_jobs_cancelled",        "svc_jobs_done",
    "svc_jobs_failed",           "svc_applies",               "delta_cache_hits",
    "delta_cache_misses",        "delta_cache_invalidations", "delta_cache_rebases",
    "svc_leases_granted",        "svc_leases_renewed",        "svc_leases_released",
    "svc_leases_expired",        "svc_repl_records_streamed", "fec_delta_splits",
    "fec_delta_reused_atoms",
};

constexpr std::array<std::string_view, kGaugeCount> kGaugeNames = {
    "svc_cached_obligations",
    "placement_nodes",
};

constexpr std::array<std::string_view, kHistogramCount> kHistogramNames = {
    "smt_solve_micros",
    "svc_queue_wait_micros",
    "svc_job_run_micros",
};

constexpr std::array<std::string_view, kSpanCount> kSpanNames = {
    "engine.check",    "engine.fix",       "engine.generate",
    "checker.plan",    "checker.compile",  "checker.execute",
    "fec.derive",      "smt.query",        "smt.optimize",
    "fix.search",      "fix.enlarge",      "fix.place",
    "fix.assemble",    "generate.derive",  "generate.solve",
    "generate.synthesize",                 "svc.job",
};

std::size_t bucket_index(std::uint64_t value) {
  const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

// Upper bound of the cumulative count through bucket `index`: all values with
// bit_width <= index, i.e. value <= 2^index - 1.
std::uint64_t bucket_le(std::size_t index) {
  return (std::uint64_t{1} << index) - 1;
}

}  // namespace

std::string_view to_string(Counter counter) {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

std::string_view to_string(Gauge gauge) {
  return kGaugeNames[static_cast<std::size_t>(gauge)];
}

std::string_view to_string(Histogram histogram) {
  return kHistogramNames[static_cast<std::size_t>(histogram)];
}

std::string_view to_string(Span span) {
  return kSpanNames[static_cast<std::size_t>(span)];
}

StatsRegistry::StatsRegistry()
    : serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(steady_now_ns()) {}

// Threads that were never joined with the destroying one may have recorded
// spans here (a server's workers write to whichever registry is installed);
// taking the ring's lock orders those writes before the ring is freed.
StatsRegistry::~StatsRegistry() { const std::lock_guard<std::mutex> lock{trace_mutex_}; }

StatsRegistry::Shard& StatsRegistry::shard_for_thread() {
  thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shards_[shard];
}

void StatsRegistry::add(Counter counter, std::uint64_t n) {
  shard_for_thread()
      .counters[static_cast<std::size_t>(counter)]
      .fetch_add(n, std::memory_order_relaxed);
}

void StatsRegistry::set_max(Gauge gauge, std::uint64_t value) {
  std::atomic<std::uint64_t>& cell = gauges_[static_cast<std::size_t>(gauge)];
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void StatsRegistry::observe(Histogram histogram, std::uint64_t value) {
  HistogramCells& cells = histograms_[static_cast<std::size_t>(histogram)];
  cells.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t StatsRegistry::total(Counter counter) const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.counters[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t StatsRegistry::gauge(Gauge gauge) const {
  return gauges_[static_cast<std::size_t>(gauge)].load(
      std::memory_order_relaxed);
}

HistogramSnapshot StatsRegistry::histogram(Histogram histogram) const {
  const HistogramCells& cells =
      histograms_[static_cast<std::size_t>(histogram)];
  HistogramSnapshot snapshot;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    snapshot.buckets[i] = cells.buckets[i].load(std::memory_order_relaxed);
  }
  snapshot.count = cells.count.load(std::memory_order_relaxed);
  snapshot.sum = cells.sum.load(std::memory_order_relaxed);
  return snapshot;
}

std::uint64_t StatsRegistry::now_us() const {
  return (steady_now_ns() - epoch_ns_) / 1000;
}

std::uint32_t StatsRegistry::tid_for_thread() {
  thread_local std::uint64_t cached_serial = 0;
  thread_local std::uint32_t cached_tid = 0;
  if (cached_serial != serial_) {
    cached_tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    cached_serial = serial_;
  }
  return cached_tid;
}

void StatsRegistry::record_span(Span name, std::uint64_t start_us,
                                std::uint64_t end_us) {
  const TraceEvent event{name, tid_for_thread(), start_us,
                         end_us >= start_us ? end_us - start_us : 0};
  std::lock_guard<std::mutex> lock{trace_mutex_};
  if (trace_ring_.size() < kTraceCapacity) {
    trace_ring_.push_back(event);
  } else {
    trace_ring_[trace_recorded_ % kTraceCapacity] = event;
  }
  ++trace_recorded_;
}

std::vector<TraceEvent> StatsRegistry::trace_events() const {
  std::lock_guard<std::mutex> lock{trace_mutex_};
  if (trace_ring_.size() < kTraceCapacity) return trace_ring_;
  // Full ring: the slot the next event would overwrite holds the oldest.
  const auto oldest = static_cast<std::ptrdiff_t>(trace_recorded_ % kTraceCapacity);
  std::vector<TraceEvent> events;
  events.reserve(kTraceCapacity);
  events.insert(events.end(), trace_ring_.begin() + oldest, trace_ring_.end());
  events.insert(events.end(), trace_ring_.begin(), trace_ring_.begin() + oldest);
  return events;
}

void StatsRegistry::write_prometheus(std::ostream& out) const {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string_view name = kCounterNames[i];
    out << "# TYPE jinjing_" << name << "_total counter\n";
    out << "jinjing_" << name << "_total "
        << total(static_cast<Counter>(i)) << "\n";
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    const std::string_view name = kGaugeNames[i];
    out << "# TYPE jinjing_" << name << " gauge\n";
    out << "jinjing_" << name << " " << gauge(static_cast<Gauge>(i)) << "\n";
  }
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const std::string_view name = kHistogramNames[i];
    const HistogramSnapshot snapshot = histogram(static_cast<Histogram>(i));
    out << "# TYPE jinjing_" << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      cumulative += snapshot.buckets[b];
      out << "jinjing_" << name << "_bucket{le=\"" << bucket_le(b) << "\"} "
          << cumulative << "\n";
    }
    out << "jinjing_" << name << "_bucket{le=\"+Inf\"} " << snapshot.count
        << "\n";
    out << "jinjing_" << name << "_sum " << snapshot.sum << "\n";
    out << "jinjing_" << name << "_count " << snapshot.count << "\n";
  }
}

void StatsRegistry::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const std::vector<TraceEvent> events = trace_events();
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n  {\"name\": \"" << to_string(event.name)
        << "\", \"cat\": \"jinjing\", \"ph\": \"X\", \"ts\": "
        << event.start_us << ", \"dur\": " << event.dur_us
        << ", \"pid\": 1, \"tid\": " << event.tid << "}";
  }
  out << "\n]}\n";
}

void StatsRegistry::write_json(std::ostream& out,
                               const std::string& indent) const {
  out << "{\n" << indent << "  \"counters\": {";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out << (i == 0 ? "\n" : ",\n") << indent << "    \"" << kCounterNames[i]
        << "\": " << total(static_cast<Counter>(i));
  }
  out << "\n" << indent << "  },\n" << indent << "  \"gauges\": {";
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    out << (i == 0 ? "\n" : ",\n") << indent << "    \"" << kGaugeNames[i]
        << "\": " << gauge(static_cast<Gauge>(i));
  }
  out << "\n" << indent << "  },\n" << indent << "  \"histograms\": {";
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const HistogramSnapshot snapshot = histogram(static_cast<Histogram>(i));
    out << (i == 0 ? "\n" : ",\n") << indent << "    \"" << kHistogramNames[i]
        << "\": {\"count\": " << snapshot.count << ", \"sum\": "
        << snapshot.sum << "}";
  }
  out << "\n" << indent << "  }\n" << indent << "}";
}

namespace {

// Live registrations, oldest first. The installed sink is always the
// newest entry, so scopes destroyed out of order (a server restarting
// while an older one still runs) can never leave a freed registry behind.
struct RegistryStack {
  std::mutex mutex;
  std::vector<StatsRegistry*> entries;
};

RegistryStack& registry_stack() {
  static RegistryStack stack;
  return stack;
}

}  // namespace

ScopedRegistry::ScopedRegistry(StatsRegistry& registry) : registry_(&registry) {
  RegistryStack& stack = registry_stack();
  const std::lock_guard<std::mutex> lock{stack.mutex};
  stack.entries.push_back(registry_);
  detail::g_registry.store(registry_, std::memory_order_release);
}

ScopedRegistry::~ScopedRegistry() {
  RegistryStack& stack = registry_stack();
  const std::lock_guard<std::mutex> lock{stack.mutex};
  const auto it = std::find(stack.entries.rbegin(), stack.entries.rend(), registry_);
  if (it != stack.entries.rend()) stack.entries.erase(std::next(it).base());
  detail::g_registry.store(stack.entries.empty() ? nullptr : stack.entries.back(),
                           std::memory_order_release);
}

}  // namespace jinjing::obs
