// Observability core: counter exactness under contention, histogram bucket
// placement, span nesting, export formats, and the disabled fast path
// (no installed registry must mean no work and no allocations).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "core/checker.h"
#include "gen/scenario.h"
#include "obs/stats.h"
#include "obs/trace.h"

// Counts every (non-aligned) global allocation in the test binary so the
// disabled-path test can assert obs helpers allocate nothing.
namespace {
std::atomic<std::size_t> g_alloc_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace jinjing {
namespace {

TEST(StatsRegistry, CountersAreExactUnderConcurrency) {
  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::count(obs::Counter::SmtQueries);
        obs::count(obs::Counter::ObligationsPlanned, 3);
        obs::observe(obs::Histogram::SmtSolveMicros,
                     static_cast<std::uint64_t>(i % 16));
        obs::gauge_max(obs::Gauge::SvcCachedObligations, static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(registry.total(obs::Counter::SmtQueries),
            std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(registry.total(obs::Counter::ObligationsPlanned),
            std::uint64_t{3} * kThreads * kPerThread);
  EXPECT_EQ(registry.total(obs::Counter::SmtTimeouts), 0u);
  EXPECT_EQ(registry.gauge(obs::Gauge::SvcCachedObligations), std::uint64_t{kPerThread - 1});

  std::uint64_t per_thread_sum = 0;
  for (int i = 0; i < kPerThread; ++i) per_thread_sum += i % 16;
  const auto snapshot = registry.histogram(obs::Histogram::SmtSolveMicros);
  EXPECT_EQ(snapshot.count, std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(snapshot.sum, std::uint64_t{kThreads} * per_thread_sum);
}

TEST(StatsRegistry, HistogramBucketsArePowerOfTwo) {
  obs::StatsRegistry registry;
  // Bucket i counts values of bit width i: {0} -> 0, {1} -> 1, {2,3} -> 2,
  // [4,7] -> 3, ..., so cumulative(le = 2^i - 1) is exact.
  registry.observe(obs::Histogram::SmtSolveMicros, 0);
  registry.observe(obs::Histogram::SmtSolveMicros, 1);
  registry.observe(obs::Histogram::SmtSolveMicros, 2);
  registry.observe(obs::Histogram::SmtSolveMicros, 3);
  registry.observe(obs::Histogram::SmtSolveMicros, 4);
  registry.observe(obs::Histogram::SmtSolveMicros, 1023);
  registry.observe(obs::Histogram::SmtSolveMicros, 1024);

  const auto snapshot = registry.histogram(obs::Histogram::SmtSolveMicros);
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[1], 1u);
  EXPECT_EQ(snapshot.buckets[2], 2u);
  EXPECT_EQ(snapshot.buckets[3], 1u);
  EXPECT_EQ(snapshot.buckets[10], 1u);
  EXPECT_EQ(snapshot.buckets[11], 1u);
  EXPECT_EQ(snapshot.count, 7u);
  EXPECT_EQ(snapshot.sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024);

  // Untouched histograms stay empty.
  EXPECT_EQ(registry.histogram(obs::Histogram::SvcQueueWaitMicros).count, 0u);
}

TEST(StatsRegistry, GaugeKeepsHighWaterMark) {
  obs::StatsRegistry registry;
  registry.set_max(obs::Gauge::SvcCachedObligations, 10);
  registry.set_max(obs::Gauge::SvcCachedObligations, 4);
  EXPECT_EQ(registry.gauge(obs::Gauge::SvcCachedObligations), 10u);
  registry.set_max(obs::Gauge::SvcCachedObligations, 11);
  EXPECT_EQ(registry.gauge(obs::Gauge::SvcCachedObligations), 11u);
}

TEST(TraceSpan, NestedSpansAreContained) {
  obs::StatsRegistry registry;
  {
    const obs::ScopedRegistry installed{registry};
    const obs::TraceSpan outer{obs::Span::EngineCheck};
    {
      const obs::TraceSpan inner{obs::Span::CheckerPlan};
      // Make the inner span non-instant so containment is meaningful.
      const std::uint64_t start = registry.now_us();
      while (registry.now_us() == start) {
      }
    }
  }

  const auto events = registry.trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction: inner closes first.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, obs::Span::CheckerPlan);
  EXPECT_EQ(outer.name, obs::Span::EngineCheck);
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.dur_us, outer.start_us + outer.dur_us);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST(TraceSpan, ThreadsGetDistinctTids) {
  obs::StatsRegistry registry;
  {
    const obs::ScopedRegistry installed{registry};
    std::thread a{[] { const obs::TraceSpan span{obs::Span::SmtQuery}; }};
    a.join();
    std::thread b{[] { const obs::TraceSpan span{obs::Span::SmtQuery}; }};
    b.join();
  }
  const auto events = registry.trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceSpan, EventsSurviveThreadExit) {
  // Events live in the registry's ring, not in the thread: a worker that
  // dies before the export must not lose its events.
  obs::StatsRegistry registry;
  {
    const obs::ScopedRegistry installed{registry};
    std::thread worker{[] {
      for (int i = 0; i < 5; ++i) {
        const obs::TraceSpan span{obs::Span::FecDerive};
      }
    }};
    worker.join();
  }
  EXPECT_EQ(registry.trace_events().size(), 5u);
}

TEST(TraceSpan, RingKeepsNewestEventsFromManyShortLivedThreads) {
  // The connection-thread shape: many threads that each record a few spans
  // and exit. Storage stays at kTraceCapacity events however many threads
  // recorded; the oldest events are the ones overwritten.
  obs::StatsRegistry registry;
  constexpr std::size_t kThreads = 64;
  constexpr std::size_t kPerThread = 2 * obs::kTraceCapacity / kThreads;
  constexpr std::size_t kTotal = kThreads * kPerThread;
  static_assert(kTotal > obs::kTraceCapacity);
  // Sequential threads: event i carries start_us = i, so the retained
  // window is known exactly.
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::thread worker{[&registry, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t at = t * kPerThread + i;
        registry.record_span(obs::Span::SvcJob, at, at + 1);
      }
    }};
    worker.join();
  }
  auto events = registry.trace_events();
  ASSERT_EQ(events.size(), obs::kTraceCapacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].start_us, kTotal - obs::kTraceCapacity + i) << "oldest first";
  }
  EXPECT_NE(events.front().tid, events.back().tid);

  // Concurrent short-lived threads overflow the ring again; the event
  // recorded after they all exit is the newest and must be kept, last.
  constexpr std::uint64_t kMarker = 1u << 30;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&registry] {
      for (std::size_t i = 0; i < obs::kTraceCapacity / 4; ++i) {
        registry.record_span(obs::Span::SmtQuery, 0, 1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  registry.record_span(obs::Span::GenSynth, kMarker, kMarker + 1);
  events = registry.trace_events();
  ASSERT_EQ(events.size(), obs::kTraceCapacity);
  EXPECT_EQ(events.back().name, obs::Span::GenSynth);
  EXPECT_EQ(events.back().start_us, kMarker);
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const obs::TraceEvent& e) { return e.name == obs::Span::SvcJob; }),
            0);
}

TEST(ScopedRegistry, InstallsAndRestores) {
  ASSERT_EQ(obs::StatsRegistry::current(), nullptr);
  obs::StatsRegistry a;
  obs::StatsRegistry b;
  {
    const obs::ScopedRegistry install_a{a};
    EXPECT_EQ(obs::StatsRegistry::current(), &a);
    {
      const obs::ScopedRegistry install_b{b};
      EXPECT_EQ(obs::StatsRegistry::current(), &b);
      obs::count(obs::Counter::PlanBuilds);
    }
    EXPECT_EQ(obs::StatsRegistry::current(), &a);
    obs::count(obs::Counter::PlanBuilds);
  }
  EXPECT_EQ(obs::StatsRegistry::current(), nullptr);
  EXPECT_EQ(a.total(obs::Counter::PlanBuilds), 1u);
  EXPECT_EQ(b.total(obs::Counter::PlanBuilds), 1u);
}

TEST(ScopedRegistry, SurvivesOutOfOrderDestruction) {
  // Servers restart independently, so scopes do not nest: destroying an
  // older scope while a newer one is live must keep the newer registry
  // installed, and destroying the newer one must never re-install a
  // registry whose scope is already gone.
  ASSERT_EQ(obs::StatsRegistry::current(), nullptr);
  obs::StatsRegistry a;
  obs::StatsRegistry b;
  obs::StatsRegistry c;
  auto install_a = std::make_unique<obs::ScopedRegistry>(a);
  auto install_b = std::make_unique<obs::ScopedRegistry>(b);
  install_a.reset();  // the older scope dies first
  EXPECT_EQ(obs::StatsRegistry::current(), &b);
  auto install_c = std::make_unique<obs::ScopedRegistry>(c);
  install_b.reset();  // a middle scope dies while a newer one is live
  EXPECT_EQ(obs::StatsRegistry::current(), &c);
  obs::count(obs::Counter::PlanBuilds);
  install_c.reset();
  EXPECT_EQ(obs::StatsRegistry::current(), nullptr);
  EXPECT_EQ(c.total(obs::Counter::PlanBuilds), 1u);
}

TEST(DisabledPath, NoRegistryMeansNoCountsAndNoAllocations) {
  ASSERT_EQ(obs::StatsRegistry::current(), nullptr);
  const std::size_t before = g_alloc_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::count(obs::Counter::SmtQueries);
    obs::count(obs::Counter::ObligationsSkipped, 7);
    obs::gauge_max(obs::Gauge::SvcCachedObligations, 123);
    obs::observe(obs::Histogram::SmtSolveMicros, 55);
    const obs::TraceSpan span{obs::Span::SmtQuery};
  }
  EXPECT_EQ(g_alloc_calls.load(std::memory_order_relaxed), before);
}

TEST(Exports, PrometheusTextFormat) {
  obs::StatsRegistry registry;
  registry.add(obs::Counter::SmtQueries, 5);
  registry.set_max(obs::Gauge::SvcCachedObligations, 17);
  registry.observe(obs::Histogram::SmtSolveMicros, 3);
  registry.observe(obs::Histogram::SmtSolveMicros, 9);

  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE jinjing_smt_queries_total counter\n"
                      "jinjing_smt_queries_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE jinjing_svc_cached_obligations gauge\n"
                      "jinjing_svc_cached_obligations 17\n"),
            std::string::npos);
  // Cumulative buckets: le="3" sees the 3, le="15" sees both observations.
  EXPECT_NE(text.find("jinjing_smt_solve_micros_bucket{le=\"3\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("jinjing_smt_solve_micros_bucket{le=\"15\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("jinjing_smt_solve_micros_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("jinjing_smt_solve_micros_sum 12\n"), std::string::npos);
  EXPECT_NE(text.find("jinjing_smt_solve_micros_count 2\n"), std::string::npos);
  // The delta-refinement telemetry is part of the export surface.
  EXPECT_NE(text.find("jinjing_fec_delta_splits_total "), std::string::npos);
  EXPECT_NE(text.find("jinjing_fec_delta_reused_atoms_total "), std::string::npos);
  // Every counter appears, even untouched ones.
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto name = to_string(static_cast<obs::Counter>(i));
    EXPECT_NE(text.find("jinjing_" + std::string(name) + "_total "),
              std::string::npos)
        << name;
  }
}

TEST(Exports, ChromeTraceFormat) {
  obs::StatsRegistry registry;
  {
    const obs::ScopedRegistry installed{registry};
    const obs::TraceSpan span{obs::Span::FixSearch};
  }
  std::ostringstream out;
  registry.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_EQ(text.find("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["), 0u)
      << text;
  EXPECT_NE(text.find("\"name\": \"fix.search\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\": \"jinjing\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"pid\": 1"), std::string::npos);
  EXPECT_EQ(text.rfind("]}\n"), text.size() - 3);
}

TEST(Exports, JsonObjectHasAllSections) {
  obs::StatsRegistry registry;
  registry.add(obs::Counter::AecMemoHits, 2);
  std::ostringstream out;
  registry.write_json(out, "");
  const std::string text = out.str();
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
  EXPECT_NE(text.find("\"fec_cache_hits\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"smt_solve_micros\": {\"count\": 0, \"sum\": 0}"),
            std::string::npos);
}

// The pipeline must behave identically whether or not a registry is
// installed: observability is read-only.
TEST(DisabledPath, CheckerResultsMatchEnabledRun) {
  gen::WanParams params;
  params.cores = 2;
  params.aggs = 2;
  params.cells = 2;
  params.gateways_per_cell = 2;
  params.prefixes_per_gateway = 2;
  params.rules_per_acl = 10;
  params.seed = 42;
  const auto wan = gen::make_wan(params);
  const auto update = gen::perturb_rules(wan, 0.05, 42);

  const auto run_check = [&] {
    smt::SmtContext smt;
    core::CheckOptions options;
    options.stop_at_first = false;
    core::Checker checker{smt, wan.topo, wan.scope, options};
    return checker.check(update, wan.traffic);
  };

  ASSERT_EQ(obs::StatsRegistry::current(), nullptr);
  const auto plain = run_check();

  obs::StatsRegistry registry;
  const obs::ScopedRegistry installed{registry};
  const auto observed = run_check();

  EXPECT_EQ(plain.consistent, observed.consistent);
  ASSERT_EQ(plain.violations.size(), observed.violations.size());
  for (std::size_t i = 0; i < plain.violations.size(); ++i) {
    EXPECT_EQ(plain.violations[i].witness, observed.violations[i].witness);
    EXPECT_EQ(plain.violations[i].path_index, observed.violations[i].path_index);
  }
  EXPECT_EQ(plain.fec_count, observed.fec_count);
  EXPECT_EQ(plain.smt_queries, observed.smt_queries);

  // And the observed run actually recorded the pipeline.
  EXPECT_GT(registry.total(obs::Counter::SmtQueries), 0u);
  EXPECT_GT(registry.total(obs::Counter::PlanBuilds), 0u);
  EXPECT_GT(registry.total(obs::Counter::ObligationsPlanned), 0u);
  EXPECT_FALSE(registry.trace_events().empty());
}

}  // namespace
}  // namespace jinjing
