// Unit tests for src/obs: counters, gauges, lock-striped histograms and
// their quantiles, span tracing, scoped timers, exporters, the JSON
// dump round-trip, the request-scoped TraceCollector, label escaping,
// and the trace/bench file writers.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bench_report.h"
#include "obs/export.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "obs/trace_collector.h"
#include "rt/runtime.h"

namespace apichecker::obs {
namespace {

TEST(Counter, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Histogram, BucketsCountSumMinMax) {
  Histogram h(Histogram::LinearBounds(1.0, 1.0, 3));  // bounds {1, 2, 3}.
  h.Observe(0.5);   // bucket 0 (<= 1).
  h.Observe(1.5);   // bucket 1 (<= 2).
  h.Observe(2.5);   // bucket 2 (<= 3).
  h.Observe(99.0);  // overflow bucket.
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 1u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.5 + 2.5 + 99.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 99.0);
}

TEST(Histogram, BoundGenerators) {
  const std::vector<double> exp = Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);
  const std::vector<double> lin = Histogram::LinearBounds(0.5, 0.5, 4);
  ASSERT_EQ(lin.size(), 4u);
  EXPECT_DOUBLE_EQ(lin[0], 0.5);
  EXPECT_DOUBLE_EQ(lin[3], 2.0);
}

TEST(Histogram, QuantilesExactWhileStreamFitsReservoir) {
  // 500 observations from one thread stay inside one stripe's 512-slot
  // reservoir, so quantiles are exact (up to interpolation).
  Histogram h(Histogram::LinearBounds(50.0, 50.0, 10));
  for (int i = 1; i <= 500; ++i) {
    h.Observe(static_cast<double>(i));
  }
  EXPECT_NEAR(h.Quantile(0.5), 250.5, 1.0);
  EXPECT_NEAR(h.Quantile(0.95), 475.0, 1.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 500.0);
}

TEST(Histogram, EmptySnapshotIsSane) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
}

TEST(Metrics, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("apichecker_test_events_total");
  Histogram& hist = registry.histogram("apichecker_test_latency_ms");
  constexpr size_t kIters = 20'000;
  rt::Runtime rt(rt::RuntimeOptions{8});
  rt.ParallelFor(kIters, [&](size_t i) {
    counter.Increment();
    hist.Observe(static_cast<double>(i % 100));
  });
  EXPECT_EQ(counter.value(), kIters);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kIters);
  // Sum over i % 100 for kIters observations: kIters/100 full cycles of 0..99.
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kIters / 100) * 4950.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 99.0);
}

TEST(Metrics, RegistryReturnsStableAddresses) {
  MetricsRegistry registry;
  Counter& a = registry.counter("apichecker_test_a_total");
  for (int i = 0; i < 100; ++i) {
    registry.counter("apichecker_test_filler_" + std::to_string(i) + "_total");
  }
  EXPECT_EQ(&a, &registry.counter("apichecker_test_a_total"));
}

TEST(Metrics, KindMismatchFallsBackToDummy) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("apichecker_test_kind_total");
  counter.Increment(5);
  // Asking for the same name as a gauge must not crash and must not clobber
  // the real counter.
  Gauge& dummy = registry.gauge("apichecker_test_kind_total");
  dummy.Set(123.0);
  EXPECT_EQ(registry.counter("apichecker_test_kind_total").value(), 5u);
}

TEST(Metrics, StandardMetricsRegisteredInDefault) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  const std::vector<MetricSnapshot> snap = reg.Snapshot();
  auto has = [&](std::string_view name) {
    for (const MetricSnapshot& m : snap) {
      if (m.name == name) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has(names::kEmuFarmMakespanMinutes));
  EXPECT_TRUE(has(names::kEmuAppMinutes));
  EXPECT_TRUE(has(names::kCoreClassifyLatencyUs));
  EXPECT_TRUE(has(names::kCoreVerdictMaliciousTotal));
  EXPECT_TRUE(has(names::kMarketOutcomePublishedTotal));
  // Idempotent: re-registering changes nothing.
  const size_t before = reg.size();
  RegisterStandardMetrics(reg);
  EXPECT_EQ(reg.size(), before);
}

TEST(Trace, NestedSpansTrackParentage) {
  MetricsRegistry registry;
  TraceLog log(64);
  EXPECT_EQ(TraceSpan::Current(), nullptr);
  {
    TraceSpan outer("outer", &registry, &log);
    EXPECT_EQ(TraceSpan::Current(), &outer);
    EXPECT_EQ(outer.depth(), 0u);
    EXPECT_EQ(outer.parent(), nullptr);
    {
      TraceSpan inner("inner", &registry, &log);
      EXPECT_EQ(TraceSpan::Current(), &inner);
      EXPECT_EQ(inner.depth(), 1u);
      ASSERT_NE(inner.parent(), nullptr);
      EXPECT_EQ(inner.parent()->name(), "outer");
    }
    EXPECT_EQ(TraceSpan::Current(), &outer);
  }
  EXPECT_EQ(TraceSpan::Current(), nullptr);

  const std::vector<SpanRecord> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 2u);  // inner finished first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, "outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, "");
  // Each span also landed in a per-name latency histogram.
  EXPECT_EQ(registry.histogram("apichecker_trace_inner_ms").count(), 1u);
  EXPECT_EQ(registry.histogram("apichecker_trace_outer_ms").count(), 1u);
}

TEST(Trace, LogDropsOldestWhenFull) {
  TraceLog log(8);
  for (int i = 0; i < 20; ++i) {
    SpanRecord r;
    r.name = "s" + std::to_string(i);
    log.Record(std::move(r));
  }
  EXPECT_GT(log.dropped(), 0u);
  const std::vector<SpanRecord> spans = log.Snapshot();
  EXPECT_LE(spans.size(), log.capacity());
  // The newest record always survives.
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().name, "s19");
}

TEST(Trace, ScopedTimerRecordsOnce) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("apichecker_test_timer_ms");
  {
    ScopedTimer timer(hist, ScopedTimer::Unit::kMicros);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const double elapsed_us = timer.Stop();
    EXPECT_GE(elapsed_us, 500.0);
    timer.Stop();  // Second stop is a no-op.
  }  // Destructor must not record again after Stop().
  EXPECT_EQ(hist.count(), 1u);
}

TEST(Export, PrometheusTextHasHelpTypeAndSamples) {
  MetricsRegistry registry;
  registry.counter("apichecker_test_events_total", "events").Increment(3);
  registry.gauge("apichecker_test_level", "level").Set(1.5);
  registry.histogram("apichecker_test_ms", Histogram::LinearBounds(1, 1, 2)).Observe(0.5);
  const std::string text = ToPrometheusText(registry);
  EXPECT_NE(text.find("# HELP apichecker_test_events_total events"), std::string::npos);
  EXPECT_NE(text.find("# TYPE apichecker_test_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("apichecker_test_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE apichecker_test_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE apichecker_test_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("apichecker_test_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("apichecker_test_ms_count 1"), std::string::npos);
}

TEST(Export, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.counter("apichecker_test_events_total").Increment(7);
  registry.gauge("apichecker_test_level").Set(-2.25);
  Histogram& hist = registry.histogram("apichecker_test_ms", Histogram::LinearBounds(10, 10, 4));
  for (int i = 1; i <= 100; ++i) {
    hist.Observe(static_cast<double>(i));
  }
  TraceLog log(16);
  {
    TraceSpan span("roundtrip", &registry, &log);
  }

  const std::string json = ToJson(registry, &log);
  auto parsed = ParseJsonDump(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_DOUBLE_EQ(parsed->counters.at("apichecker_test_events_total"), 7.0);
  EXPECT_DOUBLE_EQ(parsed->gauges.at("apichecker_test_level"), -2.25);
  const ParsedHistogram& h = parsed->histograms.at("apichecker_test_ms");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_NEAR(h.quantiles.at("p50"), 50.5, 1.0);
  EXPECT_EQ(parsed->num_spans, 1u);
  // The roundtrip span's latency histogram also made it into the dump.
  EXPECT_TRUE(parsed->histograms.count("apichecker_trace_roundtrip_ms"));
}

TEST(Export, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseJsonDump("not json").ok());
  EXPECT_FALSE(ParseJsonDump("{\"counters\": [1,2]").ok());
}

// Adapts an rt::Runtime into the reporter's TimerHost shape (what a unified-
// runtime process passes so reporting costs zero threads).
PeriodicReporter::TimerHost RuntimeHost(rt::Runtime& rt) {
  return [&rt](std::chrono::milliseconds delay, std::function<void()> tick) {
    rt::CancelToken token = rt.PostAfter(delay, std::move(tick));
    if (!token.valid()) return PeriodicReporter::CancelFn{};
    return PeriodicReporter::CancelFn([token]() mutable { return token.Cancel(); });
  };
}

TEST(Export, TimerHostReporterFlushesAndReschedules) {
  rt::Runtime rt(rt::RuntimeOptions{2});
  MetricsRegistry registry;
  std::atomic<uint64_t> seen{0};
  {
    PeriodicReporter reporter(std::chrono::milliseconds(5),
                              [&](const MetricsRegistry&) { seen.fetch_add(1); },
                              RuntimeHost(rt), registry);
    // Several intervals must elapse: the tick has to re-arm itself.
    while (seen.load() < 3) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    reporter.Stop();
    EXPECT_GE(reporter.flush_count(), 3u);
  }
  rt.Shutdown();
}

TEST(Export, TimerHostReporterStopOwesTheFinalFlush) {
  // Interval far longer than the test: only Stop()'s flush runs, and it must
  // see increments made right before Stop() — the last partial interval is
  // never dropped.
  rt::Runtime rt(rt::RuntimeOptions{2});
  MetricsRegistry registry;
  std::atomic<uint64_t> last_seen{0};
  PeriodicReporter reporter(
      std::chrono::hours(24),
      [&](const MetricsRegistry&) {
        last_seen.store(registry.counter("apichecker_test_final_total").value());
      },
      RuntimeHost(rt), registry);
  registry.counter("apichecker_test_final_total").Increment(7);
  reporter.Stop();
  EXPECT_EQ(reporter.flush_count(), 1u);
  EXPECT_EQ(last_seen.load(), 7u);
  rt.Shutdown();
}

TEST(Export, TimerHostReporterConcurrentStopNeverSkipsTheFinalFlush) {
  rt::Runtime rt(rt::RuntimeOptions{2});
  for (int round = 0; round < 20; ++round) {
    MetricsRegistry registry;
    std::atomic<uint64_t> flushes{0};
    PeriodicReporter reporter(
        std::chrono::hours(24),
        [&](const MetricsRegistry&) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          flushes.fetch_add(1);
        },
        RuntimeHost(rt), registry);
    std::thread a([&] { reporter.Stop(); });
    std::thread b([&] { reporter.Stop(); });
    a.join();
    b.join();
    EXPECT_EQ(flushes.load(), 1u);
  }
  rt.Shutdown();
}

TEST(Export, TimerHostReporterRacingTickAndStop) {
  // Tight interval + immediate Stop, many rounds: whichever way the
  // cancel-vs-fire race lands, Stop must return promptly and exactly one
  // final flush (plus any ticks that beat it) is recorded.
  rt::Runtime rt(rt::RuntimeOptions{2});
  for (int round = 0; round < 50; ++round) {
    MetricsRegistry registry;
    std::atomic<uint64_t> flushes{0};
    PeriodicReporter reporter(std::chrono::milliseconds(1),
                              [&](const MetricsRegistry&) { flushes.fetch_add(1); },
                              RuntimeHost(rt), registry);
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 10)));
    reporter.Stop();
    EXPECT_GE(flushes.load(), 1u);
    EXPECT_EQ(reporter.flush_count(), flushes.load());
  }
  rt.Shutdown();
}

// ---------------------------------------------------------------------------
// Label escaping (Prometheus exposition + JSON dump round-trip).

TEST(Labels, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapeLabelValue("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(LabeledSeriesName("base_total", "farm", "2"),
            "base_total{farm=\"2\"}");
}

TEST(Labels, HostileValueRoundTripsThroughBothExporters) {
  // A label value containing every character the exposition format treats
  // specially. The series must survive Prometheus text rendering (escaped)
  // and the JSON dump -> ParseJsonDump round trip (name preserved exactly).
  MetricsRegistry registry;
  const std::string name =
      LabeledSeriesName("apichecker_test_hostile_total", "path",
                        "C:\\tmp\n\"quoted\"");
  registry.counter(name).Increment(3);

  const std::string prom = ToPrometheusText(registry);
  // Inside the quoted label value: \ -> \\, " -> \", newline -> \n.
  EXPECT_NE(prom.find("path=\"C:\\\\tmp\\n\\\"quoted\\\"\""), std::string::npos)
      << prom;
  // The raw newline must NOT appear inside the sample line.
  EXPECT_EQ(prom.find("C:\\tmp\n"), std::string::npos);

  auto parsed = ParseJsonDump(ToJson(registry));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_TRUE(parsed->counters.count(name))
      << "series name mangled by JSON round-trip";
  EXPECT_DOUBLE_EQ(parsed->counters.at(name), 3.0);
}

// ---------------------------------------------------------------------------
// Histogram quantile edge cases.

TEST(Histogram, QuantileOfSingleSample) {
  Histogram h;
  h.Observe(42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 42.0);
}

TEST(Histogram, QuantileWhenAllSamplesEqual) {
  Histogram h;
  for (int i = 0; i < 1'000; ++i) {
    h.Observe(7.5);
  }
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1'000u);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Quantile(q), 7.5) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// TraceCollector: request-scoped tracing across thread hops.

TEST(TraceCollector, RecordsSpansAndSealsOnComplete) {
  TraceCollector collector;
  const uint64_t id = collector.StartTrace();
  ASSERT_NE(id, 0u);
  EXPECT_EQ(collector.open_traces(), 1u);

  StageSpan late;
  late.stage = stages::kFarm;
  late.start_ms = 5.0;
  late.duration_ms = 2.0;
  collector.Record(id, late);
  StageSpan early;
  early.stage = stages::kSubmit;
  early.start_ms = 1.0;
  early.duration_ms = 0.5;
  collector.Record(id, early);

  std::vector<StageMs> breakdown;
  breakdown.push_back({stages::kSubmit, 4.0});
  breakdown.push_back({stages::kFarm, 2.0});
  breakdown.push_back({stages::kResolve, 1.0});
  collector.Complete(id, "ok", false, std::move(breakdown), 7.0);

  EXPECT_EQ(collector.open_traces(), 0u);
  const std::vector<Trace> completed = collector.Completed();
  ASSERT_EQ(completed.size(), 1u);
  const Trace& trace = completed[0];
  EXPECT_EQ(trace.trace_id, id);
  EXPECT_EQ(trace.status, "ok");
  ASSERT_EQ(trace.spans.size(), 2u);
  // Spans are sorted by start time at Complete, regardless of record order.
  EXPECT_EQ(trace.spans[0].stage, stages::kSubmit);
  EXPECT_EQ(trace.spans[1].stage, stages::kFarm);
  EXPECT_TRUE(trace.HasStage(stages::kSubmit));
  EXPECT_FALSE(trace.HasStage(stages::kClassify));
  EXPECT_NEAR(trace.BreakdownSumMs(), trace.total_ms, 1e-9);
}

TEST(TraceCollector, SpansAfterCompleteAreCountedDropped) {
  TraceCollector collector;
  const uint64_t id = collector.StartTrace();
  collector.Complete(id, "ok", false, {}, 1.0);
  StageSpan span;
  span.stage = stages::kFarm;
  collector.Record(id, span);  // Late: the trace is sealed.
  EXPECT_EQ(collector.spans_recorded(), 0u);
  EXPECT_EQ(collector.spans_dropped(), 1u);
}

TEST(TraceCollector, DropsNewTracesAtBirthWhenOverBound) {
  TraceCollector::Options options;
  options.max_open_traces = 8;  // 1 per stripe.
  TraceCollector collector(options);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(collector.StartTrace());
  }
  EXPECT_EQ(collector.traces_started(), 64u);
  EXPECT_LE(collector.open_traces(), 8u);
  EXPECT_EQ(collector.traces_dropped(), 64u - collector.open_traces());
  // Dropped ids are still safe to use — every call is a counted no-op.
  for (uint64_t id : ids) {
    StageSpan span;
    span.stage = stages::kSubmit;
    collector.Record(id, span);
    collector.Complete(id, "ok", false, {}, 1.0);
  }
  EXPECT_EQ(collector.traces_completed(), 64u - collector.traces_dropped());
  EXPECT_EQ(collector.open_traces(), 0u);
}

TEST(TraceCollector, CompletedRingDropsOldestButTailKeepsSlowest) {
  TraceCollector::Options options;
  options.completed_capacity = 8;  // 1 per stripe ring.
  options.tail_keep = 4;
  TraceCollector collector(options);
  // 64 traces with increasing totals, then one huge outlier early in id order
  // would be recycled by the ring — but the tail sampler must retain the
  // slowest 4 regardless of ring churn.
  for (int i = 1; i <= 64; ++i) {
    const uint64_t id = collector.StartTrace();
    collector.Complete(id, "ok", false, {}, static_cast<double>(i));
  }
  EXPECT_LE(collector.Completed().size(), 8u);
  const std::vector<Trace> slowest = collector.Slowest();
  ASSERT_EQ(slowest.size(), 4u);
  EXPECT_DOUBLE_EQ(slowest[0].total_ms, 64.0);
  EXPECT_DOUBLE_EQ(slowest[1].total_ms, 63.0);
  EXPECT_DOUBLE_EQ(slowest[2].total_ms, 62.0);
  EXPECT_DOUBLE_EQ(slowest[3].total_ms, 61.0);
}

TEST(TraceCollector, ClearDropsEverything) {
  TraceCollector collector;
  const uint64_t open_id = collector.StartTrace();
  (void)open_id;
  const uint64_t done_id = collector.StartTrace();
  collector.Complete(done_id, "ok", false, {}, 1.0);
  collector.Clear();
  EXPECT_EQ(collector.open_traces(), 0u);
  EXPECT_TRUE(collector.Completed().empty());
  EXPECT_TRUE(collector.Slowest().empty());
}

TEST(TraceCollector, StageHistogramNamesCoverTheVocabulary) {
  EXPECT_STREQ(StageHistogramName(stages::kSubmit),
               names::kServeStageSubmitMs);
  EXPECT_STREQ(StageHistogramName(stages::kShard),
               names::kServeStageQueueWaitMs);
  EXPECT_STREQ(StageHistogramName(stages::kBatch),
               names::kServeStageBatchLingerMs);
  EXPECT_STREQ(StageHistogramName(stages::kFarm),
               names::kServeStageFarmExecuteMs);
  EXPECT_STREQ(StageHistogramName(stages::kClassify),
               names::kServeStageClassifyMs);
  EXPECT_STREQ(StageHistogramName(stages::kStore),
               names::kServeStageStoreAppendMs);
  EXPECT_STREQ(StageHistogramName(stages::kResolve),
               names::kServeStageResolveMs);
  // Unknown stages are remainder time.
  EXPECT_STREQ(StageHistogramName("mystery"), names::kServeStageResolveMs);
}

// ---------------------------------------------------------------------------
// Trace export formats + file writer.

std::vector<Trace> MakeExportFixture() {
  TraceCollector collector;
  const uint64_t id = collector.StartTrace();
  StageSpan farm;
  farm.stage = stages::kFarm;
  farm.label = "farm=1";
  farm.start_ms = 10.0;
  farm.duration_ms = 3.5;
  farm.queue_depth = 2;
  farm.fault = true;
  collector.Record(id, farm);
  std::vector<StageMs> breakdown;
  breakdown.push_back({stages::kFarm, 3.5});
  collector.Complete(id, "rejected_unhealthy", false, std::move(breakdown), 3.5);
  return collector.Completed();
}

TEST(TraceExport, ChromeJsonCarriesCompleteEvents) {
  const std::string json = TracesToChromeJson(MakeExportFixture());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"farm\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"farm=1\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\": true"), std::string::npos);
  // ts/dur are microseconds: 10ms -> 10000us.
  EXPECT_NE(json.find("\"ts\": 10000.0"), std::string::npos);
}

TEST(TraceExport, JsonLinesAreSelfContainedObjects) {
  const std::string jsonl = TracesToJsonLines(MakeExportFixture());
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_EQ(jsonl.find('\n'), jsonl.size() - 1) << "exactly one line per trace";
  EXPECT_NE(jsonl.find("\"status\": \"rejected_unhealthy\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"breakdown\": {\"farm\": 3.500}"), std::string::npos);
  EXPECT_NE(jsonl.find("\"queue_depth\": 2"), std::string::npos);
}

TEST(TraceExport, WriteRefusesToOverwriteWithoutForce) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "apichecker_obs_test.trace.json")
          .string();
  std::remove(path.c_str());
  const std::vector<Trace> traces = MakeExportFixture();
  auto first = WriteTraceFile(path, traces, /*force=*/false);
  ASSERT_TRUE(first.ok()) << first.error();
  auto second = WriteTraceFile(path, traces, /*force=*/false);
  EXPECT_FALSE(second.ok());
  EXPECT_NE(second.error().find("--force"), std::string::npos);
  auto forced = WriteTraceFile(path, traces, /*force=*/true);
  EXPECT_TRUE(forced.ok()) << forced.error();
  std::remove(path.c_str());
}

TEST(BenchReport, JsonCarriesSchemaAndStages) {
  BenchReport report;
  report.bench = "serve_throughput";
  report.git_rev = "abc123";
  report.submissions = 100;
  report.wall_s = 2.0;
  report.throughput_per_sec = 50.0;
  report.sample_rate = 0.01;
  report.stages["farm"] = BenchStage{1.5, 9.0, 42};
  const std::string json = BenchReportToJson(report);
  EXPECT_NE(json.find("\"schema\": \"apichecker-bench-serve-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"farm\": {\"p50_ms\": 1.5000"), std::string::npos);
  EXPECT_NE(json.find("\"submissions\": 100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ObsSoak: concurrency suites, split out under the ctest "stress" label so
// tools/ci.sh runs them under ThreadSanitizer.

TEST(ObsSoak, ConcurrentObserveWhileSnapshottingQuantiles) {
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const HistogramSnapshot snap = h.Snapshot();
      const double q = snap.Quantile(0.99);
      // Quantiles of an in-flux histogram must stay inside the observed range.
      if (snap.count > 0) {
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 100.0);
      }
    }
  });
  rt::Runtime rt(rt::RuntimeOptions{8});
  rt.ParallelFor(50'000, [&](size_t i) {
    h.Observe(static_cast<double>(i % 101));
  });
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(h.Snapshot().count, 50'000u);
}

TEST(ObsSoak, ConcurrentTraceLifecyclesLoseNoSpans) {
  TraceCollector collector;
  constexpr size_t kTraces = 4'000;
  rt::Runtime rt(rt::RuntimeOptions{8});
  std::atomic<uint64_t> completed{0};
  rt.ParallelFor(kTraces, [&](size_t i) {
    const uint64_t id = collector.StartTrace();
    StageSpan span;
    span.stage = stages::kSubmit;
    span.start_ms = static_cast<double>(i);
    collector.Record(id, span);
    std::vector<StageMs> breakdown;
    breakdown.push_back({stages::kSubmit, 1.0});
    collector.Complete(id, "ok", false, std::move(breakdown), 1.0);
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(completed.load(), kTraces);
  // Every trace was completed before the next started on that thread, so no
  // trace was ever dropped at birth and every span landed pre-Complete.
  EXPECT_EQ(collector.traces_completed(), kTraces);
  EXPECT_EQ(collector.spans_recorded(), kTraces);
  EXPECT_EQ(collector.spans_dropped(), 0u);
  EXPECT_EQ(collector.open_traces(), 0u);
}

}  // namespace
}  // namespace apichecker::obs
