// Tests for the observability subsystem: counter/gauge/histogram semantics,
// span nesting + self-time accounting, JSON snapshot round-trips, and
// thread-safety of the hot-path instruments.
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace msd {
namespace obs {
namespace {

// Spins for roughly `us` microseconds of wall time so span durations are
// strictly positive without depending on sleep granularity. Only used by the
// profiler tests, which compile away when profiling is disabled.
[[maybe_unused]] void BusyWaitUs(int64_t us) {
  const int64_t end = MonotonicNowNs() + us * 1000;
  while (MonotonicNowNs() < end) {
  }
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, SetIsLastWriteWins) {
  Gauge g;
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(GaugeTest, SetMaxKeepsMaximum) {
  Gauge g;
  g.SetMax(10.0);
  g.SetMax(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.SetMax(11.0);
  EXPECT_DOUBLE_EQ(g.value(), 11.0);
}

TEST(GaugeTest, SetMaxIsRaceFreeUnderContention) {
  // Regression for the SetMax CAS loop: with many writers racing, the final
  // value must be the global maximum — a torn read-modify-write would let a
  // smaller late writer overwrite a larger earlier one.
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kValues = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < kValues; ++i) {
        g.SetMax(static_cast<double>(t * kValues + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kValues - 1));
}

TEST(HistogramTest, BucketsCountAndSum) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (boundary is inclusive)
  h.Observe(5.0);    // bucket 1
  h.Observe(250.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 256.5);
  const auto buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 1);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(QuantileTest, ExactRanksAndInterpolation) {
  // Counts go through a real Histogram rather than a hand-written array so
  // the test covers the exact BucketCounts() layout QuantileFromBuckets
  // documents: 5 observations in (0,10], 5 in (10,20], none beyond.
  Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 5; ++i) h.Observe(5.0);
  for (int i = 0; i < 5; ++i) h.Observe(15.0);
  const std::vector<double>& bounds = h.upper_bounds();
  const std::vector<int64_t> counts = h.BucketCounts();
  // rank 5 is the last observation of bucket (0,10]: its upper edge.
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, counts, 0.5), 10.0);
  // rank 9 is the 4th of 5 in (10,20]: 10 + 10 * 4/5.
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, counts, 0.9), 18.0);
  // q=1 hits the last observation: the top of its bucket.
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, counts, 1.0), 20.0);
  // q clamps below at the first observation's interpolated position.
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, counts, -1.0), 2.0);
  // Histogram::ValueAtQuantile is the same computation end to end.
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.9), 18.0);
}

TEST(QuantileTest, OverflowBucketClampsToLargestBound) {
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 3; ++i) h.Observe(9.0);  // everything overflows
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.99), 2.0);
}

TEST(QuantileTest, EmptyHistogramReturnsZero) {
  Histogram h({1.0, 10.0});
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.5), 0.0);
}

TEST(QuantileTest, ValueAtQuantileMatchesExactOnLogSpacedBuckets) {
  // 1000 uniform observations over [1, 10000): interpolated quantiles on
  // 32-per-decade log buckets must land within one bucket ratio (~7.5%) of
  // the exact empirical quantile.
  Histogram h(LogSpacedBounds(1.0, 1e5, 32));
  for (int i = 0; i < 1000; ++i) h.Observe(1.0 + i * 10.0);
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = 1.0 + (std::ceil(q * 1000.0) - 1.0) * 10.0;
    const double approx = h.ValueAtQuantile(q);
    EXPECT_NEAR(approx, exact, exact * 0.075) << "q=" << q;
  }
}

TEST(LogSpacedBoundsTest, CoversRangeMonotonically) {
  const std::vector<double> bounds = LogSpacedBounds(1.0, 100.0, 1);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_NEAR(bounds[1], 10.0, 1e-9);
  EXPECT_NEAR(bounds[2], 100.0, 1e-7);

  const std::vector<double> fine = LogSpacedBounds(1.0, 1e7, 48);
  EXPECT_GE(fine.back(), 1e7);
  for (size_t i = 1; i < fine.size(); ++i) {
    EXPECT_GT(fine[i], fine[i - 1]);
    // Adjacent bounds stay ~4.9% apart: the quantile interpolation error
    // bound the serving agreement gate relies on.
    EXPECT_LT(fine[i] / fine[i - 1], 1.05);
  }
}

TEST(MetricsRegistryTest, HandlesAreStableAndSurviveReset) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test/stable");
  Counter& b = registry.GetCounter("test/stable");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  registry.ResetAll();
  EXPECT_EQ(b.value(), 0);
  a.Add(1);  // handle still valid after reset
  EXPECT_EQ(b.value(), 1);
}

TEST(MetricsRegistryTest, JsonSnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("tensor/allocs").Add(12);
  registry.GetGauge("train/lr").Set(0.003);
  Histogram& h = registry.GetHistogram("autograd/tape_nodes", {10.0, 100.0});
  h.Observe(5.0);
  h.Observe(5000.0);

  JsonValue doc;
  ASSERT_TRUE(JsonParse(registry.ToJson(), &doc));
  ASSERT_TRUE(doc.is_object());

  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* allocs = counters->Find("tensor/allocs");
  ASSERT_NE(allocs, nullptr);
  EXPECT_DOUBLE_EQ(allocs->number, 12.0);

  const JsonValue* lr = doc.Find("gauges")->Find("train/lr");
  ASSERT_NE(lr, nullptr);
  EXPECT_DOUBLE_EQ(lr->number, 0.003);

  const JsonValue* hist = doc.Find("histograms")->Find("autograd/tape_nodes");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->number, 5005.0);
  const JsonValue* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets->array[0].Find("count")->number, 1.0);
  EXPECT_EQ(buckets->array[2].Find("le")->str, "inf");
  EXPECT_DOUBLE_EQ(buckets->array[2].Find("count")->number, 1.0);
}

TEST(MetricsRegistryTest, MultithreadedCounterIncrements) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Mix of repeated lookups and a cached handle, as real call sites do.
      Counter& cached = registry.GetCounter("test/mt");
      for (int i = 0; i < kIncrements; ++i) cached.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("test/mt").value(),
            int64_t{kThreads} * kIncrements);
}

TEST(JsonTest, EscapeAndParseSpecialCharacters) {
  const std::string raw = "a\"b\\c\nd\te";
  const std::string doc = "{\"k\":\"" + JsonEscape(raw) + "\"}";
  JsonValue parsed;
  ASSERT_TRUE(JsonParse(doc, &parsed));
  EXPECT_EQ(parsed.Find("k")->str, raw);
}

TEST(JsonTest, ParsesNestedStructuresAndNumbers) {
  JsonValue v;
  ASSERT_TRUE(JsonParse(R"({"a":[1,-2.5,3e2],"b":{"c":true,"d":null}})", &v));
  EXPECT_DOUBLE_EQ(v.Find("a")->array[1].number, -2.5);
  EXPECT_DOUBLE_EQ(v.Find("a")->array[2].number, 300.0);
  EXPECT_TRUE(v.Find("b")->Find("c")->boolean);
  EXPECT_EQ(v.Find("b")->Find("d")->type, JsonValue::Type::kNull);
}

TEST(JsonTest, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(JsonParse("{", &v));
  EXPECT_FALSE(JsonParse("{\"a\":}", &v));
  EXPECT_FALSE(JsonParse("[1,2,]trailing", &v));
  EXPECT_FALSE(JsonParse("{\"a\":1} extra", &v));
  EXPECT_FALSE(JsonParse("\"unterminated", &v));
}

TEST(ProfilerTest, SpanNestingAndSelfTime) {
  Profiler& profiler = Profiler::Global();
  profiler.Reset();
  profiler.SetEnabled(true);
  {
    ScopedSpan outer("test/outer");
    BusyWaitUs(200);
    {
      ScopedSpan inner("test/inner");
      BusyWaitUs(200);
    }
    {
      ScopedSpan inner("test/inner");
      BusyWaitUs(200);
    }
    BusyWaitUs(100);
  }
  const auto aggregates = profiler.Aggregates();
  ASSERT_EQ(aggregates.count("test/outer"), 1u);
  ASSERT_EQ(aggregates.count("test/inner"), 1u);
  const SpanStats& outer = aggregates.at("test/outer");
  const SpanStats& inner = aggregates.at("test/inner");
  EXPECT_EQ(outer.count, 1);
  EXPECT_EQ(inner.count, 2);
  // Inclusive time covers the children; self time excludes them exactly.
  EXPECT_GE(outer.total_ns, inner.total_ns);
  EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
  // Inner spans have no children: self == total.
  EXPECT_EQ(inner.self_ns, inner.total_ns);
  EXPECT_GE(inner.min_ns, 0);
  EXPECT_LE(inner.min_ns, inner.max_ns);
}

TEST(ProfilerTest, AggregateReportJsonParses) {
  Profiler& profiler = Profiler::Global();
  profiler.Reset();
  {
    ScopedSpan span("test/report");
    BusyWaitUs(50);
  }
  JsonValue doc;
  ASSERT_TRUE(JsonParse(profiler.AggregateReportJson(), &doc));
  const JsonValue* span = doc.Find("test/report");
  ASSERT_NE(span, nullptr);
  EXPECT_DOUBLE_EQ(span->Find("count")->number, 1.0);
  EXPECT_GT(span->Find("total_ms")->number, 0.0);
  EXPECT_GE(span->Find("max_ms")->number, span->Find("min_ms")->number);
}

TEST(ProfilerTest, ChromeTraceEventsNestCorrectly) {
  Profiler& profiler = Profiler::Global();
  profiler.Reset();
  {
    ScopedSpan outer("test/trace_outer");
    BusyWaitUs(100);
    {
      ScopedSpan inner("test/trace_inner");
      BusyWaitUs(100);
    }
  }
  JsonValue doc;
  ASSERT_TRUE(JsonParse(profiler.ChromeTraceJson(), &doc));
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  // Events are recorded on close, so the inner span appears first.
  const JsonValue& inner = events->array[0];
  const JsonValue& outer = events->array[1];
  EXPECT_EQ(inner.Find("name")->str, "test/trace_inner");
  EXPECT_EQ(outer.Find("name")->str, "test/trace_outer");
  EXPECT_EQ(outer.Find("ph")->str, "X");
  // Correct nesting: inner's [ts, ts+dur] lies inside outer's.
  const double outer_ts = outer.Find("ts")->number;
  const double inner_ts = inner.Find("ts")->number;
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner.Find("dur")->number,
            outer_ts + outer.Find("dur")->number);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler& profiler = Profiler::Global();
  profiler.Reset();
  profiler.SetEnabled(false);
  {
    ScopedSpan span("test/disabled");
    BusyWaitUs(10);
  }
  profiler.SetEnabled(true);
  EXPECT_EQ(profiler.Aggregates().count("test/disabled"), 0u);
}

TEST(ProfilerTest, TraceCapacityCapsEventsButNotAggregates) {
  Profiler& profiler = Profiler::Global();
  profiler.Reset();
  profiler.SetTraceCapacity(2);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("test/capped");
  }
  EXPECT_EQ(profiler.Aggregates().at("test/capped").count, 5);
  EXPECT_EQ(profiler.dropped_events(), 3);
  JsonValue doc;
  ASSERT_TRUE(JsonParse(profiler.ChromeTraceJson(), &doc));
  EXPECT_EQ(doc.Find("traceEvents")->array.size(), 2u);
  profiler.SetTraceCapacity(65536);
  profiler.Reset();
}

}  // namespace
}  // namespace obs
}  // namespace msd
