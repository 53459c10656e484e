// Tests for the observability layer (src/obs/): span nesting, recorder
// exports, metric types, registry snapshots, and the disabled-mode no-op
// guarantees the hot paths rely on.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "parallel/pool.h"
#include "util/json.h"

namespace alem {
namespace obs {
namespace {

// Every test runs with a clean, enabled obs state and leaves the process
// with both subsystems off again (other test binaries' suites assume the
// default-off state).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Clear();
    MetricsRegistry::Global().ResetAll();
    SetTracingEnabled(true);
    SetMetricsEnabled(true);
  }
  void TearDown() override {
    SetTracingEnabled(false);
    SetMetricsEnabled(false);
    TraceRecorder::Global().Clear();
    MetricsRegistry::Global().ResetAll();
  }
};

// Member `key` of a parsed JSON object; null when absent, so a missing
// field fails the expectation on it instead of crashing the test.
const JsonValue& Member(const JsonValue& object, std::string_view key) {
  static const JsonValue kAbsent;
  const JsonValue* value = object.Find(key);
  return value != nullptr ? *value : kAbsent;
}

// ---- Spans -------------------------------------------------------------

TEST_F(ObsTest, SpansRecordNestingDepth) {
  {
    ObsSpan outer("outer", "test");
    {
      ObsSpan middle("middle", "test");
      ObsSpan inner("inner", "test", "leaf");
    }
    ObsSpan sibling("sibling", "test");
  }
  const std::vector<SpanRecord> spans = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);

  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& span : spans) by_name[span.name] = span;
  EXPECT_EQ(by_name.at("outer").depth, 0);
  EXPECT_EQ(by_name.at("middle").depth, 1);
  EXPECT_EQ(by_name.at("inner").depth, 2);
  EXPECT_EQ(by_name.at("sibling").depth, 1);
  EXPECT_EQ(by_name.at("inner").detail, "leaf");
  EXPECT_EQ(by_name.at("outer").category, "test");

  // Children fall inside the parent's [start, start + duration] window.
  const SpanRecord& outer = by_name.at("outer");
  const SpanRecord& inner = by_name.at("inner");
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
}

TEST_F(ObsTest, CloseReturnsRecordedDurationAndIsIdempotent) {
  ObsSpan span("timed", "test");
  const double first = span.Close();
  const double second = span.Close();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(first, second);  // Idempotent, no re-measurement.

  const std::vector<SpanRecord> spans = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);  // Destructor must not re-record.
  EXPECT_DOUBLE_EQ(static_cast<double>(spans[0].duration_ns) / 1e9, first);
}

TEST_F(ObsTest, SpansMeasureButDoNotRecordWhenDisabled) {
  SetTracingEnabled(false);
  ObsSpan span("ghost");
  const double elapsed = span.Close();
  EXPECT_GE(elapsed, 0.0);  // Still measures (stats are derived from spans).
  EXPECT_EQ(TraceRecorder::Global().size(), 0u);
}

TEST_F(ObsTest, ConcurrentSpansAndCountersSurviveSmokeTest) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  Counter& counter = MetricsRegistry::Global().GetCounter("test.smoke");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ObsSpan outer("t.outer", "test");
        ObsSpan inner("t.inner", "test");
        counter.Increment();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  const std::vector<SpanRecord> spans = TraceRecorder::Global().Snapshot();
  EXPECT_EQ(spans.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  for (const SpanRecord& span : spans) {
    // Depth tracking must stay per-thread: only 0 (outer) or 1 (inner).
    if (span.name == "t.outer") {
      EXPECT_EQ(span.depth, 0);
    } else {
      EXPECT_EQ(span.depth, 1);
    }
  }
}

TEST_F(ObsTest, ParallelForStressKeepsTracesWellFormed) {
  // ~10k spans per worker pushed through the pool: 40k elements, two nested
  // user spans each, plus one "parallel.chunk" span per chunk and the
  // submitter's aggregate span. The trace must stay parseable and per-thread
  // nesting must hold under contention.
  const int original_threads = parallel::NumThreads();
  parallel::SetNumThreads(8);

  constexpr size_t kElements = 40000;
  constexpr size_t kGrain = 10;
  std::atomic<size_t> processed{0};
  parallel::ParallelFor(
      0, kElements, kGrain,
      [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) {
          ObsSpan outer("stress.outer", "test");
          ObsSpan inner("stress.inner", "test");
          processed.fetch_add(1, std::memory_order_relaxed);
        }
      },
      "obs.stress");
  parallel::SetNumThreads(original_threads);

  EXPECT_EQ(processed.load(), kElements);
  const std::vector<SpanRecord> spans = TraceRecorder::Global().Snapshot();
  const size_t num_chunks = parallel::NumChunks(0, kElements, kGrain);
  ASSERT_EQ(spans.size(), 2 * kElements + num_chunks + 1);

  size_t aggregate = 0, chunk_spans = 0, outer_spans = 0, inner_spans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == "obs.stress.parallel") {
      ++aggregate;
      EXPECT_EQ(span.depth, 0);  // Submitter thread, top level.
    } else if (span.name == "parallel.chunk") {
      ++chunk_spans;
      EXPECT_EQ(span.depth, 0);  // Workers have their own depth counters.
      EXPECT_EQ(span.detail, "obs.stress");
    } else if (span.name == "stress.outer") {
      ++outer_spans;
      EXPECT_EQ(span.depth, 1);  // Nested inside its chunk span.
    } else {
      ++inner_spans;
      EXPECT_EQ(span.depth, 2);  // Per-thread nesting holds under load.
    }
  }
  EXPECT_EQ(aggregate, 1u);
  EXPECT_EQ(chunk_spans, num_chunks);
  EXPECT_EQ(outer_spans, kElements);
  EXPECT_EQ(inner_spans, kElements);

  // The full 84k-span trace still exports as valid Chrome-trace JSON.
  const std::string json = TraceRecorder::Global().ToChromeTraceJson();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(json, &root, &error)) << error;
  EXPECT_EQ(Member(root, "traceEvents").array().size(), spans.size());
}

TEST_F(ObsTest, ChromeTraceJsonParsesBack) {
  {
    ObsSpan outer("phase \"quoted\"\n", "cat");
    ObsSpan inner("child", "cat", "with\\backslash");
  }
  const std::string json = TraceRecorder::Global().ToChromeTraceJson();

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(json, &root, &error)) << error << "\n" << json;
  const JsonValue& events = Member(root, "traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array().size(), 2u);

  for (const JsonValue& event : events.array()) {
    ASSERT_TRUE(event.is_object());
    EXPECT_EQ(Member(event, "ph").string_value(), "X");
    EXPECT_EQ(Member(event, "pid").number_value(), 1.0);
  }

  // The trace checker's reader gives back every field the exporter wrote:
  // escapes survive, and ts/dur are exact to the nanosecond.
  std::vector<SpanRecord> parsed;
  ASSERT_TRUE(ParseChromeTrace(json, &parsed, &error)) << error;
  const std::vector<SpanRecord> recorded = TraceRecorder::Global().Snapshot();
  ASSERT_EQ(parsed.size(), recorded.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].name, recorded[i].name);
    EXPECT_EQ(parsed[i].category, recorded[i].category);
    EXPECT_EQ(parsed[i].detail, recorded[i].detail);
    EXPECT_EQ(parsed[i].thread_id, recorded[i].thread_id);
    EXPECT_EQ(parsed[i].depth, recorded[i].depth);
    EXPECT_EQ(parsed[i].start_ns, recorded[i].start_ns);
    EXPECT_EQ(parsed[i].duration_ns, recorded[i].duration_ns);
  }
}

// ---- Metrics -----------------------------------------------------------

TEST_F(ObsTest, CounterAndGaugeBasics) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test.counter");
  counter.Add(3);
  counter.Increment();
  EXPECT_EQ(counter.value(), 4u);

  // Same name returns the same instance.
  EXPECT_EQ(&counter, &MetricsRegistry::Global().GetCounter("test.counter"));

  Gauge& gauge = MetricsRegistry::Global().GetGauge("test.gauge");
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Set(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);  // Last write wins.
}

TEST_F(ObsTest, MetricsAreNoOpsWhenDisabled) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test.off");
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test.off_gauge");
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("test.off_hist", {1.0});
  SetMetricsEnabled(false);
  counter.Add(10);
  gauge.Set(9.0);
  histogram.Observe(0.5);
  CountPredictCall();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.Snapshot().count, 0u);

  SetMetricsEnabled(true);
  counter.Add(10);
  EXPECT_EQ(counter.value(), 10u);
}

TEST_F(ObsTest, HistogramBucketBoundariesUseLeSemantics) {
  Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "test.hist", {0.1, 1.0, 10.0});

  histogram.Observe(0.05);  // <= 0.1          -> bucket 0
  histogram.Observe(0.1);   // == bound, "le"  -> bucket 0
  histogram.Observe(0.5);   // <= 1.0          -> bucket 1
  histogram.Observe(1.0);   // == bound        -> bucket 1
  histogram.Observe(10.0);  // == last bound   -> bucket 2
  histogram.Observe(50.0);  // above all       -> overflow

  const HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.bounds.size(), 3u);
  ASSERT_EQ(snapshot.buckets.size(), 4u);
  EXPECT_EQ(snapshot.buckets[0], 2u);
  EXPECT_EQ(snapshot.buckets[1], 2u);
  EXPECT_EQ(snapshot.buckets[2], 1u);
  EXPECT_EQ(snapshot.buckets[3], 1u);  // Overflow.
  EXPECT_EQ(snapshot.count, 6u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.05 + 0.1 + 0.5 + 1.0 + 10.0 + 50.0);
}

TEST_F(ObsTest, SnapshotIncludesPredictCallsAndSorts) {
  MetricsRegistry::Global().GetCounter("test.zzz").Add(1);
  MetricsRegistry::Global().GetCounter("test.aaa").Add(2);
  CountPredictCall();
  CountPredictCall();

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  uint64_t predict_calls = 0;
  bool saw_aaa = false, saw_zzz_after_aaa = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "ml.predict_calls") predict_calls = value;
    if (name == "test.aaa") saw_aaa = true;
    if (name == "test.zzz") saw_zzz_after_aaa = saw_aaa;
  }
  EXPECT_EQ(predict_calls, 2u);
  EXPECT_TRUE(saw_zzz_after_aaa);  // Deterministic (sorted) ordering.
}

TEST_F(ObsTest, ResetAllZeroesEverything) {
  MetricsRegistry::Global().GetCounter("test.c").Add(5);
  MetricsRegistry::Global().GetGauge("test.g").Set(5.0);
  MetricsRegistry::Global().GetHistogram("test.h", {1.0}).Observe(0.5);
  CountPredictCall();

  MetricsRegistry::Global().ResetAll();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_DOUBLE_EQ(value, 0.0) << name;
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    EXPECT_EQ(hist.count, 0u) << name;
  }
}

TEST_F(ObsTest, TextAndCsvDumpsContainEveryMetric) {
  MetricsRegistry::Global().GetCounter("test.dump_counter").Add(7);
  MetricsRegistry::Global().GetGauge("test.dump_gauge").Set(3.5);
  MetricsRegistry::Global()
      .GetHistogram("test.dump_hist", {1.0, 2.0})
      .Observe(1.5);

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("test.dump_counter"), std::string::npos);
  EXPECT_NE(text.find("test.dump_gauge"), std::string::npos);
  EXPECT_NE(text.find("test.dump_hist"), std::string::npos);

  const std::string csv = snapshot.ToCsv();
  EXPECT_NE(csv.find("counter,test.dump_counter"), std::string::npos);
  EXPECT_NE(csv.find("gauge,test.dump_gauge"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test.dump_hist"), std::string::npos);
  // One row per histogram bucket (2 finite + overflow) plus count and sum.
  size_t hist_rows = 0;
  size_t pos = 0;
  while ((pos = csv.find("histogram,test.dump_hist", pos)) !=
         std::string::npos) {
    ++hist_rows;
    pos += 1;
  }
  EXPECT_GE(hist_rows, 5u);
}

// ---- Latency percentiles -----------------------------------------------

TEST_F(ObsTest, QuantileOfEmptyHistogramIsZero) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("test.q_empty", {1.0, 2.0});
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(1.0), 0.0);
}

TEST_F(ObsTest, QuantileOfSingleObservationStaysInItsBucket) {
  Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "test.q_single", {1.0, 2.0, 4.0});
  histogram.Observe(1.5);  // The (1, 2] bucket.
  const HistogramSnapshot snapshot = histogram.Snapshot();
  for (const double q : {0.01, 0.5, 0.95, 0.99}) {
    const double value = snapshot.Quantile(q);
    EXPECT_GE(value, 1.0) << "q=" << q;
    EXPECT_LE(value, 2.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snapshot.Quantile(1.0), 2.0);  // Bucket upper bound.
}

TEST_F(ObsTest, QuantileInterpolatesAtBucketBoundaries) {
  Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "test.q_bounds", {1.0, 2.0, 4.0});
  // "le" semantics: observations equal to a bound land in that bound's
  // bucket, so all four sit in (1, 2].
  for (int i = 0; i < 4; ++i) histogram.Observe(2.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.Quantile(1.0), 2.0);
  const double p50 = snapshot.Quantile(0.5);
  const double p95 = snapshot.Quantile(0.95);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p95, 2.0);
  EXPECT_LE(p50, p95);  // Percentiles are monotone in q.
}

TEST_F(ObsTest, QuantileClampsOverflowBucketToLastBound) {
  Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "test.q_overflow", {1.0, 2.0, 4.0});
  histogram.Observe(100.0);  // Above every finite bound.
  histogram.Observe(150.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  // The overflow bucket has no upper bound, so percentiles clamp to the
  // last finite bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.P99(), 4.0);
}

TEST_F(ObsTest, SpanCloseObservesLatencyHistogram) {
  { ObsSpan span("auto.region", "test"); }
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  bool found = false;
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (name != "lat.auto.region") continue;
    found = true;
    EXPECT_EQ(histogram.count, 1u);
    EXPECT_GE(histogram.sum, 0.0);
    EXPECT_EQ(histogram.bounds.size(), LatencyBounds().size());
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, SpanCloseSkipsLatencyHistogramWhenMetricsDisabled) {
  SetMetricsEnabled(false);
  { ObsSpan span("ghost.region", "test"); }
  SetMetricsEnabled(true);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, histogram] : snapshot.histograms) {
    EXPECT_NE(name, "lat.ghost.region");
  }
}

TEST_F(ObsTest, CsvHistogramRowsAreCumulativeWithInfinityLabel) {
  Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("test.cum", {1.0, 2.0});
  histogram.Observe(0.5);  // <= 1
  histogram.Observe(1.5);  // <= 2
  histogram.Observe(9.0);  // Overflow.
  const std::string csv = MetricsRegistry::Global().Snapshot().ToCsv();
  // Bucket rows carry cumulative counts (le semantics), and the overflow
  // row is labeled +Inf and equals the total count.
  EXPECT_NE(csv.find("histogram,test.cum,count,3\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("histogram,test.cum,le=1,1\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("histogram,test.cum,le=2,2\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("histogram,test.cum,le=+Inf,3\n"), std::string::npos)
      << csv;
}

TEST_F(ObsTest, HistogramBoundsFixedByFirstRegistration) {
  Histogram& first =
      MetricsRegistry::Global().GetHistogram("test.fixed", {1.0, 2.0});
  Histogram& second =
      MetricsRegistry::Global().GetHistogram("test.fixed", {5.0});
  EXPECT_EQ(&first, &second);
  ASSERT_EQ(second.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(second.bounds()[0], 1.0);
}

// getrusage reports ru_maxrss in KiB on Linux but bytes on macOS; the
// normalization lives in exactly one place and must produce bytes on every
// platform (a 3 GiB process must never read as 3 MiB, nor 8 MiB as 8 GiB).
TEST(PeakRssTest, RuMaxRssNormalizesToBytesPerPlatform) {
#if defined(__APPLE__)
  EXPECT_EQ(detail::RuMaxRssToBytes(8 * 1024 * 1024), 8u * 1024 * 1024);
#else
  EXPECT_EQ(detail::RuMaxRssToBytes(8 * 1024), 8u * 1024 * 1024);
#endif
  EXPECT_EQ(detail::RuMaxRssToBytes(0), 0u);
  EXPECT_EQ(detail::RuMaxRssToBytes(-1), 0u);
  // Whatever source PeakRssBytes used, a running test binary is at least
  // 1 MiB resident — a KiB-vs-bytes mixup would fail this on one side.
  EXPECT_GE(PeakRssBytes(), 1024u * 1024u);
}

}  // namespace
}  // namespace obs
}  // namespace alem
