#include "obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace alem {
namespace obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
std::atomic<bool> g_metrics_enabled{false};
std::atomic<uint64_t> g_predict_calls{0};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point TraceEpoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

// Per-thread span nesting depth and compact thread id.
thread_local int t_span_depth = 0;

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next_id{0};
  thread_local const uint32_t id = next_id.fetch_add(1);
  return id;
}

// JSON string escaping for the small identifier strings we emit.
void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

// One span as a Chrome trace-event "complete" ("X") object.
void AppendChromeEvent(std::string* out, const SpanRecord& record) {
  char buf[64];
  out->append("{\"name\":\"");
  AppendJsonEscaped(out, record.name);
  out->append("\",\"cat\":\"");
  AppendJsonEscaped(out, record.category.empty() ? std::string_view("alem")
                                                 : record.category);
  out->append("\",\"ph\":\"X\",\"ts\":");
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(record.start_ns) / 1e3);
  out->append(buf);
  out->append(",\"dur\":");
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(record.duration_ns) / 1e3);
  out->append(buf);
  std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u",
                record.thread_id);
  out->append(buf);
  out->append(",\"args\":{\"depth\":");
  std::snprintf(buf, sizeof(buf), "%d", record.depth);
  out->append(buf);
  if (!record.detail.empty()) {
    out->append(",\"detail\":\"");
    AppendJsonEscaped(out, record.detail);
    out->append("\"");
  }
  out->append("}}");
}

bool WriteStringToFile(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) return false;
  file.write(content.data(), static_cast<std::streamsize>(content.size()));
  return file.good();
}

}  // namespace

void SetTracingEnabled(bool enabled) {
  if (enabled) TraceEpoch();  // Pin the epoch before the first span.
  detail::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           TraceEpoch())
          .count());
}

uint64_t PeakRssBytes() {
#if defined(__linux__)
  // VmHWM ("high water mark") is the kernel's own peak-RSS accounting.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const uint64_t kib =
          std::strtoull(line.c_str() + 6, nullptr, 10);  // "VmHWM:  123 kB"
      if (kib > 0) return kib * 1024;
      break;
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    const uint64_t bytes = detail::RuMaxRssToBytes(usage.ru_maxrss);
    if (bytes > 0) return bytes;
  }
#endif
  return 0;
}

namespace detail {

uint64_t RuMaxRssToBytes(long ru_maxrss) {
  if (ru_maxrss <= 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(ru_maxrss);  // Bytes on macOS.
#else
  return static_cast<uint64_t>(ru_maxrss) * 1024;  // KiB elsewhere.
#endif
}

}  // namespace detail

// ---- Histogram --------------------------------------------------------

const std::vector<double>& LatencyBounds() {
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>();
    // 1µs .. 100s, four log-spaced buckets per decade (33 finite bounds).
    for (int k = 0; k <= 32; ++k) {
      b->push_back(std::pow(10.0, -6.0 + static_cast<double>(k) / 4.0));
    }
    return b;
  }();
  return *bounds;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= rank) {
      if (i >= bounds.size()) {
        // Overflow bucket has no upper bound; clamp to the last finite one.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double fraction =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[i]);
      return lower + (bounds[i] - lower) * fraction;
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double v) {
  if (!MetricsEnabled()) return;
  // "le" semantics: bucket i counts v <= bounds[i], so v lands in the
  // first bucket whose bound is >= v (lower_bound).
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.buckets.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    snapshot.buckets.push_back(bucket.load(std::memory_order_relaxed));
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---- MetricsSnapshot --------------------------------------------------

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char buf[160];
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "%-32s %" PRIu64 "\n", name.c_str(),
                  value);
    out.append(buf);
  }
  for (const auto& [name, value] : gauges) {
    std::snprintf(buf, sizeof(buf), "%-32s %.6f\n", name.c_str(), value);
    out.append(buf);
  }
  for (const auto& [name, histogram] : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-32s count=%" PRIu64 " sum=%.6f p50=%.6g p95=%.6g "
                  "p99=%.6g\n",
                  name.c_str(), histogram.count, histogram.sum,
                  histogram.P50(), histogram.P95(), histogram.P99());
    out.append(buf);
    // Cumulative counts ("le" semantics all the way up): the +Inf row
    // always equals the total count.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      cumulative += histogram.buckets[i];
      if (i >= histogram.bounds.size()) {
        std::snprintf(buf, sizeof(buf), "  le=+Inf %" PRIu64 "\n",
                      cumulative);
      } else {
        std::snprintf(buf, sizeof(buf), "  le=%g %" PRIu64 "\n",
                      histogram.bounds[i], cumulative);
      }
      out.append(buf);
    }
  }
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "kind,name,field,value\n";
  char buf[160];
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "counter,%s,value,%" PRIu64 "\n",
                  name.c_str(), value);
    out.append(buf);
  }
  for (const auto& [name, value] : gauges) {
    std::snprintf(buf, sizeof(buf), "gauge,%s,value,%.9g\n", name.c_str(),
                  value);
    out.append(buf);
  }
  for (const auto& [name, histogram] : histograms) {
    std::snprintf(buf, sizeof(buf), "histogram,%s,count,%" PRIu64 "\n",
                  name.c_str(), histogram.count);
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "histogram,%s,sum,%.9g\n", name.c_str(),
                  histogram.sum);
    out.append(buf);
    // Rows are cumulative ("le" means at-or-below), and the overflow row is
    // labeled +Inf explicitly, so a parser can treat every bucket row
    // uniformly: the le=+Inf row equals the count row by construction.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      cumulative += histogram.buckets[i];
      if (i >= histogram.bounds.size()) {
        std::snprintf(buf, sizeof(buf), "histogram,%s,le=+Inf,%" PRIu64 "\n",
                      name.c_str(), cumulative);
      } else {
        std::snprintf(buf, sizeof(buf), "histogram,%s,le=%g,%" PRIu64 "\n",
                      name.c_str(), histogram.bounds[i], cumulative);
      }
      out.append(buf);
    }
  }
  return out;
}

// ---- MetricsRegistry --------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.counters.emplace_back(
      "ml.predict_calls",
      detail::g_predict_calls.load(std::memory_order_relaxed));
  std::sort(snapshot.counters.begin(), snapshot.counters.end());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
  detail::g_predict_calls.store(0, std::memory_order_relaxed);
}

bool MetricsRegistry::WriteCsv(const std::string& path) const {
  return WriteStringToFile(path, Snapshot().ToCsv());
}

// ---- TraceRecorder ----------------------------------------------------

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
}

std::string TraceRecorder::ToChromeTraceJson() const {
  const std::vector<SpanRecord> records = Snapshot();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('\n');
    AppendChromeEvent(&out, records[i]);
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  return WriteStringToFile(path, ToChromeTraceJson());
}

// ---- ObsSpan ----------------------------------------------------------

ObsSpan::ObsSpan(std::string_view name, std::string_view category,
                 std::string_view detail)
    : name_(name),
      category_(category),
      detail_(detail),
      start_ns_(TraceNowNanos()),
      depth_(t_span_depth++) {}

ObsSpan::~ObsSpan() { Close(); }

double ObsSpan::Close() {
  if (open_) {
    open_ = false;
    --t_span_depth;
    duration_ns_ = TraceNowNanos() - start_ns_;
    if (TracingEnabled()) {
      SpanRecord record;
      record.name = name_;
      record.category = category_;
      record.detail = detail_;
      record.thread_id = ThisThreadId();
      record.depth = depth_;
      record.start_ns = start_ns_;
      record.duration_ns = duration_ns_;
      TraceRecorder::Global().Record(std::move(record));
    }
    if (MetricsEnabled()) {
      // Every named region gets a tail-latency histogram for free; the
      // registry returns a stable reference, so repeated closes of the
      // same region name share one histogram.
      MetricsRegistry::Global()
          .GetHistogram("lat." + name_, LatencyBounds())
          .Observe(static_cast<double>(duration_ns_) / 1e9);
    }
  }
  return static_cast<double>(duration_ns_) / 1e9;
}

double ObsSpan::ElapsedSeconds() const {
  if (!open_) return static_cast<double>(duration_ns_) / 1e9;
  return static_cast<double>(TraceNowNanos() - start_ns_) / 1e9;
}

}  // namespace obs
}  // namespace alem
