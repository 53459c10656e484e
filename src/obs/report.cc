#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "util/json.h"

// Injected by src/obs/CMakeLists.txt from `git describe` at configure time.
#ifndef ALEM_GIT_SHA
#define ALEM_GIT_SHA "unknown"
#endif

namespace alem {
namespace obs {

const char* BuildStamp() { return ALEM_GIT_SHA; }

uint64_t RunReport::CounterOr(std::string_view name, uint64_t missing) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return missing;
}

// ---- Span rollup ------------------------------------------------------

std::vector<SpanRollupEntry> SelfTimeRollup(
    const std::vector<SpanRecord>& records) {
  // Index records per thread, sorted so parents precede their children
  // (earlier start; on ties the longer span is the parent).
  struct Indexed {
    const SpanRecord* record;
    uint64_t self_ns;
  };
  std::vector<std::vector<Indexed>> per_thread;
  for (const SpanRecord& record : records) {
    if (record.thread_id >= per_thread.size()) {
      per_thread.resize(record.thread_id + 1);
    }
    per_thread[record.thread_id].push_back({&record, record.duration_ns});
  }

  std::vector<SpanRollupEntry> rollup;
  auto find = [&rollup](const std::string& name) -> SpanRollupEntry& {
    for (SpanRollupEntry& entry : rollup) {
      if (entry.name == name) return entry;
    }
    rollup.push_back(SpanRollupEntry{name, 0, 0.0, 0.0});
    return rollup.back();
  };

  for (std::vector<Indexed>& thread_records : per_thread) {
    std::sort(thread_records.begin(), thread_records.end(),
              [](const Indexed& a, const Indexed& b) {
                if (a.record->start_ns != b.record->start_ns) {
                  return a.record->start_ns < b.record->start_ns;
                }
                return a.record->duration_ns > b.record->duration_ns;
              });
    // Stack of (end_ns, index) open ancestors; each span subtracts its
    // duration from the nearest enclosing span's self time.
    std::vector<std::pair<uint64_t, size_t>> stack;
    for (size_t i = 0; i < thread_records.size(); ++i) {
      const SpanRecord& record = *thread_records[i].record;
      while (!stack.empty() && stack.back().first <= record.start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        Indexed& parent = thread_records[stack.back().second];
        parent.self_ns -= std::min(parent.self_ns, record.duration_ns);
      }
      stack.emplace_back(record.start_ns + record.duration_ns, i);
    }
    for (const Indexed& indexed : thread_records) {
      SpanRollupEntry& entry = find(indexed.record->name);
      entry.count += 1;
      entry.total_seconds +=
          static_cast<double>(indexed.record->duration_ns) / 1e9;
      entry.self_seconds += static_cast<double>(indexed.self_ns) / 1e9;
    }
  }
  std::sort(rollup.begin(), rollup.end(),
            [](const SpanRollupEntry& a, const SpanRollupEntry& b) {
              if (a.self_seconds != b.self_seconds) {
                return a.self_seconds > b.self_seconds;
              }
              return a.name < b.name;
            });
  return rollup;
}

void StampObservability(RunReport* report) {
  report->build = BuildStamp();
  const uint64_t rss = PeakRssBytes();
  report->peak_rss_bytes = rss;
  MetricsRegistry::Global()
      .GetGauge("process.peak_rss_bytes")
      .Set(static_cast<double>(rss));
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  report->counters = snapshot.counters;
  report->gauges = snapshot.gauges;
  report->spans = SelfTimeRollup(TraceRecorder::Global().Snapshot());
  // Per-region tail latency from the auto-observed lat.<region> histograms
  // (map iteration keeps the entries sorted by region name).
  report->latency.clear();
  for (const auto& [name, histogram] : snapshot.histograms) {
    constexpr std::string_view kPrefix = "lat.";
    if (name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        histogram.count == 0) {
      continue;
    }
    LatencyEntry entry;
    entry.name = name.substr(kPrefix.size());
    entry.count = histogram.count;
    entry.sum_seconds = histogram.sum;
    entry.p50_seconds = histogram.P50();
    entry.p95_seconds = histogram.P95();
    entry.p99_seconds = histogram.P99();
    report->latency.push_back(std::move(entry));
  }
}

// ---- Serialization ----------------------------------------------------

namespace {

void AppendIteration(std::string* out, const ReportIteration& it) {
  out->append("    {\"iteration\":");
  AppendJsonUint(out, it.iteration);
  out->append(",\"labels_used\":");
  AppendJsonUint(out, it.labels_used);
  out->append(",\"precision\":");
  AppendJsonDouble(out, it.precision);
  out->append(",\"recall\":");
  AppendJsonDouble(out, it.recall);
  out->append(",\"f1\":");
  AppendJsonDouble(out, it.f1);
  out->append(",\"train_seconds\":");
  AppendJsonDouble(out, it.train_seconds);
  out->append(",\"evaluate_seconds\":");
  AppendJsonDouble(out, it.evaluate_seconds);
  out->append(",\"select_seconds\":");
  AppendJsonDouble(out, it.select_seconds);
  out->append(",\"committee_seconds\":");
  AppendJsonDouble(out, it.committee_seconds);
  out->append(",\"scoring_seconds\":");
  AppendJsonDouble(out, it.scoring_seconds);
  out->append(",\"label_seconds\":");
  AppendJsonDouble(out, it.label_seconds);
  out->append(",\"wait_seconds\":");
  AppendJsonDouble(out, it.wait_seconds);
  out->append(",\"scored_examples\":");
  AppendJsonUint(out, it.scored_examples);
  out->append(",\"pruned_examples\":");
  AppendJsonUint(out, it.pruned_examples);
  out->append(",\"dnf_atoms\":");
  AppendJsonUint(out, it.dnf_atoms);
  out->append(",\"tree_depth\":");
  out->append(std::to_string(it.tree_depth));
  out->append(",\"ensemble_size\":");
  AppendJsonUint(out, it.ensemble_size);
  out->append("}");
}

}  // namespace

std::string ReportToJson(const RunReport& report) {
  std::string out;
  out.reserve(4096 + report.curve.size() * 384);
  out.append("{\n  \"schema_version\": ");
  out.append(std::to_string(report.schema_version));
  out.append(",\n  \"kind\": ");
  AppendJsonString(&out, report.kind);
  out.append(",\n  \"tool\": ");
  AppendJsonString(&out, report.tool);
  out.append(",\n  \"build\": ");
  AppendJsonString(&out, report.build);

  out.append(",\n  \"config\": {\"dataset\": ");
  AppendJsonString(&out, report.dataset);
  out.append(", \"approach\": ");
  AppendJsonString(&out, report.approach);
  out.append(", \"data_seed\": ");
  AppendJsonUint(&out, report.data_seed);
  out.append(", \"run_seed\": ");
  AppendJsonUint(&out, report.run_seed);
  out.append(", \"scale\": ");
  AppendJsonDouble(&out, report.scale);
  out.append(", \"threads\": ");
  out.append(std::to_string(report.threads));
  out.append(", \"seed_size\": ");
  AppendJsonUint(&out, report.seed_size);
  out.append(", \"batch_size\": ");
  AppendJsonUint(&out, report.batch_size);
  out.append(", \"max_labels\": ");
  AppendJsonUint(&out, report.max_labels);
  out.append(", \"oracle_noise\": ");
  AppendJsonDouble(&out, report.oracle_noise);
  out.append(", \"holdout\": ");
  out.append(report.holdout ? "true" : "false");
  out.append(", \"cache\": ");
  AppendJsonString(&out, report.cache);
  out.append(", \"kernel_backend\": ");
  AppendJsonString(&out, report.kernel_backend);
  out.append(", \"session\": ");
  AppendJsonString(&out, report.session);
  out.append(", \"session_resumes\": ");
  AppendJsonUint(&out, report.session_resumes);
  out.append(", \"warm_start\": ");
  AppendJsonString(&out, report.warm_start);
  out.append("}");

  if (report.kind == "run" || !report.curve.empty()) {
    out.append(",\n  \"curve\": [\n");
    for (size_t i = 0; i < report.curve.size(); ++i) {
      if (i > 0) out.append(",\n");
      AppendIteration(&out, report.curve[i]);
    }
    out.append("\n  ],\n  \"summary\": {\"iterations\": ");
    AppendJsonUint(&out, report.curve.size());
    out.append(", \"best_f1\": ");
    AppendJsonDouble(&out, report.best_f1);
    out.append(", \"final_f1\": ");
    AppendJsonDouble(&out, report.final_f1);
    out.append(", \"labels_to_converge\": ");
    AppendJsonUint(&out, report.labels_to_converge);
    out.append(", \"total_wait_seconds\": ");
    AppendJsonDouble(&out, report.total_wait_seconds);
    out.append(", \"ensemble_accepted\": ");
    AppendJsonUint(&out, report.ensemble_accepted);
    out.append("}");
  }

  out.append(",\n  \"counters\": {");
  for (size_t i = 0; i < report.counters.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendJsonString(&out, report.counters[i].first);
    out.append(": ");
    AppendJsonUint(&out, report.counters[i].second);
  }
  out.append("},\n  \"gauges\": {");
  for (size_t i = 0; i < report.gauges.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendJsonString(&out, report.gauges[i].first);
    out.append(": ");
    AppendJsonDouble(&out, report.gauges[i].second);
  }
  out.append("}");
  if (!report.latency.empty()) {
    out.append(",\n  \"latency\": [\n");
    for (size_t i = 0; i < report.latency.size(); ++i) {
      const LatencyEntry& entry = report.latency[i];
      if (i > 0) out.append(",\n");
      out.append("    {\"name\": ");
      AppendJsonString(&out, entry.name);
      out.append(", \"count\": ");
      AppendJsonUint(&out, entry.count);
      out.append(", \"sum_seconds\": ");
      AppendJsonDouble(&out, entry.sum_seconds);
      out.append(", \"p50_seconds\": ");
      AppendJsonDouble(&out, entry.p50_seconds);
      out.append(", \"p95_seconds\": ");
      AppendJsonDouble(&out, entry.p95_seconds);
      out.append(", \"p99_seconds\": ");
      AppendJsonDouble(&out, entry.p99_seconds);
      out.append("}");
    }
    out.append("\n  ]");
  }
  out.append(",\n  \"spans\": [\n");
  for (size_t i = 0; i < report.spans.size(); ++i) {
    const SpanRollupEntry& entry = report.spans[i];
    if (i > 0) out.append(",\n");
    out.append("    {\"name\": ");
    AppendJsonString(&out, entry.name);
    out.append(", \"count\": ");
    AppendJsonUint(&out, entry.count);
    out.append(", \"total_seconds\": ");
    AppendJsonDouble(&out, entry.total_seconds);
    out.append(", \"self_seconds\": ");
    AppendJsonDouble(&out, entry.self_seconds);
    out.append("}");
  }
  out.append("\n  ]");
  if (report.has_pool) {
    out.append(",\n  \"pool\": {\"workers\": ");
    out.append(std::to_string(report.pool.workers));
    out.append(", \"busy_seconds\": ");
    AppendJsonDouble(&out, report.pool.busy_seconds);
    out.append(", \"idle_seconds\": ");
    AppendJsonDouble(&out, report.pool.idle_seconds);
    out.append(", \"queue_wait_seconds\": ");
    AppendJsonDouble(&out, report.pool.queue_wait_seconds);
    out.append(", \"worker_wall_seconds\": ");
    AppendJsonDouble(&out, report.pool.worker_wall_seconds);
    out.append(", \"utilization\": ");
    AppendJsonDouble(&out, report.pool.utilization);
    out.append(", \"regions\": [");
    for (size_t i = 0; i < report.pool.regions.size(); ++i) {
      const PoolRegionStats& region = report.pool.regions[i];
      if (i > 0) out.append(",");
      out.append("\n    {\"name\": ");
      AppendJsonString(&out, region.name);
      out.append(", \"runs\": ");
      AppendJsonUint(&out, region.runs);
      out.append(", \"chunks\": ");
      AppendJsonUint(&out, region.chunks);
      out.append(", \"min_chunk_seconds\": ");
      AppendJsonDouble(&out, region.min_chunk_seconds);
      out.append(", \"max_chunk_seconds\": ");
      AppendJsonDouble(&out, region.max_chunk_seconds);
      out.append(", \"mean_chunk_seconds\": ");
      AppendJsonDouble(&out, region.mean_chunk_seconds);
      out.append(", \"utilization\": ");
      AppendJsonDouble(&out, region.utilization);
      out.append("}");
    }
    if (!report.pool.regions.empty()) out.append("\n  ");
    out.append("]}");
  }
  out.append(",\n  \"process\": {\"wall_seconds\": ");
  AppendJsonDouble(&out, report.wall_seconds);
  out.append(", \"peak_rss_bytes\": ");
  AppendJsonUint(&out, report.peak_rss_bytes);
  out.append("}\n}\n");
  return out;
}

// ---- Parsing ----------------------------------------------------------

namespace {

// Every absent required field and every present field of the wrong type or
// range is listed, so one error message names all bad fields at once.
struct SchemaErrors {
  std::string missing;
  std::string invalid;

  static void Append(std::string* list, const std::string& item) {
    if (!list->empty()) list->append(", ");
    list->append(item);
  }
  void Missing(const std::string& field) { Append(&missing, field); }
  void Invalid(const std::string& field, const char* expected) {
    Append(&invalid, field + " (expected " + expected + ")");
  }
  std::string Message() const {
    std::string message;
    if (!missing.empty()) message = "missing required fields: " + missing;
    if (!invalid.empty()) {
      if (!message.empty()) message.append("; ");
      message.append("invalid fields: " + invalid);
    }
    return message;
  }
};

const char* KindName(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kBool: return "a boolean";
    case JsonValue::Kind::kNumber: return "a number";
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kArray: return "an array";
    case JsonValue::Kind::kObject: return "an object";
    case JsonValue::Kind::kNull: break;
  }
  return "null";
}

// An unsigned field's value: a JSON number that is a non-negative integer
// below 2^64; anything else is recorded as invalid and reads as 0.
uint64_t ToUint(const JsonValue& value, const std::string& field,
                SchemaErrors* errors) {
  const double v = value.is_number() ? value.number_value() : -1.0;
  if (!(v >= 0.0 && v < 18446744073709551616.0 && std::floor(v) == v)) {
    errors->Invalid(field, "a non-negative integer");
    return 0;
  }
  return static_cast<uint64_t>(v);
}

// Typed member access on one JSON object; `context` prefixes field names
// in error messages ("config.", "spans[3].").
struct FieldReader {
  const JsonValue& object;
  SchemaErrors* errors;
  std::string context;

  // The member `key`; nullptr (recorded when required) if absent.
  const JsonValue* Find(const char* key, bool required) const {
    const JsonValue* value = object.Find(key);
    if (value == nullptr && required) errors->Missing(context + key);
    return value;
  }
  // The member `key` if it has `kind`; a member of another kind is
  // recorded as invalid and reads as absent.
  const JsonValue* Get(const char* key, JsonValue::Kind kind,
                       bool required = true) const {
    const JsonValue* value = Find(key, required);
    if (value != nullptr && value->kind() != kind) {
      errors->Invalid(context + key, KindName(kind));
      return nullptr;
    }
    return value;
  }
  std::string String(const char* key, bool required = true) const {
    const JsonValue* v = Get(key, JsonValue::Kind::kString, required);
    return v != nullptr ? v->string_value() : "";
  }
  double Number(const char* key) const {
    const JsonValue* v = Get(key, JsonValue::Kind::kNumber);
    return v != nullptr ? v->number_value() : 0.0;
  }
  uint64_t Uint(const char* key, bool required = true) const {
    const JsonValue* v = Find(key, required);
    return v != nullptr ? ToUint(*v, context + key, errors) : 0;
  }
  // An unsigned field held in an int.
  int Int(const char* key) const {
    const uint64_t v = Uint(key);
    if (v > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      errors->Invalid(context + key, "an integer below 2^31");
      return 0;
    }
    return static_cast<int>(v);
  }
  bool Bool(const char* key) const {
    const JsonValue* v = Get(key, JsonValue::Kind::kBool);
    return v != nullptr && v->bool_value();
  }
};

// Calls `read` with a reader over each element of `array` (nullptr = the
// array is absent); a non-object element is recorded as invalid.
template <typename ReadFn>
void ForEachObject(const JsonValue* array, const std::string& name,
                   SchemaErrors* errors, ReadFn read) {
  if (array == nullptr) return;
  for (size_t i = 0; i < array->array().size(); ++i) {
    const std::string element = name + "[" + std::to_string(i) + "]";
    if (!array->array()[i].is_object()) {
      errors->Invalid(element, "an object");
      continue;
    }
    read(FieldReader{array->array()[i], errors, element + "."});
  }
}

ReportIteration ParseIteration(const FieldReader& reader) {
  ReportIteration it;
  it.iteration = reader.Uint("iteration");
  it.labels_used = reader.Uint("labels_used");
  it.precision = reader.Number("precision");
  it.recall = reader.Number("recall");
  it.f1 = reader.Number("f1");
  it.train_seconds = reader.Number("train_seconds");
  it.evaluate_seconds = reader.Number("evaluate_seconds");
  it.select_seconds = reader.Number("select_seconds");
  it.committee_seconds = reader.Number("committee_seconds");
  it.scoring_seconds = reader.Number("scoring_seconds");
  it.label_seconds = reader.Number("label_seconds");
  it.wait_seconds = reader.Number("wait_seconds");
  it.scored_examples = reader.Uint("scored_examples");
  it.pruned_examples = reader.Uint("pruned_examples");
  it.dnf_atoms = reader.Uint("dnf_atoms");
  it.tree_depth = reader.Int("tree_depth");
  it.ensemble_size = reader.Uint("ensemble_size");
  return it;
}

}  // namespace

bool ParseReportJson(std::string_view text, RunReport* report,
                     std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!JsonValue::Parse(text, &root, &parse_error)) {
    return fail("malformed JSON: " + parse_error);
  }
  if (!root.is_object()) return fail("report root is not an object");

  using Kind = JsonValue::Kind;
  SchemaErrors errors;
  const FieldReader top{root, &errors, ""};
  RunReport parsed;
  parsed.schema_version = top.Int("schema_version");
  parsed.kind = top.String("kind");
  parsed.tool = top.String("tool");
  parsed.build = top.String("build");

  if (const JsonValue* config = top.Get("config", Kind::kObject)) {
    const FieldReader cfg{*config, &errors, "config."};
    parsed.dataset = cfg.String("dataset");
    parsed.approach = cfg.String("approach");
    parsed.data_seed = cfg.Uint("data_seed");
    parsed.run_seed = cfg.Uint("run_seed");
    parsed.scale = cfg.Number("scale");
    parsed.threads = cfg.Int("threads");
    parsed.seed_size = cfg.Uint("seed_size");
    parsed.batch_size = cfg.Uint("batch_size");
    parsed.max_labels = cfg.Uint("max_labels");
    parsed.oracle_noise = cfg.Number("oracle_noise");
    parsed.holdout = cfg.Bool("holdout");
    const std::string cache = cfg.String("cache", /*required=*/false);
    if (!cache.empty()) parsed.cache = cache;
    const std::string kernel_backend =
        cfg.String("kernel_backend", /*required=*/false);
    if (!kernel_backend.empty()) parsed.kernel_backend = kernel_backend;
    const std::string session = cfg.String("session", /*required=*/false);
    if (!session.empty()) parsed.session = session;
    parsed.session_resumes = cfg.Uint("session_resumes", /*required=*/false);
    const std::string warm_start = cfg.String("warm_start", /*required=*/false);
    if (!warm_start.empty()) parsed.warm_start = warm_start;
  }

  const bool is_run = parsed.kind == "run";
  ForEachObject(top.Get("curve", Kind::kArray, is_run), "curve", &errors,
                [&parsed](const FieldReader& point) {
                  parsed.curve.push_back(ParseIteration(point));
                });
  const JsonValue* summary = top.Get("summary", Kind::kObject, is_run);
  uint64_t iterations = 0;
  if (summary != nullptr) {
    const FieldReader sum{*summary, &errors, "summary."};
    iterations = sum.Uint("iterations");
    parsed.best_f1 = sum.Number("best_f1");
    parsed.final_f1 = sum.Number("final_f1");
    parsed.labels_to_converge = sum.Uint("labels_to_converge");
    parsed.total_wait_seconds = sum.Number("total_wait_seconds");
    parsed.ensemble_accepted = sum.Uint("ensemble_accepted");
  }

  if (const JsonValue* counters = top.Get("counters", Kind::kObject)) {
    for (const auto& [name, value] : counters->object()) {
      parsed.counters.emplace_back(name,
                                   ToUint(value, "counters." + name, &errors));
    }
  }
  if (const JsonValue* gauges = top.Get("gauges", Kind::kObject)) {
    for (const auto& [name, value] : gauges->object()) {
      if (!value.is_number()) errors.Invalid("gauges." + name, "a number");
      parsed.gauges.emplace_back(name, value.number_value());
    }
  }
  ForEachObject(top.Get("spans", Kind::kArray), "spans", &errors,
                [&parsed](const FieldReader& span) {
                  SpanRollupEntry entry;
                  entry.name = span.String("name");
                  entry.count = span.Uint("count");
                  entry.total_seconds = span.Number("total_seconds");
                  entry.self_seconds = span.Number("self_seconds");
                  parsed.spans.push_back(std::move(entry));
                });
  // Optional sections (older reports stay loadable).
  ForEachObject(top.Get("latency", Kind::kArray, /*required=*/false),
                "latency", &errors, [&parsed](const FieldReader& lat) {
                  LatencyEntry entry;
                  entry.name = lat.String("name");
                  entry.count = lat.Uint("count");
                  entry.sum_seconds = lat.Number("sum_seconds");
                  entry.p50_seconds = lat.Number("p50_seconds");
                  entry.p95_seconds = lat.Number("p95_seconds");
                  entry.p99_seconds = lat.Number("p99_seconds");
                  parsed.latency.push_back(std::move(entry));
                });
  if (const JsonValue* pool =
          top.Get("pool", Kind::kObject, /*required=*/false)) {
    parsed.has_pool = true;
    const FieldReader p{*pool, &errors, "pool."};
    parsed.pool.workers = p.Int("workers");
    parsed.pool.busy_seconds = p.Number("busy_seconds");
    parsed.pool.idle_seconds = p.Number("idle_seconds");
    parsed.pool.queue_wait_seconds = p.Number("queue_wait_seconds");
    parsed.pool.worker_wall_seconds = p.Number("worker_wall_seconds");
    parsed.pool.utilization = p.Number("utilization");
    ForEachObject(p.Get("regions", Kind::kArray), "pool.regions", &errors,
                  [&parsed](const FieldReader& reg) {
                    PoolRegionStats region;
                    region.name = reg.String("name");
                    region.runs = reg.Uint("runs");
                    region.chunks = reg.Uint("chunks");
                    region.min_chunk_seconds = reg.Number("min_chunk_seconds");
                    region.max_chunk_seconds = reg.Number("max_chunk_seconds");
                    region.mean_chunk_seconds =
                        reg.Number("mean_chunk_seconds");
                    region.utilization = reg.Number("utilization");
                    parsed.pool.regions.push_back(std::move(region));
                  });
  }
  if (const JsonValue* process = top.Get("process", Kind::kObject)) {
    const FieldReader proc{*process, &errors, "process."};
    parsed.wall_seconds = proc.Number("wall_seconds");
    parsed.peak_rss_bytes = proc.Uint("peak_rss_bytes");
  }

  if (!errors.missing.empty() || !errors.invalid.empty()) {
    return fail(errors.Message());
  }
  if (parsed.schema_version != kReportSchemaVersion) {
    return fail("unsupported schema_version " +
                std::to_string(parsed.schema_version) + " (expected " +
                std::to_string(kReportSchemaVersion) + ")");
  }
  if (parsed.kind != "run" && parsed.kind != "bench") {
    return fail("unknown report kind '" + parsed.kind + "'");
  }
  if (is_run && parsed.curve.empty()) {
    return fail("run report has an empty curve");
  }
  if (summary != nullptr && iterations != parsed.curve.size()) {
    return fail("summary.iterations " + std::to_string(iterations) +
                " does not match the curve's " +
                std::to_string(parsed.curve.size()) + " points");
  }
  *report = std::move(parsed);
  return true;
}

bool WriteReportJson(const std::string& path, const RunReport& report) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) return false;
  const std::string json = ReportToJson(report);
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  return file.good();
}

bool LoadReportFile(const std::string& path, RunReport* report,
                    std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream content;
  content << file.rdbuf();
  return ParseReportJson(content.str(), report, error);
}

// ---- Regression gate --------------------------------------------------

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// "name baseline/candidate" when a curve field differs, else "". Doubles
// print all 17 digits so a one-ulp divergence is visible.
template <typename T>
std::string FieldDifference(const char* name, T baseline, T candidate) {
  if (baseline == candidate) return "";
  auto format = [](T v) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    } else {
      return std::to_string(v);
    }
  };
  return std::string(name) + " " + format(baseline) + "/" + format(candidate);
}

// The first deterministic field in which two curve points differ.
std::string CurvePointDifference(const ReportIteration& a,
                                 const ReportIteration& b) {
  for (std::string difference :
       {FieldDifference("iteration", a.iteration, b.iteration),
        FieldDifference("labels_used", a.labels_used, b.labels_used),
        FieldDifference("precision", a.precision, b.precision),
        FieldDifference("recall", a.recall, b.recall),
        FieldDifference("f1", a.f1, b.f1),
        FieldDifference("scored_examples", a.scored_examples,
                        b.scored_examples),
        FieldDifference("pruned_examples", a.pruned_examples,
                        b.pruned_examples),
        FieldDifference("dnf_atoms", a.dnf_atoms, b.dnf_atoms),
        FieldDifference("tree_depth", a.tree_depth, b.tree_depth),
        FieldDifference("ensemble_size", a.ensemble_size,
                        b.ensemble_size)}) {
    if (!difference.empty()) return difference;
  }
  return "";
}

void CheckLatency(const char* what, double baseline, double candidate,
                  double tolerance, std::vector<std::string>* failures) {
  // Relative tolerance with a 10ms absolute grace so micro-runs do not
  // fail on scheduler jitter.
  const double limit = baseline * (1.0 + tolerance) + 0.010;
  if (candidate > limit) {
    failures->push_back(std::string(what) + " regressed: " +
                        FormatDouble(candidate) + "s vs baseline " +
                        FormatDouble(baseline) + "s (limit " +
                        FormatDouble(limit) + "s)");
  }
}

}  // namespace

std::vector<std::string> CheckReports(const RunReport& baseline,
                                      const RunReport& candidate,
                                      const ReportCheckOptions& options) {
  std::vector<std::string> failures;
  if (baseline.kind != candidate.kind) {
    failures.push_back("kind mismatch: baseline '" + baseline.kind +
                       "' vs candidate '" + candidate.kind + "'");
    return failures;
  }

  if (options.exact_curve) {
    if (baseline.curve.size() != candidate.curve.size()) {
      failures.push_back(
          "curve length differs: " + std::to_string(baseline.curve.size()) +
          " vs " + std::to_string(candidate.curve.size()));
    } else {
      for (size_t i = 0; i < baseline.curve.size(); ++i) {
        const std::string difference =
            CurvePointDifference(baseline.curve[i], candidate.curve[i]);
        if (!difference.empty()) {
          failures.push_back("curve diverges at iteration " +
                             std::to_string(i + 1) + ": " + difference);
          break;
        }
      }
    }
  }

  if (baseline.kind == "run") {
    if (candidate.final_f1 < baseline.final_f1 - options.f1_tol) {
      failures.push_back(
          "final F1 regressed: " + FormatDouble(candidate.final_f1) +
          " vs baseline " + FormatDouble(baseline.final_f1) + " (tolerance " +
          FormatDouble(options.f1_tol) + ")");
    }
    if (candidate.best_f1 < baseline.best_f1 - options.f1_tol) {
      failures.push_back(
          "best F1 regressed: " + FormatDouble(candidate.best_f1) +
          " vs baseline " + FormatDouble(baseline.best_f1) + " (tolerance " +
          FormatDouble(options.f1_tol) + ")");
    }
  }

  if (options.latency_tol >= 0.0) {
    CheckLatency("total_wait_seconds", baseline.total_wait_seconds,
                 candidate.total_wait_seconds, options.latency_tol,
                 &failures);
    CheckLatency("wall_seconds", baseline.wall_seconds,
                 candidate.wall_seconds, options.latency_tol, &failures);
  }

  if (options.latency_p95_tol >= 0.0) {
    // Gate only regions present on both sides: thread-count changes add or
    // remove parallel regions structurally, and a missing region is not a
    // latency regression.
    for (const LatencyEntry& base : baseline.latency) {
      const LatencyEntry* cand = nullptr;
      for (const LatencyEntry& entry : candidate.latency) {
        if (entry.name == base.name) {
          cand = &entry;
          break;
        }
      }
      if (cand == nullptr) continue;
      CheckLatency(("p95." + base.name).c_str(), base.p95_seconds,
                   cand->p95_seconds, options.latency_p95_tol, &failures);
    }
  }

  if (options.counter_tol >= 0.0) {
    for (const auto& [name, base_value] : baseline.counters) {
      const uint64_t cand_value = candidate.CounterOr(name, UINT64_MAX);
      if (cand_value == UINT64_MAX) {
        failures.push_back("counter " + name + " missing in candidate");
        continue;
      }
      const double denom =
          std::max<double>(1.0, static_cast<double>(base_value));
      const double relative =
          std::abs(static_cast<double>(cand_value) -
                   static_cast<double>(base_value)) /
          denom;
      if (relative > options.counter_tol) {
        failures.push_back("counter " + name + " drifted: " +
                           std::to_string(cand_value) + " vs baseline " +
                           std::to_string(base_value) + " (relative " +
                           FormatDouble(relative) + " > " +
                           FormatDouble(options.counter_tol) + ")");
      }
    }
  }
  return failures;
}

// ---- Single-report invariants -------------------------------------------

std::vector<std::string> ValidateReport(const RunReport& report) {
  std::vector<std::string> failures;
  auto fail = [&failures](std::string message) {
    failures.push_back(std::move(message));
  };
  auto has_counter = [&report](const char* name) {
    return report.CounterOr(name, UINT64_MAX) != UINT64_MAX;
  };
  auto counter = [&report](const char* name) {
    return std::to_string(report.CounterOr(name));
  };
  auto in_unit_interval = [](double v) { return v >= 0.0 && v <= 1.0 + 1e-9; };
  const bool is_run = report.kind == "run";

  if (is_run) {
    for (size_t i = 0; i < report.curve.size(); ++i) {
      const ReportIteration& point = report.curve[i];
      const std::string where = "curve[" + std::to_string(i) + "]: ";
      if (i > 0 && point.labels_used < report.curve[i - 1].labels_used) {
        fail(where + "labels_used " + std::to_string(point.labels_used) +
             " decreases (the curve must be monotone)");
      }
      if (!(point.f1 >= 0.0 && point.f1 <= 1.0)) {
        fail(where + "F1 " + FormatDouble(point.f1) + " outside [0, 1]");
      }
    }
    if (!report.curve.empty() &&
        std::abs(report.final_f1 - report.curve.back().f1) > 1e-12) {
      fail("summary.final_f1 " + FormatDouble(report.final_f1) +
           " does not match the last curve point's F1 " +
           FormatDouble(report.curve.back().f1));
    }
    // A run that queried no labels or scored no examples measured nothing.
    for (const char* name : {"oracle.queries", "selector.scored_examples"}) {
      if (report.CounterOr(name) == 0) {
        fail(std::string("counter ") + name + " is zero or missing");
      }
    }
  }

  for (const SpanRollupEntry& span : report.spans) {
    if (span.self_seconds > span.total_seconds + 1e-9) {
      fail("span " + span.name + ": self_seconds " +
           FormatDouble(span.self_seconds) + " exceeds total_seconds " +
           FormatDouble(span.total_seconds));
    }
  }

  // Feature cache. Only a nonzero hit/miss/write counter means the cache
  // was touched (a registered counter may sit at zero). A resumed
  // report's counters include the saving process's prepare while its spans
  // cover only the resuming process, so it needs no cache span.
  const uint64_t hits = report.CounterOr("featurize.cache.hit");
  const uint64_t misses = report.CounterOr("featurize.cache.miss");
  const uint64_t writes = report.CounterOr("featurize.cache.write");
  if (hits + misses + writes > 0) {
    if (writes > misses) {
      fail("featurize.cache.write " + std::to_string(writes) +
           " exceeds featurize.cache.miss " + std::to_string(misses) +
           " (every write follows a miss)");
    }
    const bool has_cache_span =
        std::any_of(report.spans.begin(), report.spans.end(),
                    [](const SpanRollupEntry& span) {
                      return span.name == "harness.featurize.cache";
                    });
    if (!has_cache_span && report.session != "resumed") {
      fail("featurize.cache.* counters present but no "
           "harness.featurize.cache span recorded");
    }
    if (is_run && (report.cache == "off" ||
                   (report.cache == "hit" && hits == 0) ||
                   (report.cache == "miss" && misses == 0))) {
      fail("config.cache '" + report.cache +
           "' disagrees with featurize.cache.hit " + std::to_string(hits) +
           " / featurize.cache.miss " + std::to_string(misses));
    }
  }

  // Fits: every Learner::Fit lands in exactly one of the split counters.
  const uint64_t warm = report.CounterOr("ml.warm_fits");
  if ((has_counter("ml.warm_fits") || has_counter("ml.cold_fits")) &&
      warm + report.CounterOr("ml.cold_fits") !=
          report.CounterOr("ml.fit_calls")) {
    fail("ml.warm_fits " + counter("ml.warm_fits") + " + ml.cold_fits " +
         counter("ml.cold_fits") + " != ml.fit_calls " +
         counter("ml.fit_calls"));
  }
  if (report.warm_start != "off" && report.warm_start != "on") {
    fail("config.warm_start is '" + report.warm_start +
         "' (expected off or on)");
  } else if (report.warm_start == "off" && warm > 0) {
    fail("config.warm_start is 'off' but ml.warm_fits is " +
         std::to_string(warm));
  }

  // Evaluation: each curve point rescores at most the whole pool, plus at
  // most one full-rescore audit.
  if (is_run) {
    double pool_rows = 0.0;
    for (const auto& [name, value] : report.gauges) {
      if (name == "eval.pool_rows") pool_rows = value;
    }
    const uint64_t rescored = report.CounterOr("eval.rows_rescored");
    if (rescored == 0) fail("counter eval.rows_rescored is zero or missing");
    if (!(pool_rows > 0.0)) {
      fail("gauge eval.pool_rows is zero or missing");
    } else if (static_cast<double>(rescored) >
               2.0 * static_cast<double>(report.curve.size()) * pool_rows) {
      fail("eval.rows_rescored " + std::to_string(rescored) + " exceeds 2 * " +
           std::to_string(report.curve.size()) + " iterations * " +
           FormatDouble(pool_rows) + " pool rows");
    }
  }

  for (const LatencyEntry& entry : report.latency) {
    if (entry.count == 0) {
      fail("latency " + entry.name + ": count is 0 (empty regions are "
           "omitted)");
    }
    if (!(0.0 <= entry.p50_seconds && entry.p50_seconds <= entry.p95_seconds &&
          entry.p95_seconds <= entry.p99_seconds)) {
      fail("latency " + entry.name + ": percentiles not ordered (p50 " +
           FormatDouble(entry.p50_seconds) + ", p95 " +
           FormatDouble(entry.p95_seconds) + ", p99 " +
           FormatDouble(entry.p99_seconds) + ")");
    }
  }

  if (report.has_pool) {
    const PoolStats& pool = report.pool;
    if (pool.workers < 1) {
      fail("pool workers " + std::to_string(pool.workers) + " must be >= 1");
    }
    const double accounted =
        pool.busy_seconds + pool.idle_seconds + pool.queue_wait_seconds;
    const double wall = pool.worker_wall_seconds;
    if (std::abs(accounted - wall) > std::max(0.01 * wall, 0.01)) {
      fail("pool accounting gap: busy + idle + queue_wait " +
           FormatDouble(accounted) + "s vs worker_wall " + FormatDouble(wall) +
           "s (must agree within 1% or 10ms)");
    }
    if (!in_unit_interval(pool.utilization)) {
      fail("pool utilization " + FormatDouble(pool.utilization) +
           " outside [0, 1]");
    }
    for (const PoolRegionStats& region : pool.regions) {
      const std::string where = "pool region " + region.name + ": ";
      if (region.runs == 0 || region.chunks == 0) {
        fail(where + "runs/chunks must be positive");
      }
      if (!(0.0 <= region.min_chunk_seconds &&
            region.min_chunk_seconds <= region.mean_chunk_seconds + 1e-12 &&
            region.mean_chunk_seconds <= region.max_chunk_seconds + 1e-12)) {
        fail(where + "chunk stats not ordered (min " +
             FormatDouble(region.min_chunk_seconds) + ", mean " +
             FormatDouble(region.mean_chunk_seconds) + ", max " +
             FormatDouble(region.max_chunk_seconds) + ")");
      }
      if (!in_unit_interval(region.utilization)) {
        fail(where + "utilization " + FormatDouble(region.utilization) +
             " outside [0, 1]");
      }
    }
  }

  return failures;
}

// ---- Trace checker ------------------------------------------------------

namespace {

// Containment grace at window edges: one nanosecond, the resolution of the
// trace's three-decimal microsecond timestamps.
constexpr uint64_t kTraceGraceNs = 1;

// Largest ts/dur accepted, in microseconds (about 104 days): converted to
// nanoseconds, start + duration stays far inside uint64_t.
constexpr double kMaxTraceMicros = 9e12;

// Phase spans every loop.iteration contains.
constexpr const char* kPhaseSpans[] = {"loop.train", "loop.evaluate",
                                       "loop.select", "loop.label"};
// A batch-inference fan-out is issued by the phase that gathered its rows.
constexpr const char* kMlBatchParents[] = {"selector.scoring", "loop.train",
                                           "loop.evaluate",
                                           "ensemble.coverage"};

template <size_t N>
bool IsOneOf(const std::string& name, const char* const (&names)[N]) {
  return std::find(std::begin(names), std::end(names), name) !=
         std::end(names);
}

uint64_t SpanEnd(const SpanRecord& span) {
  return span.start_ns + span.duration_ns;
}

std::string SpanAt(const SpanRecord& span) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " at ts=%.3fus",
                static_cast<double>(span.start_ns) / 1e3);
  return span.name + buf;
}

// [start, end] windows answering "does one window contain this interval?"
// in O(log n): sorted by start, each entry carries the running maximum end,
// so the farthest-reaching window that starts early enough decides.
class WindowSet {
 public:
  void Add(const SpanRecord& span) {
    windows_.emplace_back(span.start_ns, SpanEnd(span));
  }
  // Call once after the last Add.
  void Seal() {
    std::sort(windows_.begin(), windows_.end());
    for (size_t i = 1; i < windows_.size(); ++i) {
      windows_[i].second = std::max(windows_[i].second, windows_[i - 1].second);
    }
  }
  // Whether some window starts at or before span.start_ns + start_grace and
  // ends at or after SpanEnd(span) - kTraceGraceNs.
  bool Contains(const SpanRecord& span, uint64_t start_grace) const {
    const auto it = std::upper_bound(
        windows_.begin(), windows_.end(), span.start_ns + start_grace,
        [](uint64_t start, const std::pair<uint64_t, uint64_t>& window) {
          return start < window.first;
        });
    return it != windows_.begin() &&
           SpanEnd(span) <= std::prev(it)->second + kTraceGraceNs;
  }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> windows_;
};

}  // namespace

bool ParseChromeTrace(std::string_view text, std::vector<SpanRecord>* spans,
                      std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!JsonValue::Parse(text, &root, &parse_error)) {
    return fail("malformed JSON: " + parse_error);
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("no traceEvents array");
  }
  std::vector<SpanRecord> parsed;
  for (size_t i = 0; i < events->array().size(); ++i) {
    const JsonValue& event = events->array()[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!event.is_object()) return fail(where + " is not an object");
    const JsonValue* phase = event.Find("ph");
    if (phase == nullptr || !phase->is_string() ||
        phase->string_value() != "X") {
      continue;
    }
    const JsonValue* name = event.Find("name");
    if (name == nullptr || !name->is_string()) {
      return fail(where + ": name " +
                  (name == nullptr ? "missing" : "is not a string"));
    }
    SpanRecord span;
    span.name = name->string_value();
    const std::string span_where = where + " (" + span.name + "): ";
    for (const auto& [key, out] : {std::pair{"ts", &span.start_ns},
                                   std::pair{"dur", &span.duration_ns}}) {
      const JsonValue* value = event.Find(key);
      if (value == nullptr || !value->is_number()) {
        return fail(span_where + key +
                    (value == nullptr ? " missing" : " is not a number"));
      }
      const double micros = value->number_value();
      if (micros < 0.0) {
        return fail(span_where + key + " " + FormatDouble(micros) +
                    " is negative");
      }
      if (!(micros <= kMaxTraceMicros)) {
        return fail(span_where + key + " " + FormatDouble(micros) +
                    " is out of range");
      }
      *out = static_cast<uint64_t>(std::llround(micros * 1e3));
    }
    const JsonValue* tid = event.Find("tid");
    if (tid == nullptr || !tid->is_number()) {
      return fail(span_where + "tid" +
                  (tid == nullptr ? " missing" : " is not a number"));
    }
    const double tid_value = tid->number_value();
    if (!(tid_value >= 0.0 && tid_value <= 4294967295.0 &&
          std::floor(tid_value) == tid_value)) {
      return fail(span_where + "tid " + FormatDouble(tid_value) +
                  " is not a non-negative integer below 2^32");
    }
    span.thread_id = static_cast<uint32_t>(tid_value);
    if (const JsonValue* category = event.Find("cat");
        category != nullptr && category->is_string()) {
      span.category = category->string_value();
    }
    if (const JsonValue* args = event.Find("args")) {
      if (const JsonValue* detail = args->Find("detail");
          detail != nullptr && detail->is_string()) {
        span.detail = detail->string_value();
      }
      if (const JsonValue* depth = args->Find("depth");
          depth != nullptr && depth->is_number() &&
          depth->number_value() >= 0.0 &&
          depth->number_value() <= std::numeric_limits<int>::max()) {
        span.depth = static_cast<int>(depth->number_value());
      }
    }
    parsed.push_back(std::move(span));
  }
  *spans = std::move(parsed);
  return true;
}

std::vector<std::string> ValidateTrace(const std::vector<SpanRecord>& spans) {
  std::vector<std::string> failures;
  auto fail = [&failures](std::string message) {
    failures.push_back(std::move(message));
  };
  // Rule 1 (the per-event fields are ParseChromeTrace's).
  if (spans.empty()) {
    fail("trace contains no spans");
    return failures;
  }

  // Rule 2: every iteration holds each pipeline phase, on its own thread.
  std::map<std::string, uint64_t> counts;
  std::map<uint32_t, WindowSet> iterations;
  // Rule 3: <region>.parallel windows, any thread.
  std::map<std::string, WindowSet> parallel_regions;
  // Rule 4: ml.batch parent windows per thread.
  std::map<uint32_t, WindowSet> ml_batch_parents;
  for (const SpanRecord& span : spans) {
    ++counts[span.name];
    if (span.name == "loop.iteration") iterations[span.thread_id].Add(span);
    constexpr std::string_view kParallel = ".parallel";
    if (span.name.size() > kParallel.size() &&
        std::string_view(span.name).substr(span.name.size() -
                                           kParallel.size()) == kParallel) {
      parallel_regions[span.name.substr(0, span.name.size() -
                                               kParallel.size())]
          .Add(span);
    }
    if (IsOneOf(span.name, kMlBatchParents)) {
      ml_batch_parents[span.thread_id].Add(span);
    }
  }
  for (auto* windows : {&iterations, &ml_batch_parents}) {
    for (auto& [tid, set] : *windows) set.Seal();
  }
  for (auto& [region, set] : parallel_regions) set.Seal();
  auto inside = [](const std::map<uint32_t, WindowSet>& per_thread,
                   const SpanRecord& span, uint64_t start_grace) {
    const auto it = per_thread.find(span.thread_id);
    return it != per_thread.end() && it->second.Contains(span, start_grace);
  };

  const uint64_t iteration_count = counts["loop.iteration"];
  if (iteration_count == 0) {
    fail("no loop.iteration spans in trace");
  } else {
    for (const char* phase : kPhaseSpans) {
      if (counts[phase] < iteration_count) {
        fail(std::string(phase) + ": " + std::to_string(counts[phase]) +
             " spans for " + std::to_string(iteration_count) +
             " iterations (every iteration must contain one)");
      }
    }
    for (const SpanRecord& span : spans) {
      if (IsOneOf(span.name, kPhaseSpans) && !inside(iterations, span, 0)) {
        fail(SpanAt(span) + " is not nested in any loop.iteration span");
        break;
      }
    }
  }

  // Rule 3. Only the first stray chunk is reported, but every chunk that
  // names a region counts toward it.
  std::map<std::string, uint64_t> chunks_per_region;
  bool stray_chunk = false;
  for (const SpanRecord& span : spans) {
    if (span.name != "parallel.chunk") continue;
    if (span.detail.empty()) {
      fail(SpanAt(span) + " has no args.detail naming its region");
      continue;
    }
    ++chunks_per_region[span.detail];
    const auto region = parallel_regions.find(span.detail);
    if (!stray_chunk && (region == parallel_regions.end() ||
                         !region->second.Contains(span, kTraceGraceNs))) {
      fail(SpanAt(span) + " (region " + span.detail +
           ") is not inside any " + span.detail + ".parallel span");
      stray_chunk = true;
    }
  }
  for (const auto& [region, set] : parallel_regions) {
    if (chunks_per_region[region] == 0) {
      fail(region + ".parallel spans exist but no parallel.chunk spans "
           "name that region");
    }
  }

  // Rule 4.
  for (const SpanRecord& span : spans) {
    if (span.name == "ml.batch.parallel" &&
        !inside(ml_batch_parents, span, kTraceGraceNs)) {
      fail(SpanAt(span) +
           " is not nested in any of selector.scoring/loop.train/"
           "loop.evaluate/ensemble.coverage on its thread");
      break;
    }
  }
  return failures;
}

}  // namespace obs
}  // namespace alem
