// Tests for the RunReport flight recorder (src/obs/report.h): JSON
// round-trip fidelity, strict schema parsing, the span self-time rollup,
// the single-report validator, the regression-gate comparator, the Chrome
// trace reader and checker, and the JSON parser underneath it all.

#include "obs/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/json.h"

namespace alem {
namespace obs {
namespace {

// A fully-populated report with awkward values: non-round doubles that
// need all 17 significant digits, strings that need escaping.
RunReport MakeReport() {
  RunReport report;
  report.kind = "run";
  report.tool = "report_test";
  report.build = "deadbeef-dirty";
  report.dataset = "Abt-Buy \"quoted\"";
  report.approach = "linear-margin";
  report.data_seed = 7;
  report.run_seed = 123456789;
  report.scale = 0.1 + 0.2;  // 0.30000000000000004
  report.threads = 4;
  report.seed_size = 30;
  report.batch_size = 10;
  report.max_labels = 200;
  report.oracle_noise = 0.05;
  report.holdout = true;

  for (int i = 1; i <= 3; ++i) {
    ReportIteration point;
    point.iteration = static_cast<uint64_t>(i);
    point.labels_used = static_cast<uint64_t>(30 + 10 * i);
    point.precision = 0.7 + 0.01 * i;
    point.recall = 0.6 + 0.01 * i;
    point.f1 = 1.0 / (3.0 + i);  // Not representable exactly.
    point.train_seconds = 0.001 * i;
    point.evaluate_seconds = 0.0005;
    point.select_seconds = 0.002;
    point.committee_seconds = 0.0015;
    point.scoring_seconds = 0.0004;
    point.label_seconds = 1e-5;
    point.wait_seconds = point.train_seconds + point.select_seconds;
    point.scored_examples = 500;
    point.pruned_examples = 100;
    point.dnf_atoms = 3;
    point.tree_depth = 5;
    point.ensemble_size = static_cast<uint64_t>(i);
    report.curve.push_back(point);
  }
  report.best_f1 = report.curve.back().f1;
  report.final_f1 = report.curve.back().f1;
  report.labels_to_converge = 60;
  report.total_wait_seconds = 0.009;
  report.ensemble_accepted = 3;

  report.counters = {{"oracle.queries", 60},
                     {"selector.scored_examples", 1500},
                     {"blocking.pruned", 300},
                     {"sim.calls", 53802}};
  report.gauges = {{"process.peak_rss_bytes", 8.5e6}};
  report.spans = {{"loop.run", 1, 0.010, 0.002},
                  {"ml.fit", 3, 0.003, 0.003}};
  report.wall_seconds = 0.25;
  report.peak_rss_bytes = 8500000;
  return report;
}

TEST(ReportJsonTest, RoundTripIsLossless) {
  const RunReport report = MakeReport();
  const std::string json = ReportToJson(report);

  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(json, &parsed, &error)) << error;

  EXPECT_EQ(parsed.schema_version, report.schema_version);
  EXPECT_EQ(parsed.kind, report.kind);
  EXPECT_EQ(parsed.tool, report.tool);
  EXPECT_EQ(parsed.build, report.build);
  EXPECT_EQ(parsed.dataset, report.dataset);
  EXPECT_EQ(parsed.approach, report.approach);
  EXPECT_EQ(parsed.data_seed, report.data_seed);
  EXPECT_EQ(parsed.run_seed, report.run_seed);
  EXPECT_EQ(parsed.scale, report.scale);  // Bitwise: %.17g round-trips.
  EXPECT_EQ(parsed.threads, report.threads);
  EXPECT_EQ(parsed.seed_size, report.seed_size);
  EXPECT_EQ(parsed.batch_size, report.batch_size);
  EXPECT_EQ(parsed.max_labels, report.max_labels);
  EXPECT_EQ(parsed.oracle_noise, report.oracle_noise);
  EXPECT_EQ(parsed.holdout, report.holdout);

  ASSERT_EQ(parsed.curve.size(), report.curve.size());
  for (size_t i = 0; i < report.curve.size(); ++i) {
    EXPECT_EQ(parsed.curve[i].iteration, report.curve[i].iteration);
    EXPECT_EQ(parsed.curve[i].labels_used, report.curve[i].labels_used);
    EXPECT_EQ(parsed.curve[i].f1, report.curve[i].f1);  // Bitwise.
    EXPECT_EQ(parsed.curve[i].precision, report.curve[i].precision);
    EXPECT_EQ(parsed.curve[i].recall, report.curve[i].recall);
    EXPECT_EQ(parsed.curve[i].wait_seconds, report.curve[i].wait_seconds);
    EXPECT_EQ(parsed.curve[i].scored_examples,
              report.curve[i].scored_examples);
    EXPECT_EQ(parsed.curve[i].tree_depth, report.curve[i].tree_depth);
  }
  EXPECT_EQ(parsed.best_f1, report.best_f1);
  EXPECT_EQ(parsed.final_f1, report.final_f1);
  EXPECT_EQ(parsed.labels_to_converge, report.labels_to_converge);
  EXPECT_EQ(parsed.ensemble_accepted, report.ensemble_accepted);

  EXPECT_EQ(parsed.counters, report.counters);
  ASSERT_EQ(parsed.spans.size(), report.spans.size());
  EXPECT_EQ(parsed.spans[0].name, "loop.run");
  EXPECT_EQ(parsed.spans[0].count, 1u);
  EXPECT_EQ(parsed.wall_seconds, report.wall_seconds);
  EXPECT_EQ(parsed.peak_rss_bytes, report.peak_rss_bytes);
}

TEST(ReportJsonTest, FileRoundTrip) {
  const RunReport report = MakeReport();
  const std::string path = ::testing::TempDir() + "/report_test.json";
  ASSERT_TRUE(WriteReportJson(path, report));
  RunReport loaded;
  std::string error;
  ASSERT_TRUE(LoadReportFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.final_f1, report.final_f1);
  EXPECT_EQ(loaded.counters, report.counters);
  std::remove(path.c_str());
}

TEST(ReportJsonTest, RejectsMissingRequiredFields) {
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson("{\"schema_version\": 1}", &parsed, &error));
  EXPECT_NE(error.find("kind"), std::string::npos) << error;
}

TEST(ReportJsonTest, RejectsWrongSchemaVersion) {
  RunReport report = MakeReport();
  report.schema_version = 99;
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson(ReportToJson(report), &parsed, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(ReportJsonTest, RejectsRunReportWithEmptyCurve) {
  RunReport report = MakeReport();
  report.curve.clear();
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson(ReportToJson(report), &parsed, &error));
}

TEST(ReportJsonTest, BenchReportNeedsNoCurve) {
  RunReport report = MakeReport();
  report.kind = "bench";
  report.curve.clear();
  RunReport parsed;
  std::string error;
  EXPECT_TRUE(ParseReportJson(ReportToJson(report), &parsed, &error))
      << error;
}

TEST(ReportJsonTest, StrictParseNamesEachBadField) {
  // Each row corrupts one field of a valid report; the parse must fail
  // with a message naming that field instead of reading it as 0.
  struct Case {
    const char* original;
    const char* replacement;
    const char* message;
  };
  const Case cases[] = {
      {"\"threads\": 4", "\"threads\": \"four\"",
       "config.threads (expected a non-negative integer)"},
      {"\"threads\": 4", "\"threads\": 4294967296",
       "config.threads (expected an integer below 2^31)"},
      {"\"seed_size\": 30", "\"seed_size\": 30.5",
       "config.seed_size (expected a non-negative integer)"},
      {"\"holdout\": true", "\"holdout\": 1",
       "config.holdout (expected a boolean)"},
      {"\"labels_used\":40", "\"labels_used\":-30.7",
       "curve[0].labels_used (expected a non-negative integer)"},
      {"\"count\": 1", "\"count\": -3",
       "spans[0].count (expected a non-negative integer)"},
      {"\"oracle.queries\": 60", "\"oracle.queries\": \"lots\"",
       "counters.oracle.queries (expected a non-negative integer)"},
      {"\"process.peak_rss_bytes\": 8500000",
       "\"process.peak_rss_bytes\": null",
       "gauges.process.peak_rss_bytes (expected a number)"},
      {"\"iterations\": 3", "\"iterations\": 999",
       "summary.iterations 999 does not match the curve's 3 points"},
  };
  const std::string json = ReportToJson(MakeReport());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.replacement);
    std::string corrupt = json;
    const size_t at = corrupt.find(c.original);
    ASSERT_NE(at, std::string::npos);
    corrupt.replace(at, std::string_view(c.original).size(), c.replacement);
    RunReport parsed;
    std::string error;
    EXPECT_FALSE(ParseReportJson(corrupt, &parsed, &error));
    EXPECT_NE(error.find(c.message), std::string::npos) << error;
  }
}

TEST(ReportJsonTest, RejectsMalformedJson) {
  RunReport parsed;
  std::string error;
  EXPECT_FALSE(ParseReportJson("{\"schema_version\": 1,,}", &parsed,
                               &error));
  EXPECT_FALSE(ParseReportJson("", &parsed, &error));
}

// ---- JSON parser (util/json.h) ----------------------------------------

TEST(JsonParserTest, ParsesScalarsAndContainers) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(
      R"({"a": [1, 2.5, -3e2], "b": "x\n\"yé", "c": true, "d": null})",
      &value, &error))
      << error;
  const JsonValue* a = value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[0].number_value(), 1.0);
  EXPECT_EQ(a->array()[2].number_value(), -300.0);
  const JsonValue* b = value.Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_value(), "x\n\"y\xc3\xa9");
  EXPECT_TRUE(value.Find("c")->bool_value());
  EXPECT_EQ(value.Find("d")->kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(value.Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsTrailingGarbageAndBadSyntax) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("{} extra", &value, &error));
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &value, &error));
  EXPECT_FALSE(JsonValue::Parse("[1, 2", &value, &error));
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &value, &error));
}

TEST(JsonParserTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &value, &error));
}

TEST(JsonParserTest, SeventeenDigitDoubleRoundTrip) {
  std::string out;
  AppendJsonDouble(&out, 0.1 + 0.2);
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(out, &value, &error)) << error;
  EXPECT_EQ(value.number_value(), 0.1 + 0.2);
}

// ---- Span self-time rollup --------------------------------------------

SpanRecord Record(const char* name, uint32_t tid, uint64_t start_ns,
                  uint64_t duration_ns) {
  SpanRecord record;
  record.name = name;
  record.thread_id = tid;
  record.start_ns = start_ns;
  record.duration_ns = duration_ns;
  return record;
}

TEST(SelfTimeRollupTest, SubtractsNestedChildren) {
  // outer [0, 1000] contains two inner spans of 200ns and 300ns; a span
  // on another thread overlapping in time must NOT be subtracted.
  const std::vector<SpanRecord> records = {
      Record("outer", 0, 0, 1000),
      Record("inner", 0, 100, 200),
      Record("inner", 0, 500, 300),
      Record("other_thread", 1, 0, 400),
  };
  const std::vector<SpanRollupEntry> rollup = SelfTimeRollup(records);
  double outer_self = -1.0;
  double inner_total = -1.0;
  for (const SpanRollupEntry& entry : rollup) {
    if (entry.name == "outer") outer_self = entry.self_seconds;
    if (entry.name == "inner") inner_total = entry.total_seconds;
  }
  EXPECT_DOUBLE_EQ(outer_self, 500e-9);
  EXPECT_DOUBLE_EQ(inner_total, 500e-9);
}

TEST(SelfTimeRollupTest, SortedBySelfTimeDescending) {
  const std::vector<SpanRecord> records = {
      Record("small", 0, 0, 10),
      Record("big", 0, 100, 1000),
  };
  const std::vector<SpanRollupEntry> rollup = SelfTimeRollup(records);
  ASSERT_EQ(rollup.size(), 2u);
  EXPECT_EQ(rollup[0].name, "big");
  EXPECT_EQ(rollup[1].name, "small");
}

// ---- Process stats -----------------------------------------------------

TEST(ProcessStatsTest, PeakRssIsNonzeroOnLinux) {
#if defined(__linux__)
  EXPECT_GT(PeakRssBytes(), 0u);
#else
  GTEST_SKIP() << "peak RSS source is platform-specific";
#endif
}

TEST(ProcessStatsTest, StampObservabilityFillsBuildAndRss) {
  RunReport report;
  StampObservability(&report);
  EXPECT_FALSE(report.build.empty());
#if defined(__linux__)
  EXPECT_GT(report.peak_rss_bytes, 0u);
#endif
}

// ---- Regression gate ---------------------------------------------------

TEST(CheckReportsTest, IdenticalReportsPass) {
  const RunReport report = MakeReport();
  EXPECT_TRUE(CheckReports(report, report, ReportCheckOptions()).empty());
}

TEST(CheckReportsTest, RegressionBeyondToleranceFails) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 - 0.05;
  candidate.best_f1 = baseline.best_f1 - 0.05;
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, ReportCheckOptions());
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("F1"), std::string::npos) << failures[0];
}

TEST(CheckReportsTest, RegressionWithinTolerancePasses) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 - 0.01;  // Inside f1_tol = 0.02.
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
}

TEST(CheckReportsTest, ImprovementAlwaysPasses) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 + 0.10;
  candidate.best_f1 = baseline.best_f1 + 0.10;
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
}

TEST(CheckReportsTest, ToleranceBoundaryIsInclusive) {
  ReportCheckOptions options;
  options.f1_tol = 0.05;
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.final_f1 = baseline.final_f1 - 0.05;
  candidate.best_f1 = baseline.best_f1 - 0.05;
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
  candidate.final_f1 -= 1e-9;
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, ExactCurveCatchesOneUlp) {
  ReportCheckOptions options;
  options.exact_curve = true;
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
  candidate.curve[1].f1 =
      std::nextafter(candidate.curve[1].f1, 1.0);  // One ulp.
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, ExactCurveCatchesLengthMismatch) {
  ReportCheckOptions options;
  options.exact_curve = true;
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.curve.pop_back();
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, ExactCurveCatchesScoredExamplesDivergence) {
  ReportCheckOptions options;
  options.exact_curve = true;
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.curve[2].scored_examples += 1;
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, options);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("iteration 3: scored_examples 500/501"),
            std::string::npos)
      << failures[0];
}

TEST(CheckReportsTest, KindMismatchFails) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.kind = "bench";
  candidate.curve.clear();
  EXPECT_FALSE(
      CheckReports(baseline, candidate, ReportCheckOptions()).empty());
}

TEST(CheckReportsTest, LatencyGateIsOptIn) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  candidate.wall_seconds = baseline.wall_seconds * 100.0;
  candidate.total_wait_seconds = baseline.total_wait_seconds * 100.0;
  // Off by default: a huge slowdown still passes.
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
  ReportCheckOptions options;
  options.latency_tol = 0.25;
  EXPECT_FALSE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, LatencyGateHasAbsoluteGrace) {
  // Micro-runs jitter by a few ms; the 10ms absolute grace must absorb
  // that even when the relative tolerance alone would fail.
  ReportCheckOptions options;
  options.latency_tol = 0.10;
  RunReport baseline = MakeReport();
  baseline.wall_seconds = 0.001;
  baseline.total_wait_seconds = 0.001;
  RunReport candidate = baseline;
  candidate.wall_seconds = 0.008;  // 8x, but under 1ms*1.1 + 10ms.
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
}

// ---- Latency / pool sections -------------------------------------------

RunReport MakeReportWithTelemetry() {
  RunReport report = MakeReport();
  report.latency = {{"loop.train", 3, 0.0061, 0.0019, 0.0029, 0.003},
                    {"selector.scoring", 3, 0.0072, 0.0021, 0.0033, 0.0039}};
  report.has_pool = true;
  report.pool.workers = 4;
  report.pool.busy_seconds = 0.040;
  report.pool.idle_seconds = 0.010;
  report.pool.queue_wait_seconds = 0.002;
  report.pool.worker_wall_seconds = 0.052;
  report.pool.utilization = 0.040 / 0.052;
  report.pool.regions = {{"ml.batch", 6, 48, 0.0001, 0.0009, 0.0004, 0.71}};
  return report;
}

TEST(ReportJsonTest, LatencyAndPoolSectionsRoundTrip) {
  const RunReport report = MakeReportWithTelemetry();
  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(ReportToJson(report), &parsed, &error))
      << error;

  ASSERT_EQ(parsed.latency.size(), 2u);
  EXPECT_EQ(parsed.latency[0].name, "loop.train");
  EXPECT_EQ(parsed.latency[0].count, 3u);
  EXPECT_EQ(parsed.latency[0].sum_seconds, 0.0061);  // Bitwise (%.17g).
  EXPECT_EQ(parsed.latency[0].p50_seconds, 0.0019);
  EXPECT_EQ(parsed.latency[0].p95_seconds, 0.0029);
  EXPECT_EQ(parsed.latency[0].p99_seconds, 0.003);
  EXPECT_EQ(parsed.latency[1].name, "selector.scoring");

  ASSERT_TRUE(parsed.has_pool);
  EXPECT_EQ(parsed.pool.workers, 4);
  EXPECT_EQ(parsed.pool.busy_seconds, 0.040);
  EXPECT_EQ(parsed.pool.idle_seconds, 0.010);
  EXPECT_EQ(parsed.pool.queue_wait_seconds, 0.002);
  EXPECT_EQ(parsed.pool.worker_wall_seconds, 0.052);
  EXPECT_EQ(parsed.pool.utilization, 0.040 / 0.052);
  ASSERT_EQ(parsed.pool.regions.size(), 1u);
  EXPECT_EQ(parsed.pool.regions[0].name, "ml.batch");
  EXPECT_EQ(parsed.pool.regions[0].runs, 6u);
  EXPECT_EQ(parsed.pool.regions[0].chunks, 48u);
  EXPECT_EQ(parsed.pool.regions[0].min_chunk_seconds, 0.0001);
  EXPECT_EQ(parsed.pool.regions[0].max_chunk_seconds, 0.0009);
  EXPECT_EQ(parsed.pool.regions[0].mean_chunk_seconds, 0.0004);
  EXPECT_EQ(parsed.pool.regions[0].utilization, 0.71);
}

TEST(ReportJsonTest, LatencyAndPoolSectionsAreOptionalOnParse) {
  // Reports written before the sections existed (or from serial runs)
  // must keep parsing; the absence is the serial-path signal.
  RunReport report = MakeReport();
  report.counters.emplace_back("eval.rows_rescored", 900);
  report.gauges.emplace_back("eval.pool_rows", 500.0);
  const std::string json = ReportToJson(report);
  EXPECT_EQ(json.find("\"latency\""), std::string::npos);
  EXPECT_EQ(json.find("\"pool\""), std::string::npos);
  // Reports written while the roofline profiler existed carry a "profile"
  // section; it is ignored, so they still load and validate.
  std::string legacy = json;
  legacy.insert(
      legacy.find(",\n  \"process\""),
      ",\n  \"profile\": {\"hw\": \"unavailable\", \"regions\": [\n"
      "    {\"name\": \"sim.batch\", \"spans\": 63, \"seconds\": 0.568897286, "
      "\"items\": 200781, \"bytes\": 21728196, \"flops\": 0, \"cycles\": 0, "
      "\"instructions\": 0, \"cache_refs\": 0, \"cache_misses\": 0, "
      "\"branch_misses\": 0, \"items_per_sec\": 352930.14212059363, "
      "\"bytes_per_sec\": 38193530.77384869, \"flops_per_sec\": 0, "
      "\"ipc\": 0}\n  ]}");
  for (const std::string& input : {json, legacy}) {
    RunReport parsed;
    std::string error;
    ASSERT_TRUE(ParseReportJson(input, &parsed, &error)) << error;
    EXPECT_TRUE(parsed.latency.empty());
    EXPECT_FALSE(parsed.has_pool);
    EXPECT_TRUE(ValidateReport(parsed).empty());
    EXPECT_EQ(ReportToJson(parsed), json);
  }
}

TEST(CheckReportsTest, LatencyP95GateIsOptIn) {
  const RunReport baseline = MakeReportWithTelemetry();
  RunReport candidate = baseline;
  candidate.latency[0].p95_seconds = baseline.latency[0].p95_seconds * 100.0;
  // Off by default: a huge tail regression still passes.
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
  ReportCheckOptions options;
  options.latency_p95_tol = 0.25;
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, options);
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("p95.loop.train"), std::string::npos)
      << failures[0];
}

TEST(CheckReportsTest, LatencyP95WithinToleranceAndGracePasses) {
  ReportCheckOptions options;
  options.latency_p95_tol = 0.25;
  const RunReport baseline = MakeReportWithTelemetry();
  RunReport candidate = baseline;
  // +10% relative: inside the 25% tolerance.
  candidate.latency[0].p95_seconds = baseline.latency[0].p95_seconds * 1.10;
  // Tiny p95s jitter wildly in relative terms; the 10ms grace absorbs it.
  candidate.latency[1].p95_seconds = baseline.latency[1].p95_seconds + 0.009;
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, LatencyP95GateSkipsRegionsMissingFromEitherSide) {
  ReportCheckOptions options;
  options.latency_p95_tol = 0.0;
  RunReport baseline = MakeReportWithTelemetry();
  RunReport candidate = baseline;
  // Candidate-only region (e.g. parallel.chunk at threads=4) and a
  // baseline-only region are structural, not regressions: both skipped.
  candidate.latency.push_back({"parallel.chunk", 48, 1.0, 0.5, 0.9, 1.0});
  baseline.latency.push_back({"t1.only", 1, 5.0, 5.0, 5.0, 5.0});
  EXPECT_TRUE(CheckReports(baseline, candidate, options).empty());
}

TEST(CheckReportsTest, CounterGateIsOptIn) {
  const RunReport baseline = MakeReport();
  RunReport candidate = baseline;
  for (auto& [name, value] : candidate.counters) {
    if (name == "sim.calls") value *= 3;
  }
  EXPECT_TRUE(CheckReports(baseline, candidate, ReportCheckOptions())
                  .empty());
  ReportCheckOptions options;
  options.counter_tol = 0.5;
  const std::vector<std::string> failures =
      CheckReports(baseline, candidate, options);
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("sim.calls"), std::string::npos);
}

// ---- Single-report invariants -------------------------------------------

void SetCounter(RunReport* report, const std::string& name, uint64_t value) {
  for (auto& [counter_name, counter_value] : report->counters) {
    if (counter_name == name) {
      counter_value = value;
      return;
    }
  }
  report->counters.emplace_back(name, value);
}

// A report that satisfies every ValidateReport invariant while exercising
// each section it covers: the run curve, feature cache, fit split,
// evaluation bound, latency and pool.
RunReport MakeValidReport() {
  RunReport report = MakeReportWithTelemetry();
  report.cache = "miss";
  report.warm_start = "on";
  report.counters = {{"eval.rows_rescored", 900},
                     {"featurize.cache.miss", 1},
                     {"featurize.cache.write", 1},
                     {"ml.cold_fits", 1},
                     {"ml.fit_calls", 3},
                     {"ml.warm_fits", 2},
                     {"oracle.queries", 60},
                     {"selector.scored_examples", 1500}};
  report.gauges = {{"eval.pool_rows", 500.0}};
  report.spans.push_back({"harness.featurize.cache", 1, 0.004, 0.004});
  return report;
}

struct InvariantCase {
  const char* name;
  void (*mutate)(RunReport*);
  // Text of the one failure the mutation must cause; "" = still valid.
  const char* failure;
};

const InvariantCase kInvariantCases[] = {
    {"labels_used decreases",
     [](RunReport* r) { r->curve[1].labels_used = 35; },
     "curve[1]: labels_used 35 decreases"},
    {"F1 above 1", [](RunReport* r) { r->curve[0].f1 = 1.5; },
     "curve[0]: F1 1.5 outside [0, 1]"},
    {"final_f1 off the curve", [](RunReport* r) { r->final_f1 = 0.5; },
     "summary.final_f1 0.5 does not match"},
    {"no oracle queries",
     [](RunReport* r) { SetCounter(r, "oracle.queries", 0); },
     "counter oracle.queries is zero or missing"},
    {"no scored examples",
     [](RunReport* r) {
       std::erase_if(r->counters, [](const auto& counter) {
         return counter.first == "selector.scored_examples";
       });
     },
     "counter selector.scored_examples is zero or missing"},
    {"span self exceeds total",
     [](RunReport* r) { r->spans[0].self_seconds = 1.0; },
     "span loop.run: self_seconds 1 exceeds total_seconds"},
    {"cache write without a miss",
     [](RunReport* r) { SetCounter(r, "featurize.cache.write", 2); },
     "every write follows a miss"},
    {"cache counters without the cache span",
     [](RunReport* r) { r->spans.pop_back(); },
     "no harness.featurize.cache span"},
    {"resumed report needs no cache span",
     [](RunReport* r) {
       r->spans.pop_back();
       r->session = "resumed";
     },
     ""},
    {"zero-valued cache counters are no cache activity",
     [](RunReport* r) {
       SetCounter(r, "featurize.cache.miss", 0);
       SetCounter(r, "featurize.cache.write", 0);
       SetCounter(r, "featurize.cache.hit", 0);
       r->spans.pop_back();
       r->cache = "off";
     },
     ""},
    {"cache off with cache activity", [](RunReport* r) { r->cache = "off"; },
     "config.cache 'off' disagrees"},
    {"cache hit without hits", [](RunReport* r) { r->cache = "hit"; },
     "config.cache 'hit' disagrees"},
    {"cache miss without misses",
     [](RunReport* r) {
       SetCounter(r, "featurize.cache.miss", 0);
       SetCounter(r, "featurize.cache.write", 0);
       SetCounter(r, "featurize.cache.hit", 1);
     },
     "config.cache 'miss' disagrees"},
    {"fit split does not tally",
     [](RunReport* r) { SetCounter(r, "ml.cold_fits", 2); },
     "ml.warm_fits 2 + ml.cold_fits 2 != ml.fit_calls 3"},
    {"unknown warm-start mode", [](RunReport* r) { r->warm_start = "auto"; },
     "config.warm_start is 'auto'"},
    {"warm fits with warm start off",
     [](RunReport* r) { r->warm_start = "off"; },
     "config.warm_start is 'off' but ml.warm_fits is 2"},
    {"no eval pool size", [](RunReport* r) { r->gauges.clear(); },
     "gauge eval.pool_rows is zero or missing"},
    {"no rows rescored",
     [](RunReport* r) { SetCounter(r, "eval.rows_rescored", 0); },
     "counter eval.rows_rescored is zero or missing"},
    {"rows rescored beyond the bound",
     [](RunReport* r) { SetCounter(r, "eval.rows_rescored", 3001); },
     "eval.rows_rescored 3001 exceeds 2 * 3 iterations * 500 pool rows"},
    {"empty latency region", [](RunReport* r) { r->latency[0].count = 0; },
     "latency loop.train: count is 0"},
    {"unordered percentiles",
     [](RunReport* r) { r->latency[1].p95_seconds = 0.001; },
     "latency selector.scoring: percentiles not ordered"},
    {"pool without workers", [](RunReport* r) { r->pool.workers = 0; },
     "pool workers 0 must be >= 1"},
    {"pool accounting gap", [](RunReport* r) { r->pool.idle_seconds = 0.5; },
     "pool accounting gap"},
    {"pool utilization above 1",
     [](RunReport* r) { r->pool.utilization = 1.5; },
     "pool utilization 1.5 outside [0, 1]"},
    {"pool region without chunks",
     [](RunReport* r) { r->pool.regions[0].chunks = 0; },
     "pool region ml.batch: runs/chunks must be positive"},
    {"pool region chunk stats unordered",
     [](RunReport* r) { r->pool.regions[0].min_chunk_seconds = 0.002; },
     "pool region ml.batch: chunk stats not ordered"},
    {"pool region utilization below 0",
     [](RunReport* r) { r->pool.regions[0].utilization = -0.1; },
     "pool region ml.batch: utilization -0.1 outside [0, 1]"},
};

std::string Join(const std::vector<std::string>& failures) {
  std::string joined;
  for (const std::string& failure : failures) joined += failure + "\n";
  return joined;
}

TEST(ValidateReportTest, ValidReportPasses) {
  EXPECT_EQ(Join(ValidateReport(MakeValidReport())), "");
  // The JSON round trip keeps it valid.
  RunReport parsed;
  std::string error;
  ASSERT_TRUE(ParseReportJson(ReportToJson(MakeValidReport()), &parsed,
                              &error))
      << error;
  EXPECT_EQ(Join(ValidateReport(parsed)), "");
}

TEST(ValidateReportTest, EachInvariantFailsAlone) {
  for (const InvariantCase& c : kInvariantCases) {
    SCOPED_TRACE(c.name);
    RunReport report = MakeValidReport();
    c.mutate(&report);
    const std::vector<std::string> failures = ValidateReport(report);
    if (*c.failure == '\0') {
      EXPECT_EQ(Join(failures), "");
      continue;
    }
    ASSERT_EQ(failures.size(), 1u) << Join(failures);
    EXPECT_NE(failures[0].find(c.failure), std::string::npos) << failures[0];
  }
}

TEST(ValidateReportTest, BenchReportSkipsRunRules) {
  // Bench reports carry no curve, labels or evaluation of their own.
  RunReport report = MakeValidReport();
  report.kind = "bench";
  report.curve.clear();
  report.counters.clear();
  report.gauges.clear();
  EXPECT_EQ(Join(ValidateReport(report)), "");
}

// ---- Trace checker ------------------------------------------------------

SpanRecord Span(const char* name, uint32_t thread_id, uint64_t start_us,
                uint64_t duration_us, const char* detail = "") {
  SpanRecord span;
  span.name = name;
  span.category = "test";
  span.detail = detail;
  span.thread_id = thread_id;
  span.start_ns = start_us * 1000;
  span.duration_ns = duration_us * 1000;
  return span;
}

// Two iterations on thread 0 that satisfy every ValidateTrace rule: each
// holds the four phases; the first trains through an ml.batch fan-out
// whose two chunks run on worker threads 1 and 2, and selects through a
// scoring span.
std::vector<SpanRecord> MakeValidTrace() {
  return {
      Span("loop.iteration", 0, 0, 100),
      Span("loop.train", 0, 0, 20),
      Span("ml.batch.parallel", 0, 5, 10),
      Span("parallel.chunk", 1, 6, 4, "ml.batch"),
      Span("parallel.chunk", 2, 6, 5, "ml.batch"),
      Span("loop.evaluate", 0, 20, 20),
      Span("loop.select", 0, 40, 40),
      Span("selector.scoring", 0, 45, 30),
      Span("loop.label", 0, 80, 20),
      Span("loop.iteration", 0, 100, 100),
      Span("loop.train", 0, 100, 20),
      Span("loop.evaluate", 0, 120, 20),
      Span("loop.select", 0, 140, 40),
      Span("loop.label", 0, 180, 20),
  };
}

// The n-th (0-based) span named `name`.
SpanRecord& Nth(std::vector<SpanRecord>* spans, const char* name, int n) {
  for (SpanRecord& span : *spans) {
    if (span.name == name && n-- == 0) return span;
  }
  ADD_FAILURE() << "no span " << name;
  return spans->front();
}

void EraseNamed(std::vector<SpanRecord>* spans, const char* name) {
  std::erase_if(*spans,
                [name](const SpanRecord& span) { return span.name == name; });
}

struct TraceCase {
  const char* name;
  void (*mutate)(std::vector<SpanRecord>*);
  // Text of the one failure the mutation must cause; "" = still valid.
  const char* failure;
};

const TraceCase kTraceCases[] = {
    {"no spans", [](std::vector<SpanRecord>* t) { t->clear(); },
     "trace contains no spans"},
    {"no iterations",
     [](std::vector<SpanRecord>* t) { EraseNamed(t, "loop.iteration"); },
     "no loop.iteration spans in trace"},
    {"iteration without a label phase",
     [](std::vector<SpanRecord>* t) { t->pop_back(); },
     "loop.label: 1 spans for 2 iterations"},
    {"phase past its iteration's end",
     [](std::vector<SpanRecord>* t) {
       Nth(t, "loop.train", 1).start_ns = 190000;
     },
     "loop.train at ts=190.000us is not nested in any loop.iteration"},
    {"phase ending 1ns late is within the grace",
     [](std::vector<SpanRecord>* t) {
       Nth(t, "loop.label", 1).duration_ns += 1;
     },
     ""},
    {"phase ending 2ns late",
     [](std::vector<SpanRecord>* t) {
       Nth(t, "loop.label", 1).duration_ns += 2;
     },
     "loop.label at ts=180.000us is not nested in any loop.iteration"},
    {"phase on another thread",
     [](std::vector<SpanRecord>* t) {
       Nth(t, "loop.evaluate", 0).thread_id = 3;
     },
     "loop.evaluate at ts=20.000us is not nested"},
    {"chunk without a region",
     [](std::vector<SpanRecord>* t) { Nth(t, "parallel.chunk", 0).detail = ""; },
     "parallel.chunk at ts=6.000us has no args.detail"},
    {"chunk outside its region's window",
     [](std::vector<SpanRecord>* t) {
       Nth(t, "parallel.chunk", 0).start_ns = 50000;
     },
     "parallel.chunk at ts=50.000us (region ml.batch) is not inside any "
     "ml.batch.parallel span"},
    {"chunk naming a region that never ran",
     [](std::vector<SpanRecord>* t) {
       Nth(t, "parallel.chunk", 1).detail = "sim.batch";
     },
     "(region sim.batch) is not inside any sim.batch.parallel span"},
    {"region without chunks",
     [](std::vector<SpanRecord>* t) { EraseNamed(t, "parallel.chunk"); },
     "ml.batch.parallel spans exist but no parallel.chunk spans"},
    {"batch fan-out outside its phase",
     [](std::vector<SpanRecord>* t) {
       Nth(t, "ml.batch.parallel", 0).thread_id = 3;
     },
     "ml.batch.parallel at ts=5.000us is not nested in any of "
     "selector.scoring/loop.train/loop.evaluate/ensemble.coverage"},
};

TEST(ValidateTraceTest, ValidTracePasses) {
  EXPECT_EQ(Join(ValidateTrace(MakeValidTrace())), "");
}

TEST(ValidateTraceTest, EachRuleFailsAlone) {
  for (const TraceCase& c : kTraceCases) {
    SCOPED_TRACE(c.name);
    std::vector<SpanRecord> trace = MakeValidTrace();
    c.mutate(&trace);
    const std::vector<std::string> failures = ValidateTrace(trace);
    if (*c.failure == '\0') {
      EXPECT_EQ(Join(failures), "");
      continue;
    }
    ASSERT_EQ(failures.size(), 1u) << Join(failures);
    EXPECT_NE(failures[0].find(c.failure), std::string::npos) << failures[0];
  }
}

// MakeValidTrace() as the Chrome trace-event JSON TraceRecorder exports.
std::string ValidTraceJson() {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  for (const SpanRecord& span : MakeValidTrace()) recorder.Record(span);
  std::string json = recorder.ToChromeTraceJson();
  recorder.Clear();
  return json;
}

TEST(ParseChromeTraceTest, ExportedTraceRoundTrips) {
  std::vector<SpanRecord> spans;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(ValidTraceJson(), &spans, &error)) << error;
  const std::vector<SpanRecord> expected = MakeValidTrace();
  ASSERT_EQ(spans.size(), expected.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, expected[i].name);
    EXPECT_EQ(spans[i].category, expected[i].category);
    EXPECT_EQ(spans[i].detail, expected[i].detail);
    EXPECT_EQ(spans[i].thread_id, expected[i].thread_id);
    EXPECT_EQ(spans[i].start_ns, expected[i].start_ns);
    EXPECT_EQ(spans[i].duration_ns, expected[i].duration_ns);
  }
  EXPECT_EQ(Join(ValidateTrace(spans)), "");
}

TEST(ParseChromeTraceTest, LegacyCounterEventsAreIgnored) {
  // Traces from runs with the retired telemetry sampler interleave "C"
  // counter events with the spans; only the "X" events are read.
  std::string json = ValidTraceJson();
  const std::string head = "{\"traceEvents\":[";
  ASSERT_EQ(json.compare(0, head.size(), head), 0) << json;
  json.insert(head.size(),
              "\n{\"name\":\"telemetry.rss_mib\",\"cat\":\"telemetry\","
              "\"ph\":\"C\",\"ts\":12.000,\"pid\":1,\"tid\":0,"
              "\"args\":{\"value\":48.5}},");
  std::vector<SpanRecord> spans;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &spans, &error)) << error;
  EXPECT_EQ(spans.size(), MakeValidTrace().size());
  EXPECT_EQ(Join(ValidateTrace(spans)), "");
}

TEST(ParseChromeTraceTest, RejectsMalformedInputNamingTheProblem) {
  struct Case {
    const char* name;
    const char* json;
    const char* error;
  };
  const Case cases[] = {
      {"malformed JSON", "{\"traceEvents\": [", "malformed JSON"},
      {"root is not an object", "[]", "no traceEvents array"},
      {"missing traceEvents", "{\"events\": []}", "no traceEvents array"},
      {"traceEvents is not an array", "{\"traceEvents\": {}}",
       "no traceEvents array"},
      {"event is not an object", "{\"traceEvents\": [1]}",
       "traceEvents[0] is not an object"},
      {"missing name",
       "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 1, \"dur\": 1, \"tid\": 0}]}",
       "traceEvents[0]: name missing"},
      {"name of the wrong type",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": 7, \"ts\": 1, "
       "\"dur\": 1, \"tid\": 0}]}",
       "traceEvents[0]: name is not a string"},
      {"missing ts",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"dur\": 1, "
       "\"tid\": 0}]}",
       "traceEvents[0] (a): ts missing"},
      {"ts of the wrong type",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": \"1\", "
       "\"dur\": 1, \"tid\": 0}]}",
       "traceEvents[0] (a): ts is not a number"},
      {"negative ts",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": -1, "
       "\"dur\": 1, \"tid\": 0}]}",
       "traceEvents[0] (a): ts -1 is negative"},
      {"missing dur",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"tid\": 0}]}",
       "traceEvents[0] (a): dur missing"},
      {"dur of the wrong type",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"dur\": null, \"tid\": 0}]}",
       "traceEvents[0] (a): dur is not a number"},
      {"negative dur",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"dur\": -5, \"tid\": 0}]}",
       "traceEvents[0] (a): dur -5 is negative"},
      {"dur beyond any clock",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"dur\": 1e300, \"tid\": 0}]}",
       "traceEvents[0] (a): dur 1e+300 is out of range"},
      {"missing tid",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"dur\": 1}]}",
       "traceEvents[0] (a): tid missing"},
      {"tid of the wrong type",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"dur\": 1, \"tid\": \"0\"}]}",
       "traceEvents[0] (a): tid is not a number"},
      {"fractional tid",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"dur\": 1, \"tid\": 1.5}]}",
       "traceEvents[0] (a): tid 1.5 is not a non-negative integer"},
      {"negative tid",
       "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 1, "
       "\"dur\": 1, \"tid\": -1}]}",
       "traceEvents[0] (a): tid -1 is not a non-negative integer"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<SpanRecord> spans = MakeValidTrace();
    std::string error;
    EXPECT_FALSE(ParseChromeTrace(c.json, &spans, &error));
    EXPECT_NE(error.find(c.error), std::string::npos) << error;
    // A failed parse leaves the output untouched.
    EXPECT_EQ(spans.size(), MakeValidTrace().size());
  }
}

}  // namespace
}  // namespace obs
}  // namespace alem
