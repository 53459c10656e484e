// alem_report: inspect, compare, and gate RunReport flight-recorder
// artifacts (see src/obs/report.h for the schema), and check Chrome traces.
//
// Commands:
//   alem_report show REPORT.json
//       Prints a human summary: config, F1 summary, top spans by self time,
//       per-layer throughput (a work counter over its span's total time),
//       per-region latency percentiles, the thread-pool utilization section
//       (when present), and counters.
//   alem_report compare A.json B.json
//       Side-by-side key numbers for two reports (quality + latency).
//   alem_report diff A.json B.json
//       Lists every differing summary field, counter, and span rollup row.
//   alem_report check REPORT.json
//       Validates one report: exits nonzero (printing each violation) when
//       it breaks an invariant of obs::ValidateReport (monotone curve,
//       nonzero work counters, cache provenance, fit split, rescore bound,
//       ordered percentiles, pool accounting).
//   alem_report check BASELINE.json CANDIDATE.json
//       [--f1-tol=0.02] [--latency-tol=FRAC] [--counter-tol=FRAC]
//       [--latency-p95-tol=FRAC] [--exact-curve]
//       The regression gate: validates the candidate as above (committed
//       baselines may predate newer invariants, so they are not), then
//       fails when the candidate's F1 trails the baseline beyond --f1-tol,
//       when latency/counter gates (opt-in) trip, or when --exact-curve
//       finds any divergence in a deterministic curve field. This is what
//       the `report` ctest label runs against the committed golden
//       baseline.
//   alem_report check-trace TRACE.json
//       Validates a Chrome trace (alem_cli --trace): exits nonzero
//       (printing each violation) when it breaks a span-nesting rule of
//       obs::ValidateTrace — phases inside iterations, pool chunks inside
//       their region, batch inference inside the phase that owns it.
//
// Only the two-report check takes flags; any other flag, or a misspelled
// one, is an error rather than a silently disabled gate.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "util/flags.h"

namespace alem {
namespace {

using obs::RunReport;

bool Load(const std::string& path, RunReport* report) {
  std::string error;
  if (!obs::LoadReportFile(path, report, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

void PrintSummaryLine(const RunReport& report) {
  if (report.kind == "run") {
    std::printf("  %s on %s (data_seed=%llu run_seed=%llu scale=%.3g "
                "threads=%d)\n",
                report.approach.c_str(), report.dataset.c_str(),
                static_cast<unsigned long long>(report.data_seed),
                static_cast<unsigned long long>(report.run_seed),
                report.scale, report.threads);
    std::printf("  best F1 %.4f, final F1 %.4f, %zu iterations, "
                "%llu labels to converge, total wait %.3fs\n",
                report.best_f1, report.final_f1, report.curve.size(),
                static_cast<unsigned long long>(report.labels_to_converge),
                report.total_wait_seconds);
  }
  std::printf("  wall %.3fs, peak RSS %llu bytes (%.1f MiB), build %s\n",
              report.wall_seconds,
              static_cast<unsigned long long>(report.peak_rss_bytes),
              static_cast<double>(report.peak_rss_bytes) / (1024.0 * 1024.0),
              report.build.c_str());
}

void PrintLatencyTable(const RunReport& report) {
  if (report.latency.empty()) return;
  std::printf("\n  %-28s %7s %10s %10s %10s\n", "latency region", "count",
              "p50(ms)", "p95(ms)", "p99(ms)");
  for (const obs::LatencyEntry& entry : report.latency) {
    std::printf("  %-28s %7llu %10.3f %10.3f %10.3f\n", entry.name.c_str(),
                static_cast<unsigned long long>(entry.count),
                entry.p50_seconds * 1e3, entry.p95_seconds * 1e3,
                entry.p99_seconds * 1e3);
  }
}

void PrintPoolSummary(const RunReport& report) {
  if (!report.has_pool) return;
  const obs::PoolStats& pool = report.pool;
  std::printf("\n  pool: %d workers, %.0f%% utilized "
              "(busy %.3fs, idle %.3fs, queue-wait %.3fs, wall %.3fs)\n",
              pool.workers, pool.utilization * 100.0, pool.busy_seconds,
              pool.idle_seconds, pool.queue_wait_seconds,
              pool.worker_wall_seconds);
  if (pool.regions.empty()) return;
  std::printf("  %-28s %5s %7s %10s %10s %10s %6s\n", "pool region", "runs",
              "chunks", "min(ms)", "mean(ms)", "max(ms)", "util");
  for (const obs::PoolRegionStats& region : pool.regions) {
    std::printf("  %-28s %5llu %7llu %10.3f %10.3f %10.3f %5.0f%%\n",
                region.name.c_str(),
                static_cast<unsigned long long>(region.runs),
                static_cast<unsigned long long>(region.chunks),
                region.min_chunk_seconds * 1e3,
                region.mean_chunk_seconds * 1e3,
                region.max_chunk_seconds * 1e3, region.utilization * 100.0);
  }
}

// Human-scaled "1.23M" formatting for throughput columns, where raw
// items/sec spans six orders of magnitude between regions.
std::string FormatRate(double value) {
  char buf[32];
  if (value >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", value / 1e9);
  } else if (value >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fk", value / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", value);
  }
  return buf;
}

// Items/s per layer from the report alone: a work counter over the total
// time of the span that does that work. Rows with a missing or zero side
// are skipped. A resumed report's counters cover both processes while its
// spans cover only the resuming one, so it gets no table.
void PrintThroughputTable(const RunReport& report) {
  if (report.session == "resumed") return;
  static constexpr std::pair<const char*, const char*> kRows[] = {
      {"harness.featurize", "blocking.candidate_pairs"},
      {"harness.featurize", "sim.calls"},
      {"selector.scoring", "selector.scored_examples"},
      {"loop.evaluate", "eval.rows_rescored"},
  };
  bool header = false;
  for (const auto& [span_name, counter_name] : kRows) {
    const uint64_t items = report.CounterOr(counter_name);
    const auto span =
        std::find_if(report.spans.begin(), report.spans.end(),
                     [span_name = span_name](const obs::SpanRollupEntry& s) {
                       return s.name == span_name;
                     });
    if (items == 0 || span == report.spans.end() ||
        !(span->total_seconds > 0.0)) {
      continue;
    }
    if (!header) {
      std::printf("\n  %-20s %-26s %11s %11s %10s\n", "throughput span",
                  "counter", "items", "total(ms)", "items/s");
      header = true;
    }
    std::printf("  %-20s %-26s %11llu %11.3f %10s\n", span_name,
                counter_name, static_cast<unsigned long long>(items),
                span->total_seconds * 1e3,
                FormatRate(static_cast<double>(items) / span->total_seconds)
                    .c_str());
  }
}

int CommandShow(const std::string& path) {
  RunReport report;
  if (!Load(path, &report)) return 1;
  std::printf("%s: %s report from %s\n", path.c_str(), report.kind.c_str(),
              report.tool.c_str());
  PrintSummaryLine(report);
  std::printf("\n  %-28s %7s %11s %11s\n", "span", "count", "total(ms)",
              "self(ms)");
  const size_t top = std::min<size_t>(report.spans.size(), 12);
  for (size_t i = 0; i < top; ++i) {
    const obs::SpanRollupEntry& span = report.spans[i];
    std::printf("  %-28s %7llu %11.3f %11.3f\n", span.name.c_str(),
                static_cast<unsigned long long>(span.count),
                span.total_seconds * 1e3, span.self_seconds * 1e3);
  }
  PrintThroughputTable(report);
  PrintLatencyTable(report);
  PrintPoolSummary(report);
  std::printf("\n");
  for (const auto& [name, value] : report.counters) {
    std::printf("  %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  return 0;
}

int CommandCompare(const std::string& path_a, const std::string& path_b) {
  RunReport a, b;
  if (!Load(path_a, &a) || !Load(path_b, &b)) return 1;
  std::printf("%-24s %14s %14s %10s\n", "", "A", "B", "delta");
  auto row = [](const char* name, double va, double vb) {
    std::printf("%-24s %14.6g %14.6g %+10.4g\n", name, va, vb, vb - va);
  };
  row("best_f1", a.best_f1, b.best_f1);
  row("final_f1", a.final_f1, b.final_f1);
  row("iterations", static_cast<double>(a.curve.size()),
      static_cast<double>(b.curve.size()));
  row("labels_to_converge", static_cast<double>(a.labels_to_converge),
      static_cast<double>(b.labels_to_converge));
  row("total_wait_seconds", a.total_wait_seconds, b.total_wait_seconds);
  row("wall_seconds", a.wall_seconds, b.wall_seconds);
  row("peak_rss_mib", static_cast<double>(a.peak_rss_bytes) / 1048576.0,
      static_cast<double>(b.peak_rss_bytes) / 1048576.0);
  for (const auto& [name, value] : a.counters) {
    const uint64_t other = b.CounterOr(name, 0);
    if (value != other) {
      row(name.c_str(), static_cast<double>(value),
          static_cast<double>(other));
    }
  }
  for (const obs::LatencyEntry& entry_a : a.latency) {
    for (const obs::LatencyEntry& entry_b : b.latency) {
      if (entry_b.name != entry_a.name) continue;
      row(("p95." + entry_a.name).c_str(), entry_a.p95_seconds,
          entry_b.p95_seconds);
      break;
    }
  }
  if (a.has_pool || b.has_pool) {
    row("pool.workers", static_cast<double>(a.pool.workers),
        static_cast<double>(b.pool.workers));
    row("pool.utilization", a.pool.utilization, b.pool.utilization);
  }
  std::printf("  (A = %s, B = %s)\n", path_a.c_str(), path_b.c_str());
  return 0;
}

int CommandDiff(const std::string& path_a, const std::string& path_b) {
  RunReport a, b;
  if (!Load(path_a, &a) || !Load(path_b, &b)) return 1;
  size_t differences = 0;
  auto report_diff = [&differences](const std::string& field,
                                    const std::string& va,
                                    const std::string& vb) {
    std::printf("%-32s %s -> %s\n", field.c_str(), va.c_str(), vb.c_str());
    ++differences;
  };
  auto number = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  if (a.kind != b.kind) report_diff("kind", a.kind, b.kind);
  if (a.tool != b.tool) report_diff("tool", a.tool, b.tool);
  if (a.build != b.build) report_diff("build", a.build, b.build);
  if (a.dataset != b.dataset) report_diff("config.dataset", a.dataset,
                                          b.dataset);
  if (a.approach != b.approach) report_diff("config.approach", a.approach,
                                            b.approach);
  if (a.threads != b.threads) {
    report_diff("config.threads", number(a.threads), number(b.threads));
  }
  if (a.scale != b.scale) {
    report_diff("config.scale", number(a.scale), number(b.scale));
  }
  if (a.curve.size() != b.curve.size()) {
    report_diff("summary.iterations", number(a.curve.size()),
                number(b.curve.size()));
  }
  if (a.best_f1 != b.best_f1) {
    report_diff("summary.best_f1", number(a.best_f1), number(b.best_f1));
  }
  if (a.final_f1 != b.final_f1) {
    report_diff("summary.final_f1", number(a.final_f1), number(b.final_f1));
  }
  const size_t curve_common = std::min(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < curve_common; ++i) {
    if (a.curve[i].f1 != b.curve[i].f1 ||
        a.curve[i].labels_used != b.curve[i].labels_used) {
      report_diff("curve[" + std::to_string(i) + "]",
                  number(a.curve[i].labels_used) + " labels, F1 " +
                      number(a.curve[i].f1),
                  number(b.curve[i].labels_used) + " labels, F1 " +
                      number(b.curve[i].f1));
    }
  }
  for (const auto& [name, value] : a.counters) {
    const uint64_t other = b.CounterOr(name, UINT64_MAX);
    if (other == UINT64_MAX) {
      report_diff("counters." + name, std::to_string(value), "(missing)");
    } else if (other != value) {
      report_diff("counters." + name, std::to_string(value),
                  std::to_string(other));
    }
  }
  for (const auto& [name, value] : b.counters) {
    if (a.CounterOr(name, UINT64_MAX) == UINT64_MAX) {
      report_diff("counters." + name, "(missing)", std::to_string(value));
    }
  }
  std::printf("%zu difference%s\n", differences,
              differences == 1 ? "" : "s");
  return 0;
}

// Prints each failure to stderr; true when there are none.
bool Passes(const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  }
  return failures.empty();
}

int CommandValidate(const std::string& path) {
  RunReport report;
  if (!Load(path, &report)) return 1;
  if (!Passes(obs::ValidateReport(report))) return 1;
  std::printf("report check OK (%s)\n", path.c_str());
  return 0;
}

int CommandCheck(const FlagParser& flags, const std::string& baseline_path,
                 const std::string& candidate_path) {
  RunReport baseline, candidate;
  if (!Load(baseline_path, &baseline) || !Load(candidate_path, &candidate)) {
    return 1;
  }
  obs::ReportCheckOptions options;
  options.f1_tol = flags.GetDouble("f1-tol", options.f1_tol);
  options.latency_tol = flags.GetDouble("latency-tol", options.latency_tol);
  options.counter_tol = flags.GetDouble("counter-tol", options.counter_tol);
  options.latency_p95_tol =
      flags.GetDouble("latency-p95-tol", options.latency_p95_tol);
  options.exact_curve = flags.GetBool("exact-curve", false);
  std::vector<std::string> failures = obs::ValidateReport(candidate);
  for (std::string& failure :
       obs::CheckReports(baseline, candidate, options)) {
    failures.push_back(std::move(failure));
  }
  if (!Passes(failures)) return 1;
  std::printf("report check OK (%s vs %s, f1-tol=%.4g%s)\n",
              candidate_path.c_str(), baseline_path.c_str(), options.f1_tol,
              options.exact_curve ? ", exact-curve" : "");
  return 0;
}

int CommandCheckTrace(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream content;
  content << file.rdbuf();
  std::vector<obs::SpanRecord> spans;
  std::string error;
  if (!obs::ParseChromeTrace(content.str(), &spans, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (!Passes(obs::ValidateTrace(spans))) return 1;
  std::printf("trace check OK (%s, %zu spans)\n", path.c_str(), spans.size());
  return 0;
}

int Usage() {
  std::printf(
      "usage: alem_report <show|compare|diff|check|check-trace> [flags]\n"
      "  alem_report show RUN.report.json\n"
      "  alem_report compare A.report.json B.report.json\n"
      "  alem_report diff A.report.json B.report.json\n"
      "  alem_report check REPORT.json\n"
      "  alem_report check BASELINE.json CANDIDATE.json [--f1-tol=0.02]\n"
      "      [--latency-tol=FRAC] [--counter-tol=FRAC]\n"
      "      [--latency-p95-tol=FRAC] [--exact-curve]\n"
      "  alem_report check-trace TRACE.json\n");
  return 1;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const std::vector<std::string>& args = flags.positional();
  if (args.empty()) return Usage();
  const std::string& command = args[0];
  std::vector<std::string_view> accepted;
  if (command == "check" && args.size() == 3) {
    accepted = {"f1-tol", "latency-tol", "counter-tol", "latency-p95-tol",
                "exact-curve"};
  }
  const std::vector<std::string> unknown = flags.UnknownFlags(accepted);
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "error: alem_report %s: unknown flag --%s\n",
                 command.c_str(), name.c_str());
  }
  if (!unknown.empty()) return 1;
  if (command == "show" && args.size() == 2) return CommandShow(args[1]);
  if (command == "compare" && args.size() == 3) {
    return CommandCompare(args[1], args[2]);
  }
  if (command == "diff" && args.size() == 3) {
    return CommandDiff(args[1], args[2]);
  }
  if (command == "check" && args.size() == 2) return CommandValidate(args[1]);
  if (command == "check" && args.size() == 3) {
    return CommandCheck(flags, args[1], args[2]);
  }
  if (command == "check-trace" && args.size() == 2) {
    return CommandCheckTrace(args[1]);
  }
  return Usage();
}

}  // namespace
}  // namespace alem

int main(int argc, char** argv) { return alem::Main(argc, argv); }
