// Sample statistics, BENCHMARK.json loading, and `alem_perf compare`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perf.h"
#include "util/json.h"

namespace alem {
namespace perf {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 0) return {0.0, 0.0, 0.0};
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(..., n=4, method="exclusive"), step for step.
  const long m = n + 1;
  std::vector<double> result;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    result.push_back((values[static_cast<size_t>(j - 1)] *
                          static_cast<double>(4 - delta) +
                      values[static_cast<size_t>(j)] *
                          static_cast<double>(delta)) /
                     4.0);
  }
  return result;
}

namespace {

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

bool ParseMetricList(const JsonValue* list, bool with_bound,
                     std::vector<MetricDef>* out) {
  if (list == nullptr || !list->is_array()) return false;
  for (const JsonValue& item : list->array()) {
    const JsonValue* name = item.Find("name");
    const JsonValue* unit = item.Find("unit");
    const JsonValue* better = item.Find("better");
    const JsonValue* bound = item.Find("bound");
    if (name == nullptr || !name->is_string() || unit == nullptr ||
        !unit->is_string() || better == nullptr || !better->is_string() ||
        (with_bound && (bound == nullptr || !bound->is_number()))) {
      return false;
    }
    out->push_back(MetricDef{name->string_value(), unit->string_value(),
                             better->string_value(),
                             with_bound ? bound->number_value() : -1.0});
  }
  return true;
}

// values[workload][metric] = one value per run, in file order.
using ValueTable =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

struct ResultSet {
  ValueTable values;
  std::set<std::string> builds;
  size_t runs = 0;
  size_t failed_runs = 0;
};

bool LoadResultSet(const std::string& path, ResultSet* set,
                   std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    *error = "cannot read '" + path + "'";
    return false;
  }
  std::istringstream lines(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    if (line.empty()) continue;
    JsonValue record;
    std::string parse_error;
    if (!JsonValue::Parse(line, &record, &parse_error)) {
      *error = path + ":" + std::to_string(line_number) + ": " + parse_error;
      return false;
    }
    const JsonValue* workload = record.Find("workload");
    const JsonValue* metrics = record.Find("metrics");
    const JsonValue* correct = record.Find("correct");
    if (workload == nullptr || !workload->is_string() || metrics == nullptr ||
        !metrics->is_object()) {
      *error = path + ":" + std::to_string(line_number) +
               ": not an alem_perf record";
      return false;
    }
    ++set->runs;
    if (correct == nullptr || !correct->is_bool() || !correct->bool_value()) {
      ++set->failed_runs;
    }
    if (const JsonValue* build = record.Find("build");
        build != nullptr && build->is_string()) {
      set->builds.insert(build->string_value());
    }
    for (const auto& [name, metric] : metrics->object()) {
      const JsonValue* value = metric.Find("value");
      if (value != nullptr && value->is_number()) {
        set->values[workload->string_value()][name].push_back(
            value->number_value());
      }
    }
  }
  return true;
}

std::string Join(const std::set<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : ",") + item;
  return out.empty() ? "?" : out;
}

double Relative(double part, double base) {
  return base != 0.0 ? part / std::fabs(base) : (part == 0.0 ? 0.0 : INFINITY);
}

// better / same / worse / unresolved for one bounded metric. A change whose
// spread (quartile distance over median, either set) exceeds the bound is
// unresolved unless every B run reads better (or worse) than every A run.
std::string Verdict(const MetricDef& def, const std::vector<double>& a,
                    const std::vector<double>& b, double worse_by,
                    double spread) {
  const bool lower = def.better == "lower";
  const auto [a_min, a_max] = std::minmax_element(a.begin(), a.end());
  const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
  const bool b_all_better = lower ? *b_max < *a_min : *b_min > *a_max;
  const bool b_all_worse = lower ? *b_min > *a_max : *b_max < *a_min;
  if (spread > def.bound) {
    return b_all_better ? "better" : b_all_worse ? "worse" : "unresolved";
  }
  if (worse_by > def.bound) return "worse";
  if (worse_by < -def.bound) return "better";
  return "same";
}

}  // namespace

bool LoadBenchmarkSpec(const std::string& path, BenchmarkSpec* spec,
                       std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    *error = "cannot read '" + path + "'";
    return false;
  }
  JsonValue root;
  if (!JsonValue::Parse(text, &root, error)) return false;
  BenchmarkSpec parsed;
  const JsonValue* workloads = root.Find("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    *error = path + ": no workloads list";
    return false;
  }
  for (const JsonValue& workload : workloads->array()) {
    const JsonValue* name = workload.Find("name");
    if (name == nullptr || !name->is_string()) {
      *error = path + ": workload without a name";
      return false;
    }
    parsed.workloads.push_back(name->string_value());
  }
  if (!ParseMetricList(root.Find("end_to_end"), true, &parsed.end_to_end) ||
      !ParseMetricList(root.Find("per_layer"), false, &parsed.per_layer)) {
    *error = path + ": malformed end_to_end or per_layer metric list";
    return false;
  }
  *spec = std::move(parsed);
  return true;
}

int RunCompare(int argc, char** argv) {
  const std::vector<std::string> files(argv + 2, argv + argc);
  if (files.size() != 2) {
    std::fprintf(stderr, "usage: alem_perf compare A.jsonl B.jsonl\n");
    return 2;
  }
  BenchmarkSpec spec;
  std::string error;
  if (!LoadBenchmarkSpec(kBenchmarkJson, &spec, &error)) {
    std::fprintf(stderr, "alem_perf compare: %s\n", error.c_str());
    return 2;
  }
  ResultSet sets[2];
  for (int s = 0; s < 2; ++s) {
    if (!LoadResultSet(files[static_cast<size_t>(s)], &sets[s], &error)) {
      std::fprintf(stderr, "alem_perf compare: %s\n", error.c_str());
      return 2;
    }
    std::printf("# set %c: %s  runs=%zu failed=%zu build=%s\n", 'A' + s,
                files[static_cast<size_t>(s)].c_str(), sets[s].runs,
                sets[s].failed_runs, Join(sets[s].builds).c_str());
  }

  std::vector<MetricDef> metrics = spec.end_to_end;
  metrics.insert(metrics.end(), spec.per_layer.begin(), spec.per_layer.end());
  std::vector<std::string> workloads = spec.workloads;
  for (const auto& [name, unused] : sets[0].values) {
    if (std::find(workloads.begin(), workloads.end(), name) ==
        workloads.end()) {
      workloads.push_back(name);
    }
  }

  std::printf("%-16s %-26s %5s %12s %12s %12s %12s %12s %12s %8s %7s  %s\n",
              "workload", "metric", "n", "A.q1", "A.median", "A.q3", "B.q1",
              "B.median", "B.q3", "delta", "bound", "verdict");
  std::map<std::string, int> tally;
  for (const std::string& workload : workloads) {
    for (const MetricDef& def : metrics) {
      const auto find =
          [&](const ResultSet& set) -> const std::vector<double>* {
        const auto w = set.values.find(workload);
        if (w == set.values.end()) return nullptr;
        const auto m = w->second.find(def.name);
        return m == w->second.end() ? nullptr : &m->second;
      };
      const std::vector<double>* a = find(sets[0]);
      const std::vector<double>* b = find(sets[1]);
      if (a == nullptr || b == nullptr) continue;
      const std::vector<double> qa = Quartiles(*a);
      const std::vector<double> qb = Quartiles(*b);
      const double delta = Relative(qb[1] - qa[1], qa[1]);
      const double worse_by = def.better == "lower" ? delta : -delta;
      const double spread = std::max(Relative(qa[2] - qa[0], qa[1]),
                                     Relative(qb[2] - qb[0], qb[1]));
      std::string verdict = "-";
      if (def.bound >= 0.0) {
        verdict = Verdict(def, *a, *b, worse_by, spread);
        ++tally[verdict];
      }
      char bound[16] = "-";
      if (def.bound >= 0.0) {
        std::snprintf(bound, sizeof(bound), "%.3f", def.bound);
      }
      std::printf(
          "%-16s %-26s %2zu/%-2zu %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g "
          "%+7.2f%% %7s  %s\n",
          workload.c_str(), def.name.c_str(), a->size(), b->size(), qa[0],
          qa[1], qa[2], qb[0], qb[1], qb[2], 100.0 * delta, bound,
          verdict.c_str());
    }
  }
  std::printf("# verdicts: better=%d same=%d worse=%d unresolved=%d\n",
              tally["better"], tally["same"], tally["worse"],
              tally["unresolved"]);
  const bool failed_runs = sets[0].failed_runs + sets[1].failed_runs > 0;
  if (failed_runs) std::printf("# some runs failed their correctness checks\n");
  return tally["worse"] + tally["unresolved"] > 0 || failed_runs ? 1 : 0;
}

}  // namespace perf
}  // namespace alem
