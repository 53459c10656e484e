// Shared pieces of alem_perf: sample statistics, the BENCHMARK.json metric
// definitions, and the `compare` subcommand.

#ifndef ALEM_BENCH_PERF_PERF_H_
#define ALEM_BENCH_PERF_PERF_H_

#include <string>
#include <vector>

namespace alem {
namespace perf {

// Linearly interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// First quartile, median and third quartile with the same rule as Python's
// statistics.quantiles(values, n=4) (method "exclusive"), so spreads read
// the same here as in any script that checks the ledger. Needs >= 2 values;
// a single value is returned three times.
std::vector<double> Quartiles(std::vector<double> values);

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  double bound = -1.0;  // Relative regression bound; -1 for per-layer.
};

struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

// The BENCHMARK.json at the root of the checkout alem_perf was built from.
inline constexpr const char* kBenchmarkJson = ALEM_PERF_BENCHMARK_JSON;

// Reads the metric definitions from a BENCHMARK.json file.
bool LoadBenchmarkSpec(const std::string& path, BenchmarkSpec* spec,
                       std::string* error);

// `alem_perf compare A.jsonl B.jsonl`, with the bounds of kBenchmarkJson.
int RunCompare(int argc, char** argv);

}  // namespace perf
}  // namespace alem

#endif  // ALEM_BENCH_PERF_PERF_H_
