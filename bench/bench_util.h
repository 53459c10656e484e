// Shared helpers for the per-figure/per-table benchmark harnesses.
//
// Every harness prints the same series the corresponding paper figure plots
// (x = #labeled examples, y = metric), as aligned text tables. Environment
// knobs let users scale runs up toward paper-sized experiments:
//   ALEM_SCALE      dataset size multiplier        (default 1.0)
//   ALEM_MAX_LABELS label budget per run           (default per-bench)
//   ALEM_RUNS       repetitions for noisy oracles  (default per-bench)
//   ALEM_THREADS    worker threads for committee fits / example scoring /
//                   forest fits (default hardware concurrency; 1 = serial;
//                   results are identical at any count)
//   ALEM_CSV_DIR    when set, every printed series table is also written
//                   as <dir>/<sanitized title>.csv for plotting
//   ALEM_TRACE_DIR  when set, enables the obs subsystem and writes
//                   <dir>/<sanitized artifact>.trace.json (Chrome trace,
//                   Perfetto-loadable) and <dir>/<...>.metrics.csv at exit,
//                   so every paper-figure bench emits a trace alongside
//                   its CSV (see docs/observability.md)
//   ALEM_REPORT_DIR when set, enables the obs subsystem and writes the
//                   "bench"-kind RunReport flight-recorder JSON
//                   (<dir>/<sanitized artifact>.report.json: build stamp,
//                   counters, span self-time rollup, wall/peak-RSS totals)
//                   at exit; read one with `alem_report show`
//   ALEM_CACHE_DIR  when set, PrepareDataset persists each float feature
//                   matrix there and reloads it on subsequent runs
//                   (content-addressed, so profile/seed/scale/similarity
//                   changes invalidate automatically; --no-cache-style
//                   opt-out is per-call via PrepareOptions::use_cache;
//                   see docs/featurization.md)

#ifndef ALEM_BENCH_BENCH_UTIL_H_
#define ALEM_BENCH_BENCH_UTIL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/harness.h"

namespace alem {
namespace bench {

double ScaleFromEnv(double default_scale = 1.0);
size_t MaxLabelsFromEnv(size_t default_labels);
size_t RunsFromEnv(size_t default_runs);

// Prints the bench banner: which paper artifact this regenerates, the
// workload parameters in effect, and the build (git describe) the numbers
// are attributable to. When ALEM_TRACE_DIR / ALEM_REPORT_DIR is set this
// also switches tracing + metrics on and registers an at-exit export of
// the trace/metrics/report artifacts into those directories.
void PrintHeader(const std::string& artifact, const std::string& description);

// The compile-time git identity baked into this binary ("unknown" when the
// build tree had no git metadata).
const char* BuildGitSha();

// One plotted line: (x = #labels, y = value) points.
struct Series {
  std::string name;
  std::vector<std::pair<size_t, double>> points;
};

Series CurveF1(const std::string& name,
               const std::vector<IterationStats>& curve);
Series CurveWaitSeconds(const std::string& name,
                        const std::vector<IterationStats>& curve);
Series CurveCommitteeSeconds(const std::string& name,
                             const std::vector<IterationStats>& curve);
Series CurveScoringSeconds(const std::string& name,
                           const std::vector<IterationStats>& curve);
Series CurveDnfAtoms(const std::string& name,
                     const std::vector<IterationStats>& curve);
Series CurveTreeDepth(const std::string& name,
                      const std::vector<IterationStats>& curve);

// Prints series side by side on a #labels grid; shorter series are padded
// with their final value (an approach that terminated keeps its result).
void PrintSeriesTable(const std::string& title,
                      const std::vector<Series>& series, int value_digits = 3);

// Prints a mean / p50 / p95 / p99 summary row per series over the y values
// (nearest-rank percentiles on a sorted copy) — the tail view next to the
// per-iteration tables, since means hide exactly the latency spikes the
// user-wait figures are about.
void PrintSeriesPercentiles(const std::string& title,
                            const std::vector<Series>& series,
                            int value_digits = 3);

// Convenience: run one approach on a prepared dataset with common settings.
RunResult Run(const PreparedDataset& data, const ApproachSpec& spec,
              size_t max_labels, double noise = 0.0, bool holdout = false,
              uint64_t run_seed = 1);

}  // namespace bench
}  // namespace alem

#endif  // ALEM_BENCH_BENCH_UTIL_H_
