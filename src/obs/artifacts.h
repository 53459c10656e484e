// ArtifactOptions — the single resolution point for observability artifact
// destinations and the feature-cache policy, shared by alem_cli and the
// bench binaries. There are three artifacts: the Chrome trace (the one
// trace format; `alem_report check-trace` validates it), the metrics CSV,
// and the RunReport.
//
// Before this lived here, alem_cli parsed --trace/--metrics/--report flags
// while bench_util.cc separately interpreted ALEM_TRACE_DIR /
// ALEM_REPORT_DIR, and the two drifted. Now both front ends build an
// ArtifactOptions and the precedence rule lives in exactly one place:
//
//   explicit flag (--trace=PATH, --cache-dir=DIR, --no-cache)
//     > environment (ALEM_TRACE_DIR, ALEM_REPORT_DIR, ALEM_CACHE_DIR)
//       > off
//
// Directory-style environment knobs (ALEM_TRACE_DIR / ALEM_REPORT_DIR)
// expand to "<dir>/<sanitized artifact>.<ext>" file paths; flag values are
// used verbatim. The feature cache directory itself is resolved later by
// FeatureCache::ResolveDir (PrepareDataset), so cache_dir here only carries
// the explicit override and use_cache the --no-cache veto.

#ifndef ALEM_OBS_ARTIFACTS_H_
#define ALEM_OBS_ARTIFACTS_H_

#include <string>

#include "util/flags.h"

namespace alem {
namespace obs {

struct ArtifactOptions {
  // Destination paths; empty = that artifact is off.
  std::string trace_path;    // Chrome trace-event JSON
  std::string metrics_path;  // counter/gauge/histogram CSV
  std::string report_path;   // RunReport flight-recorder JSON

  // Feature-cache policy, forwarded into PrepareOptions.
  std::string cache_dir;  // explicit override; "" defers to ALEM_CACHE_DIR
  bool use_cache = true;  // false (--no-cache) disables the cache outright

  // The report needs spans (self-time rollup) and counters, so it implies
  // both subsystems; a metrics CSV alone only needs the metric registry.
  bool tracing_wanted() const {
    return !trace_path.empty() || !report_path.empty();
  }
  bool metrics_wanted() const {
    return tracing_wanted() || !metrics_path.empty();
  }

  // Switches the tracing / metrics subsystems on as implied by the paths.
  // Must run before PrepareDataset so preprocessing spans are captured.
  void EnableObservability() const;

  // Writes the trace and metrics artifacts from the global registries,
  // printing one line per file. Returns 0 on success, 1 if any write
  // failed. The report is written by the caller (run- and bench-kind
  // reports are assembled differently).
  int ExportTraceAndMetrics() const;
};

// Filesystem-safe artifact name: alphanumerics preserved, the rest '_'.
std::string SanitizeArtifactName(const std::string& name);

// Environment-only resolution (bench binaries).
ArtifactOptions ArtifactOptionsFromEnv(const std::string& artifact);

// Flag + environment resolution (alem_cli): explicit path flags win; absent
// ones fall back to the ALEM_*_DIR expansion for `artifact`.
ArtifactOptions ArtifactOptionsFromFlags(const FlagParser& flags,
                                         const std::string& artifact);

}  // namespace obs
}  // namespace alem

#endif  // ALEM_OBS_ARTIFACTS_H_
