// Builds the obs::RunReport flight-recorder artifact for one
// RunActiveLearning call: translates the IterationStats curve, copies the
// run configuration and dataset provenance, and stamps the observability
// rollups (counters, span self-times, peak RSS) from the global
// registries. Callers that want counters and span rollups populated must
// enable metrics/tracing before the run (alem_cli --report does).

#ifndef ALEM_CORE_RUN_REPORT_H_
#define ALEM_CORE_RUN_REPORT_H_

#include <string_view>

#include "core/harness.h"
#include "obs/report.h"

namespace alem {

obs::RunReport BuildRunReport(const PreparedDataset& data,
                              const RunConfig& config,
                              const RunResult& result, double wall_seconds,
                              std::string_view tool = "alem_cli");

}  // namespace alem

#endif  // ALEM_CORE_RUN_REPORT_H_
