// End-to-end experiment harness.
//
// PrepareDataset runs the full preprocessing pipeline once per dataset
// (generate -> offline blocking -> float features -> Boolean features), and
// RunActiveLearning executes one (approach, oracle, evaluation-protocol)
// cell on a prepared dataset. Benchmarks and examples are thin layers over
// these two calls.
//
// PrepareDataset takes a PrepareOptions aggregate rather than positional
// arguments: the options map 1:1 onto the provenance block of RunReport
// artifacts, so every knob that changes the prepared bytes (profile, seed,
// scale) or how they are obtained (cache policy, thread count) is named at
// the call site. The float feature matrix is served from the persistent
// feature cache when one is configured (see docs/featurization.md).

#ifndef ALEM_CORE_HARNESS_H_
#define ALEM_CORE_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/approaches.h"
#include "core/evaluator.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/session.h"
#include "data/dataset.h"
#include "features/boolean_features.h"
#include "features/feature_matrix.h"
#include "synth/profiles.h"

namespace alem {

struct PreparedDataset {
  std::string name;
  EmDataset dataset;
  // Post-blocking candidate pairs and their ground-truth labels.
  std::vector<RecordPair> pairs;
  std::vector<int> truth;
  // Float features (21 sims x matched columns) for all pairs.
  FeatureMatrix float_features;
  // Boolean atom features for the rule learner.
  FeatureMatrix boolean_features;
  // Kept for pretty-printing learned rules. Shared because PreparedDataset
  // is copied into per-run state while featurizers are not copyable.
  std::shared_ptr<BooleanFeaturizer> featurizer;
  std::vector<std::string> feature_names;

  double class_skew = 0.0;
  size_t num_matches = 0;

  // Generation provenance, stamped into RunReport artifacts so a learning
  // curve is reproducible from its report alone.
  uint64_t data_seed = 0;
  double scale = 1.0;
  // How the float feature matrix was obtained: "off" (no cache configured),
  // "miss" (computed and stored), or "hit" (loaded from the cache).
  std::string feature_cache = "off";
};

// Everything PrepareDataset needs, in RunReport-provenance order. Designated
// initializers keep call sites readable:
//   PrepareDataset({.profile = AbtBuyProfile(), .data_seed = 7, .scale = 0.3});
struct PrepareOptions {
  SynthProfile profile;
  uint64_t data_seed = 7;
  double scale = 1.0;
  // Feature-matrix cache policy. When use_cache is true the cache directory
  // resolves as cache_dir (if non-empty) > $ALEM_CACHE_DIR > disabled; when
  // false the cache is never consulted regardless of the environment.
  bool use_cache = true;
  std::string cache_dir;
  // > 0 pins the deterministic thread pool before featurization (same effect
  // as parallel::SetNumThreads); 0 leaves the current setting alone.
  int threads = 0;
};

// Generates the dataset and runs the preprocessing pipeline.
PreparedDataset PrepareDataset(const PrepareOptions& options);

// The seed/batch/budget/target knobs live in the shared LoopBudget base
// (core/session.h), so RunConfig and ActiveLearningConfig can never drift
// apart; `config.budget() = other.budget()` copies them across.
struct RunConfig : LoopBudget {
  ApproachSpec approach;
  // Oracle label-flip probability (0 = perfect Oracle).
  double oracle_noise = 0.0;
  // Evaluate on a held-out 20% split instead of progressively on all pairs.
  bool holdout = false;
  // Drives seed sampling, learner randomness, noisy-oracle flips, splits.
  uint64_t run_seed = 1;
  // Incremental training + evaluation engine (--warm-start, docs/
  // training.md). Results-affecting like run_seed: a resumed session takes
  // the mode from the snapshot, not the CLI.
  WarmStartMode warm_start = WarmStartMode::kOff;
};

struct RunResult {
  std::string approach_name;
  std::vector<IterationStats> curve;

  // Best F1 along the curve, and the fewest labels at which the curve is
  // within `kConvergenceSlack` of it (the paper's "#labels to convergence").
  double best_f1 = 0.0;
  size_t labels_to_converge = 0;

  // Active-ensemble runs: #accepted classifiers at termination.
  size_t ensemble_accepted = 0;

  // Total user wait time across all iterations.
  double total_wait_seconds = 0.0;

  // The learner as trained at termination (shared so RunResult stays
  // copyable). For ensemble runs this is the final candidate; the accepted
  // members' predictions are not retained beyond the curve metrics.
  std::shared_ptr<Learner> final_model;
};

inline constexpr double kConvergenceSlack = 0.005;

// Fills the derived summary fields (best_f1, labels_to_converge,
// total_wait_seconds, ensemble_accepted) from result->curve.
void FinalizeRunResult(RunResult* result);

// Runs one approach on a prepared dataset.
RunResult RunActiveLearning(const PreparedDataset& data,
                            const RunConfig& config);

// The per-run environment RunActiveLearning used to build inline: pool over
// the approach-appropriate features (a view of `data`'s matrix, so `data`
// must outlive the environment), evaluation protocol, oracle, and the
// instantiated approach. Factored out so a resumed session (which must
// reconstruct the identical environment in a fresh process) and a fresh run
// share one construction path — the RNG seed derivations inside are part of
// the determinism contract (docs/sessions.md).
struct RunEnv {
  ActivePool pool;
  std::unique_ptr<Evaluator> evaluator;
  std::unique_ptr<Oracle> oracle;
  Approach approach;
};

RunEnv BuildRunEnv(const PreparedDataset& data, const RunConfig& config);

// A run's description: everything needed to prepare the dataset and build
// the run environment. A SessionRunner snapshot carries it, so a resume
// re-prepares and rebuilds before restoring the session itself (`alem_cli
// session resume` drives this); the CLI builds one from its flags.
struct SessionRunInfo {
  std::string dataset;
  uint64_t data_seed = 7;
  double scale = 1.0;
  // The original prepare's feature-cache outcome ("off"/"miss"/"hit") —
  // the stitched report's config.cache provenance.
  std::string feature_cache = "off";
  RunConfig config;
};

// Checks a run description before anything is built from it: false with
// *error naming the first field no run can take (an unknown dataset, a
// scale outside (0, 100], a zero batch_size, an oracle_noise outside
// [0, 1], or an approach CheckApproach rejects). The CLI's run flags and a
// snapshot's run section both pass through it.
bool CheckRunInfo(const SessionRunInfo& info, std::string* error);

// Decodes a SessionRunner snapshot's run section ("HRUN") and the session's
// loop config ("BCFG", which holds the run seed) and checks the result
// with CheckRunInfo.
bool ReadSessionRunInfo(const SessionSnapshot& snapshot, SessionRunInfo* info,
                        std::string* error);

// Owns one run's environment plus its LabelingSession, and layers run-level
// snapshotting on top of the session's: Save() adds a run section (dataset
// provenance, the RunConfig fields beyond the session's loop config, and the
// ApproachSpec) and a metrics section (the counter/gauge totals) to the
// session sections; Restore() rebuilds the counters (histograms restart
// empty — they are latency telemetry, not part of the determinism contract)
// and the session from them. RunActiveLearning is a thin wrapper over this
// class. The runner's pool views the PreparedDataset's features, so the
// dataset must outlive the runner.
class SessionRunner {
 public:
  // Fresh run: builds the environment and seeds the session.
  SessionRunner(const PreparedDataset& data, const RunConfig& config);

  // Rebuilds the environment for `data`/`config` (obtained from the
  // snapshot via ReadSessionRunInfo) and restores the session mid-run.
  // Returns null with *error set on any mismatch or malformed section.
  static std::unique_ptr<SessionRunner> Restore(
      const PreparedDataset& data, const RunConfig& config,
      const SessionSnapshot& snapshot, std::string* error);

  LabelingSession& session() { return *session_; }
  const LabelingSession& session() const { return *session_; }

  // LabelingSession::Run: drives the session to the end, or pauses after
  // `stop_after` > 0 iterations (the session is then saveable).
  void Run(size_t stop_after = 0);

  // Session sections + provenance + metrics, as one ALSS container file.
  bool Save(const std::string& path, std::string* error) const;

  // Converts the finished (or paused) session into the same RunResult
  // RunActiveLearning returns. Consumes the curve.
  RunResult TakeResult();

 private:
  SessionRunner(const PreparedDataset& data, const RunConfig& config,
                bool start_session);

  SessionRunInfo run_;
  RunEnv env_;
  std::unique_ptr<LabelingSession> session_;
};

// Averages F1 curves of repeated runs (distinct run seeds), padding shorter
// curves with their final value; used for noisy-oracle experiments. Returns
// (labels, mean F1) points.
struct AveragedPoint {
  size_t labels = 0;
  double mean_f1 = 0.0;
  double stddev_f1 = 0.0;
};
std::vector<AveragedPoint> AverageCurves(
    const std::vector<std::vector<IterationStats>>& curves);

}  // namespace alem

#endif  // ALEM_CORE_HARNESS_H_
