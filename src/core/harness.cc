#include "core/harness.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>

#include "blocking/jaccard_blocking.h"
#include "core/evaluator.h"
#include "core/oracle.h"
#include "features/feature_cache.h"
#include "features/feature_extractor.h"
#include "features/feature_schema.h"
#include "obs/obs.h"
#include "parallel/pool.h"
#include "sim/similarity.h"
#include "synth/generator.h"
#include "util/byte_codec.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace alem {

PreparedDataset PrepareDataset(const PrepareOptions& options) {
  if (options.threads > 0) parallel::SetNumThreads(options.threads);
  const SynthProfile& profile = options.profile;
  obs::ObsSpan prepare_span("harness.prepare", "harness", profile.name);
  PreparedDataset prepared;
  prepared.name = profile.name;
  prepared.data_seed = options.data_seed;
  prepared.scale = options.scale;
  {
    obs::ObsSpan generate_span("harness.generate", "harness");
    prepared.dataset = GenerateDataset(profile, options.data_seed,
                                       options.scale);
  }

  {
    obs::ObsSpan block_span("harness.block", "harness");
    BlockingConfig blocking;
    blocking.jaccard_threshold = profile.blocking_threshold;
    prepared.pairs = JaccardBlocking(prepared.dataset, blocking);
    prepared.truth = prepared.dataset.LabelsFor(prepared.pairs);
    prepared.class_skew = prepared.dataset.ClassSkew(prepared.pairs);
    prepared.num_matches = static_cast<size_t>(
        std::count(prepared.truth.begin(), prepared.truth.end(), 1));
  }

  {
    obs::ObsSpan featurize_span("harness.featurize", "harness");
    const FeatureSchema schema = FeatureSchema::FromDataset(prepared.dataset);
    prepared.feature_names = schema.FeatureNames();

    FeatureCache cache(options.use_cache
                           ? FeatureCache::ResolveDir(options.cache_dir)
                           : "");
    FeatureCacheKey key;
    key.dataset_name = profile.name;
    key.profile_fingerprint = ProfileFingerprint(profile);
    key.data_seed = options.data_seed;
    key.scale = options.scale;
    key.sim_fingerprint = SimRegistryFingerprint();
    key.num_dims = schema.num_dims();

    bool loaded = false;
    if (cache.enabled()) {
      obs::ObsSpan cache_span("harness.featurize.cache", "harness");
      loaded = cache.Load(key, &prepared.float_features) &&
               prepared.float_features.rows() == prepared.pairs.size();
    }
    if (loaded) {
      prepared.feature_cache = "hit";
      // A cache hit skips every similarity evaluation, so nothing registers
      // the sim.calls counter; register it explicitly so warm-run reports
      // still carry sim.calls=0 instead of omitting the key.
      obs::MetricsRegistry::Global().GetCounter("sim.calls");
    } else {
      // Recompute (also covers the corrupt / truncated / stale-rows cases,
      // which Load reports as misses) and publish for the next process.
      FeatureExtractor extractor(prepared.dataset);
      prepared.float_features = extractor.ExtractAll(prepared.pairs);
      if (cache.enabled()) {
        obs::ObsSpan cache_span("harness.featurize.cache", "harness");
        cache.Store(key, prepared.float_features);
        prepared.feature_cache = "miss";
      }
    }
    prepared.featurizer = std::make_shared<BooleanFeaturizer>(schema);
    prepared.boolean_features =
        prepared.featurizer->Featurize(prepared.float_features);
  }
  return prepared;
}

namespace {

bool IsRuleApproach(const ApproachSpec& spec) {
  return spec.learner == LearnerKind::kRules;
}

// The session's ensemble threshold: tau for an active ensemble, else 0.
double EnsemblePrecision(const ApproachSpec& spec) {
  return spec.active_ensemble ? spec.ensemble_precision : 0.0;
}

// Share of the pool a holdout run evaluates on (the CLI prints "holdout
// 80/20").
constexpr double kHoldoutFraction = 0.2;

// The largest scale a run prepares its dataset at: the profiles are scaled
// down 10-100x from the paper's datasets (DESIGN.md), so 100 regenerates a
// dataset at about its full size.
constexpr double kMaxScale = 100.0;

// ---- Harness snapshot sections (docs/sessions.md) ----------------------

// A prepare's feature-cache outcomes, by their code in "HRUN".
constexpr std::string_view kCacheOutcomes[] = {"off", "miss", "hit"};

// "HRUN": what the session's own sections do not carry of the run: the
// dataset's generation provenance; the original prepare's feature-cache
// outcome (the stitched report's config.cache describes the run's own
// prepare, not the resume process's); the oracle noise and evaluation
// protocol; and the ApproachSpec field by field (DisplayName() output such
// as "Trees(20)" does not parse back). The run seed, warm-start mode and
// label budget travel once, in the session's "BCFG".
std::string EncodeRunSection(const SessionRunInfo& info) {
  const auto* cache = std::find(std::begin(kCacheOutcomes),
                                std::end(kCacheOutcomes), info.feature_cache);
  ALEM_CHECK(cache != std::end(kCacheOutcomes));
  const RunConfig& config = info.config;
  const ApproachSpec& spec = config.approach;
  ByteWriter w;
  w.Str(info.dataset);
  w.U64(info.data_seed);
  w.F64(info.scale);
  w.U8(static_cast<uint8_t>(cache - std::begin(kCacheOutcomes)));
  w.F64(config.oracle_noise);
  w.U8(config.holdout ? 1 : 0);
  w.U8(static_cast<uint8_t>(spec.learner));
  w.U8(static_cast<uint8_t>(spec.selector));
  w.I64(spec.committee_size);
  w.I64(spec.num_trees);
  w.U64(spec.blocking_dims);
  w.U8(spec.active_ensemble ? 1 : 0);
  w.F64(spec.ensemble_precision);
  return w.Take();
}

bool FitsInt(int64_t v) {
  return v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max();
}

// Decodes the fields "HRUN" carries into *info; the values are checked
// afterwards, by CheckRunInfo.
bool DecodeRunSection(std::string_view blob, SessionRunInfo* info) {
  RunConfig& config = info->config;
  ApproachSpec& spec = config.approach;
  ByteReader r(blob);
  uint8_t cache = 0;
  uint8_t holdout = 0;
  uint8_t learner = 0;
  uint8_t selector = 0;
  int64_t committee_size = 0;
  int64_t num_trees = 0;
  uint64_t blocking_dims = 0;
  uint8_t ensemble = 0;
  if (!r.Str(&info->dataset) || !r.U64(&info->data_seed) ||
      !r.F64(&info->scale) || !r.U8(&cache) || !r.F64(&config.oracle_noise) ||
      !r.U8(&holdout) || !r.U8(&learner) || !r.U8(&selector) ||
      !r.I64(&committee_size) || !r.I64(&num_trees) ||
      !r.U64(&blocking_dims) || !r.U8(&ensemble) ||
      !r.F64(&spec.ensemble_precision) || !r.AtEnd()) {
    return false;
  }
  if (cache >= std::size(kCacheOutcomes) || holdout > 1 ||
      learner > static_cast<uint8_t>(LearnerKind::kDeepMatcherProxy) ||
      selector > static_cast<uint8_t>(SelectorKind::kRandom) ||
      !FitsInt(committee_size) || !FitsInt(num_trees) || ensemble > 1) {
    return false;
  }
  info->feature_cache = kCacheOutcomes[cache];
  config.holdout = holdout == 1;
  spec.learner = static_cast<LearnerKind>(learner);
  spec.selector = static_cast<SelectorKind>(selector);
  spec.committee_size = static_cast<int>(committee_size);
  spec.num_trees = static_cast<int>(num_trees);
  spec.blocking_dims = static_cast<size_t>(blocking_dims);
  spec.active_ensemble = ensemble == 1;
  return true;
}

// "HMET": the metric registry totals at save time: a u64 counter count,
// then each counter's name (string) and value (u64); a u64 gauge count,
// then each gauge's name and value (f64). A resumed process discards its
// own prepare-phase metrics and re-establishes these, so the finished run's
// totals stitch up exactly as if it had never been interrupted. Histograms
// are deliberately not snapshotted: they hold latency telemetry, which is
// outside the determinism contract.
std::string EncodeMetricsSection(const obs::MetricsSnapshot& metrics) {
  ByteWriter w;
  w.U64(metrics.counters.size());
  for (const auto& [name, value] : metrics.counters) {
    w.Str(name);
    w.U64(value);
  }
  w.U64(metrics.gauges.size());
  for (const auto& [name, value] : metrics.gauges) {
    w.Str(name);
    w.F64(value);
  }
  return w.Take();
}

// Decodes one "HMET" list: a count, then (name, value) entries of at least
// 16 bytes each (the name's length and the value), values read by
// `read_value`.
template <typename Value>
bool DecodeMetricList(ByteReader* r, bool (ByteReader::*read_value)(Value*),
                      std::vector<std::pair<std::string, Value>>* out) {
  uint64_t count = 0;
  if (!r->Count(&count, 16)) return false;
  out->resize(static_cast<size_t>(count));
  for (auto& [name, value] : *out) {
    if (!r->Str(&name) || !(r->*read_value)(&value)) return false;
  }
  return true;
}

bool RestoreMetricsFromSnapshot(const SessionSnapshot& snapshot,
                                std::string* error) {
  if (!snapshot.has("HMET")) {
    *error = "session snapshot: missing harness section 'HMET'";
    return false;
  }
  // Parse the whole section before touching the registry, so a malformed
  // snapshot cannot leave the metrics half-restored.
  ByteReader r(snapshot.section("HMET"));
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  if (!DecodeMetricList(&r, &ByteReader::U64, &counters) ||
      !DecodeMetricList(&r, &ByteReader::F64, &gauges) || !r.AtEnd()) {
    *error = "session snapshot: malformed metrics section 'HMET'";
    return false;
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  for (const auto& [name, value] : counters) {
    // ml.predict_calls is synthesized from its dedicated hot-path atomic
    // (obs/obs.h); registering a registry counter under the same name
    // would make Snapshot() report the key twice.
    if (name == "ml.predict_calls") {
      obs::SetPredictCalls(value);
    } else {
      registry.GetCounter(name).Set(value);
    }
  }
  for (const auto& [name, value] : gauges) {
    registry.GetGauge(name).Set(value);
  }
  return true;
}

}  // namespace

void FinalizeRunResult(RunResult* result) {
  for (const IterationStats& stats : result->curve) {
    result->best_f1 = std::max(result->best_f1, stats.metrics.f1);
    result->total_wait_seconds += stats.wait_seconds;
    result->ensemble_accepted =
        std::max(result->ensemble_accepted, stats.ensemble_size);
  }
  result->labels_to_converge =
      result->curve.empty() ? 0 : result->curve.back().labels_used;
  for (const IterationStats& stats : result->curve) {
    if (stats.metrics.f1 >= result->best_f1 - kConvergenceSlack) {
      result->labels_to_converge = stats.labels_used;
      break;
    }
  }
}

RunEnv BuildRunEnv(const PreparedDataset& data, const RunConfig& config) {
  const FeatureMatrix& features = IsRuleApproach(config.approach)
                                      ? data.boolean_features
                                      : data.float_features;
  ALEM_CHECK_GT(features.rows(), 0u);

  RunEnv env{ActivePool(&features), nullptr, nullptr, {}};

  // Evaluation protocol.
  if (config.holdout) {
    // Random held-out test split; test rows never enter example selection.
    Rng split_rng(config.run_seed ^ 0x8badf00dULL);
    const size_t test_size = static_cast<size_t>(
        static_cast<double>(env.pool.size()) * kHoldoutFraction);
    std::vector<size_t> test_rows =
        split_rng.SampleWithoutReplacement(env.pool.size(), test_size);
    std::sort(test_rows.begin(), test_rows.end());
    std::vector<int> test_truth(test_rows.size());
    for (size_t i = 0; i < test_rows.size(); ++i) {
      test_truth[i] = data.truth[test_rows[i]];
      env.pool.Exclude(test_rows[i]);
    }
    env.evaluator = std::make_unique<HoldoutEvaluator>(std::move(test_rows),
                                                       std::move(test_truth));
  } else {
    env.evaluator = std::make_unique<ProgressiveEvaluator>(data.truth);
  }

  // Oracle.
  if (config.oracle_noise > 0.0) {
    env.oracle = std::make_unique<NoisyOracle>(
        data.truth, config.oracle_noise, config.run_seed ^ 0x0c0ffeeULL);
  } else {
    env.oracle = std::make_unique<PerfectOracle>(data.truth);
  }

  env.approach = MakeApproach(config.approach, config.run_seed);
  return env;
}

RunResult RunActiveLearning(const PreparedDataset& data,
                            const RunConfig& config) {
  obs::ObsSpan run_span("harness.run", "harness",
                        config.approach.DisplayName());
  SessionRunner runner(data, config);
  runner.Run();
  return runner.TakeResult();
}

bool CheckRunInfo(const SessionRunInfo& info, std::string* error) {
  if (!ProfileByName(info.dataset)) {
    *error = "dataset '" + info.dataset + "' names no profile";
    return false;
  }
  if (!(info.scale > 0.0 && info.scale <= kMaxScale)) {
    *error = "scale must lie in (0, 100]";
    return false;
  }
  const RunConfig& config = info.config;
  if (config.batch_size == 0) {
    *error = "batch_size must be at least 1";
    return false;
  }
  if (!(config.oracle_noise >= 0.0 && config.oracle_noise <= 1.0)) {
    *error = "oracle_noise must lie in [0, 1]";
    return false;
  }
  return CheckApproach(config.approach, error);
}

bool ReadSessionRunInfo(const SessionSnapshot& snapshot, SessionRunInfo* info,
                        std::string* error) {
  for (const std::string_view tag : {"HRUN", "BCFG"}) {
    if (!snapshot.has(tag)) {
      *error = "session snapshot: missing section '" + std::string(tag) +
               "' (saved without run provenance?)";
      return false;
    }
  }
  SessionRunInfo parsed;
  if (!DecodeRunSection(snapshot.section("HRUN"), &parsed)) {
    *error = "session snapshot: malformed run section 'HRUN'";
    return false;
  }
  ActiveLearningConfig loop_config;
  if (!DecodeSessionLoopConfig(snapshot, &loop_config)) {
    *error = "session snapshot: malformed loop-config section";
    return false;
  }
  parsed.config.budget() = loop_config.budget();
  // The run seed and the warm-start mode travel in the session's own
  // loop-config section: a resumed run continues in the snapshot's mode
  // regardless of the resuming CLI.
  parsed.config.run_seed = loop_config.seed;
  parsed.config.warm_start = loop_config.warm_start;
  if (!CheckRunInfo(parsed, error)) {
    *error = "session snapshot: " + *error;
    return false;
  }
  *info = std::move(parsed);
  return true;
}

SessionRunner::SessionRunner(const PreparedDataset& data,
                             const RunConfig& config)
    : SessionRunner(data, config, /*start_session=*/true) {}

SessionRunner::SessionRunner(const PreparedDataset& data,
                             const RunConfig& config, bool start_session)
    : run_{.dataset = data.name,
           .data_seed = data.data_seed,
           .scale = data.scale,
           .feature_cache = data.feature_cache,
           .config = config},
      env_(BuildRunEnv(data, config)) {
  if (start_session) {
    ActiveLearningConfig loop_config;
    loop_config.budget() = config.budget();
    loop_config.seed = config.run_seed;
    loop_config.warm_start = config.warm_start;
    loop_config.ensemble_precision = EnsemblePrecision(config.approach);
    session_ = std::make_unique<LabelingSession>(
        *env_.approach.learner, *env_.approach.selector, *env_.oracle,
        *env_.evaluator, env_.pool, loop_config);
  }
}

std::unique_ptr<SessionRunner> SessionRunner::Restore(
    const PreparedDataset& data, const RunConfig& config,
    const SessionSnapshot& snapshot, std::string* error) {
  std::unique_ptr<SessionRunner> runner(
      new SessionRunner(data, config, /*start_session=*/false));
  // Discard this process's prepare-phase metrics and re-establish the
  // snapshot totals (which already contain the original prepare + first
  // half), so the resumed run's final counters stitch up exactly.
  if (!RestoreMetricsFromSnapshot(snapshot, error)) return nullptr;
  runner->session_ = LabelingSession::Restore(
      *runner->env_.approach.learner, *runner->env_.approach.selector,
      *runner->env_.oracle, *runner->env_.evaluator, runner->env_.pool,
      snapshot, error);
  if (runner->session_ == nullptr) return nullptr;
  if (runner->session_->config().ensemble_precision !=
      EnsemblePrecision(config.approach)) {
    *error = "session snapshot: ensemble section disagrees with the approach";
    return nullptr;
  }
  return runner;
}

void SessionRunner::Run(size_t stop_after) { session_->Run(stop_after); }

bool SessionRunner::Save(const std::string& path, std::string* error) const {
  SessionSnapshot snapshot;
  if (!session_->SaveTo(&snapshot, error)) return false;
  snapshot.set("HRUN", EncodeRunSection(run_));
  snapshot.set("HMET",
               EncodeMetricsSection(obs::MetricsRegistry::Global().Snapshot()));
  return snapshot.WriteFile(path, error);
}

RunResult SessionRunner::TakeResult() {
  RunResult result;
  result.approach_name = run_.config.approach.DisplayName();
  result.curve = std::move(*session_).TakeCurve();
  result.final_model = std::move(env_.approach.learner);
  FinalizeRunResult(&result);
  return result;
}

std::vector<AveragedPoint> AverageCurves(
    const std::vector<std::vector<IterationStats>>& curves) {
  std::vector<AveragedPoint> points;
  if (curves.empty()) return points;
  size_t longest = 0;
  for (const auto& curve : curves) longest = std::max(longest, curve.size());

  for (size_t i = 0; i < longest; ++i) {
    RunningStats f1;
    size_t labels = 0;
    for (const auto& curve : curves) {
      if (curve.empty()) continue;
      // Pad finished curves with their final value (an approach that
      // terminated early keeps its final F1).
      const IterationStats& stats =
          i < curve.size() ? curve[i] : curve.back();
      f1.Add(stats.metrics.f1);
      labels = std::max(labels, stats.labels_used);
    }
    points.push_back(AveragedPoint{labels, f1.mean(), f1.stddev()});
  }
  return points;
}

}  // namespace alem
