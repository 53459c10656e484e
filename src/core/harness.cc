#include "core/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
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

// ---- Snapshot provenance sections (text, one "key value" per line) -----
//
// The session's own sections are binary (core/session.cc); the harness
// provenance riding alongside them is line-based text — small, stable, and
// diagnosable with `strings` on a snapshot file. Doubles travel as raw hex
// bit patterns so they round-trip exactly.

std::string DoubleToHexBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llx",
                static_cast<unsigned long long>(bits));
  return buffer;
}

bool HexBitsToDouble(const std::string& hex, double* v) {
  unsigned long long bits = 0;
  char trailing = 0;
  if (std::sscanf(hex.c_str(), "%llx %c", &bits, &trailing) != 1) return false;
  const uint64_t raw = static_cast<uint64_t>(bits);
  std::memcpy(v, &raw, sizeof(*v));
  return true;
}

// "PROV": dataset generation provenance, plus the original prepare's
// feature-cache outcome (the stitched report's config.cache must describe
// the run's own prepare, not the resume process's). The dataset name is
// last and consumes the rest of its line (names may contain spaces).
std::string EncodeProvenanceSection(const std::string& dataset,
                                    uint64_t data_seed, double scale,
                                    const std::string& feature_cache) {
  std::ostringstream out;
  out << "data_seed " << data_seed << "\n";
  out << "scale " << DoubleToHexBits(scale) << "\n";
  out << "cache " << feature_cache << "\n";
  out << "dataset " << dataset << "\n";
  return out.str();
}

bool DecodeProvenanceSection(const std::string& blob, SessionRunInfo* info) {
  std::istringstream in(blob);
  std::string keyword;
  std::string scale_hex;
  if (!(in >> keyword >> info->data_seed) || keyword != "data_seed") {
    return false;
  }
  if (!(in >> keyword >> scale_hex) || keyword != "scale" ||
      !HexBitsToDouble(scale_hex, &info->scale)) {
    return false;
  }
  if (!(in >> keyword >> info->feature_cache) || keyword != "cache") {
    return false;
  }
  if (!(in >> keyword) || keyword != "dataset") return false;
  std::getline(in, info->dataset);
  while (!info->dataset.empty() && info->dataset.front() == ' ') {
    info->dataset.erase(info->dataset.begin());
  }
  return !info->dataset.empty();
}

// "RCFG": the RunConfig fields beyond the loop budget (which the session's
// own "BCFG" section carries).
std::string EncodeRunConfigSection(const RunConfig& config) {
  std::ostringstream out;
  out << "oracle_noise " << DoubleToHexBits(config.oracle_noise) << "\n";
  out << "holdout " << (config.holdout ? 1 : 0) << "\n";
  out << "holdout_fraction " << DoubleToHexBits(config.holdout_fraction)
      << "\n";
  out << "run_seed " << config.run_seed << "\n";
  return out.str();
}

bool DecodeRunConfigSection(const std::string& blob, RunConfig* config) {
  std::istringstream in(blob);
  std::string keyword;
  std::string noise_hex;
  std::string fraction_hex;
  int holdout = 0;
  if (!(in >> keyword >> noise_hex) || keyword != "oracle_noise" ||
      !HexBitsToDouble(noise_hex, &config->oracle_noise)) {
    return false;
  }
  if (!(in >> keyword >> holdout) || keyword != "holdout" ||
      (holdout != 0 && holdout != 1)) {
    return false;
  }
  config->holdout = holdout == 1;
  if (!(in >> keyword >> fraction_hex) || keyword != "holdout_fraction" ||
      !HexBitsToDouble(fraction_hex, &config->holdout_fraction)) {
    return false;
  }
  if (!(in >> keyword >> config->run_seed) || keyword != "run_seed") {
    return false;
  }
  return true;
}

// "APPR": the ApproachSpec, field by field. DisplayName() output is not
// parseable by ApproachFromName (e.g. "Trees(20)" vs "trees20"), so the
// snapshot stores the structured fields instead of a name.
std::string EncodeApproachSection(const ApproachSpec& spec) {
  std::ostringstream out;
  out << "learner " << static_cast<int>(spec.learner) << "\n";
  out << "selector " << static_cast<int>(spec.selector) << "\n";
  out << "committee_size " << spec.committee_size << "\n";
  out << "num_trees " << spec.num_trees << "\n";
  out << "blocking_dims " << spec.blocking_dims << "\n";
  out << "active_ensemble " << (spec.active_ensemble ? 1 : 0) << "\n";
  out << "ensemble_precision " << DoubleToHexBits(spec.ensemble_precision)
      << "\n";
  return out.str();
}

bool DecodeApproachSection(const std::string& blob, ApproachSpec* spec) {
  std::istringstream in(blob);
  std::string keyword;
  int learner = 0;
  int selector = 0;
  int active_ensemble = 0;
  uint64_t blocking_dims = 0;
  std::string precision_hex;
  if (!(in >> keyword >> learner) || keyword != "learner" || learner < 0 ||
      learner > static_cast<int>(LearnerKind::kDeepMatcherProxy)) {
    return false;
  }
  if (!(in >> keyword >> selector) || keyword != "selector" || selector < 0 ||
      selector > static_cast<int>(SelectorKind::kRandom)) {
    return false;
  }
  if (!(in >> keyword >> spec->committee_size) || keyword != "committee_size") {
    return false;
  }
  if (!(in >> keyword >> spec->num_trees) || keyword != "num_trees") {
    return false;
  }
  if (!(in >> keyword >> blocking_dims) || keyword != "blocking_dims") {
    return false;
  }
  if (!(in >> keyword >> active_ensemble) || keyword != "active_ensemble" ||
      (active_ensemble != 0 && active_ensemble != 1)) {
    return false;
  }
  if (!(in >> keyword >> precision_hex) || keyword != "ensemble_precision" ||
      !HexBitsToDouble(precision_hex, &spec->ensemble_precision)) {
    return false;
  }
  spec->learner = static_cast<LearnerKind>(learner);
  spec->selector = static_cast<SelectorKind>(selector);
  spec->blocking_dims = static_cast<size_t>(blocking_dims);
  spec->active_ensemble = active_ensemble == 1;
  return true;
}

// "CNTR"/"GAUG": the metric registry totals at save time, one "name value"
// line each (counter values decimal, gauge values hex double bits). A
// resumed process discards its own prepare-phase metrics and re-establishes
// these, so the finished run's totals stitch up exactly as if it had never
// been interrupted. Histograms are deliberately not snapshotted: they hold
// latency telemetry, which is outside the determinism contract.
std::string EncodeCounterSection(
    const std::vector<std::pair<std::string, uint64_t>>& counters) {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << " " << value << "\n";
  }
  return out.str();
}

std::string EncodeGaugeSection(
    const std::vector<std::pair<std::string, double>>& gauges) {
  std::ostringstream out;
  for (const auto& [name, value] : gauges) {
    out << name << " " << DoubleToHexBits(value) << "\n";
  }
  return out.str();
}

bool RestoreMetricsFromSnapshot(const SessionSnapshot& snapshot,
                                std::string* error) {
  // Parse both sections fully before touching the registry, so a malformed
  // snapshot cannot leave the metrics half-restored.
  std::vector<std::pair<std::string, uint64_t>> counters;
  {
    std::istringstream in(snapshot.section("CNTR"));
    std::string name;
    uint64_t value = 0;
    while (in >> name >> value) counters.emplace_back(name, value);
    if (!in.eof()) {
      *error = "session snapshot: malformed counter section";
      return false;
    }
  }
  std::vector<std::pair<std::string, double>> gauges;
  {
    std::istringstream in(snapshot.section("GAUG"));
    std::string name;
    std::string hex;
    while (in >> name >> hex) {
      double value = 0.0;
      if (!HexBitsToDouble(hex, &value)) {
        *error = "session snapshot: malformed gauge section";
        return false;
      }
      gauges.emplace_back(name, value);
    }
    if (!in.eof()) {
      *error = "session snapshot: malformed gauge section";
      return false;
    }
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
        static_cast<double>(env.pool.size()) * config.holdout_fraction);
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

bool ReadSessionRunInfo(const SessionSnapshot& snapshot, SessionRunInfo* info,
                        std::string* error) {
  for (const std::string_view tag : {"PROV", "RCFG", "APPR", "BCFG"}) {
    if (!snapshot.has(tag)) {
      *error = "session snapshot: missing harness section '" +
               std::string(tag) + "' (saved without run provenance?)";
      return false;
    }
  }
  SessionRunInfo parsed;
  if (!DecodeProvenanceSection(snapshot.section("PROV"), &parsed)) {
    *error = "session snapshot: malformed provenance section";
    return false;
  }
  if (!DecodeRunConfigSection(snapshot.section("RCFG"), &parsed.config)) {
    *error = "session snapshot: malformed run-config section";
    return false;
  }
  if (!DecodeApproachSection(snapshot.section("APPR"),
                             &parsed.config.approach)) {
    *error = "session snapshot: malformed approach section";
    return false;
  }
  ActiveLearningConfig loop_config;
  if (!DecodeSessionLoopConfig(snapshot, &loop_config)) {
    *error = "session snapshot: malformed loop-config section";
    return false;
  }
  parsed.config.budget() = loop_config.budget();
  // warm_start travels in the session's own loop-config section: a resumed
  // run continues in the snapshot's mode regardless of the resuming CLI.
  parsed.config.warm_start = loop_config.warm_start;
  *info = std::move(parsed);
  return true;
}

SessionRunner::SessionRunner(const PreparedDataset& data,
                             const RunConfig& config)
    : SessionRunner(data, config, /*start_session=*/true) {}

SessionRunner::SessionRunner(const PreparedDataset& data,
                             const RunConfig& config, bool start_session)
    : dataset_name_(data.name),
      data_seed_(data.data_seed),
      scale_(data.scale),
      feature_cache_(data.feature_cache),
      config_(config),
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
  snapshot.set("PROV", EncodeProvenanceSection(dataset_name_, data_seed_,
                                               scale_, feature_cache_));
  snapshot.set("RCFG", EncodeRunConfigSection(config_));
  snapshot.set("APPR", EncodeApproachSection(config_.approach));
  const obs::MetricsSnapshot metrics =
      obs::MetricsRegistry::Global().Snapshot();
  snapshot.set("CNTR", EncodeCounterSection(metrics.counters));
  snapshot.set("GAUG", EncodeGaugeSection(metrics.gauges));
  return snapshot.WriteFile(path, error);
}

RunResult SessionRunner::TakeResult() {
  RunResult result;
  result.approach_name = config_.approach.DisplayName();
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
