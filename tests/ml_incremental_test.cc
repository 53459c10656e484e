// Incremental training engine (docs/training.md): warm-start refits and
// the delta-based progressive-F1 evaluation.
//
// The contracts pinned here:
//   * Warm refits converge: a model warm-started onto a grown labeled set
//     scores within a small F1 tolerance of a cold fit on the same set.
//   * Warm refits are restartable: serialize -> deserialize -> FitWarm is
//     bitwise-identical to FitWarm without the round-trip (the session
//     save/resume contract extends to warm mode).
//   * Forest warm fits are path-independent: warm-fitting at n1 then at n2
//     equals warm-fitting at n2 directly, bitwise — which proves skipped
//     (untouched) trees are exactly what a refit would have produced.
//   * The incremental confusion tally equals a full rescore exactly,
//     including empty and one-row deltas (every session evaluates through
//     it; the golden replays pin its curves bitwise).
//   * Every session writes the IEVL snapshot section once it has evaluated;
//     the section round-trips, and a restore fails with an error naming it
//     when it is missing after the first Step, present before it, or does
//     not fit the evaluator, its predictions or the iteration count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "ml/linear_svm.h"
#include "ml/metrics.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace alem {
namespace {

// A 2-D, mostly separable problem with 10% class skew (like EM pairs).
struct Problem {
  FeatureMatrix features;
  std::vector<int> truth;
};

Problem MakeProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % 10 == 0;
    const double center = positive ? 0.75 : 0.3;
    problem.features.Set(
        i, 0, static_cast<float>(center + rng.NextGaussian() * 0.07));
    problem.features.Set(
        i, 1, static_cast<float>(center + rng.NextGaussian() * 0.07));
    problem.truth[i] = positive ? 1 : 0;
  }
  return problem;
}

// First-n-rows view of a problem (the labeled set at an earlier iteration).
FeatureMatrix SliceFeatures(const FeatureMatrix& features, size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return features.Gather(rows);
}

std::vector<int> SliceTruth(const std::vector<int>& truth, size_t n) {
  return std::vector<int>(truth.begin(), truth.begin() + n);
}

double F1On(const std::vector<int>& predictions,
            const std::vector<int>& truth) {
  return ComputeBinaryMetrics(predictions, truth).f1;
}

// ---- Warm-start refits: convergence ------------------------------------

TEST(WarmFitTest, SvmWarmConvergesLikeCold) {
  const Problem p = MakeProblem(400, 21);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  LinearSvm cold(LinearSvmConfig{});
  cold.Fit(p.features, p.truth);

  LinearSvm warm(LinearSvmConfig{});
  warm.Fit(early, early_truth);
  ASSERT_TRUE(warm.FitWarm(p.features, p.truth));

  const double cold_f1 = F1On(cold.PredictAll(p.features), p.truth);
  const double warm_f1 = F1On(warm.PredictAll(p.features), p.truth);
  EXPECT_GT(warm_f1, 0.8);
  EXPECT_NEAR(warm_f1, cold_f1, 0.05);
}

TEST(WarmFitTest, NeuralNetWarmConvergesLikeCold) {
  const Problem p = MakeProblem(400, 22);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  NeuralNetwork cold(NeuralNetConfig{});
  cold.Fit(p.features, p.truth);

  NeuralNetwork warm(NeuralNetConfig{});
  warm.Fit(early, early_truth);
  ASSERT_TRUE(warm.FitWarm(p.features, p.truth));

  const double cold_f1 = F1On(cold.PredictAll(p.features), p.truth);
  const double warm_f1 = F1On(warm.PredictAll(p.features), p.truth);
  EXPECT_GT(warm_f1, 0.8);
  EXPECT_NEAR(warm_f1, cold_f1, 0.08);
}

TEST(WarmFitTest, ForestWarmConvergesLikeCold) {
  const Problem p = MakeProblem(400, 23);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest cold(config);
  cold.Fit(p.features, p.truth);

  RandomForest warm(config);
  ASSERT_TRUE(warm.FitWarm(early, early_truth));
  ASSERT_TRUE(warm.FitWarm(p.features, p.truth));

  const double cold_f1 = F1On(cold.PredictAll(p.features), p.truth);
  const double warm_f1 = F1On(warm.PredictAll(p.features), p.truth);
  EXPECT_GT(warm_f1, 0.8);
  EXPECT_NEAR(warm_f1, cold_f1, 0.05);
}

// ---- Warm-start refits: fallbacks --------------------------------------

TEST(WarmFitTest, UntrainedModelsRejectWarmFit) {
  const Problem p = MakeProblem(100, 24);
  LinearSvm svm(LinearSvmConfig{});
  EXPECT_FALSE(svm.FitWarm(p.features, p.truth));
  NeuralNetwork nn(NeuralNetConfig{});
  EXPECT_FALSE(nn.FitWarm(p.features, p.truth));
}

TEST(WarmFitTest, ForestRejectsWarmFitOnShrunkSetOrNoBootstrap) {
  const Problem p = MakeProblem(200, 25);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest(config);
  ASSERT_TRUE(forest.FitWarm(p.features, p.truth));
  // Shrinking the labeled set is outside the append-only scheme.
  const FeatureMatrix small = SliceFeatures(p.features, 100);
  const std::vector<int> small_truth = SliceTruth(p.truth, 100);
  EXPECT_FALSE(forest.FitWarm(small, small_truth));

  config.bootstrap = false;
  RandomForest no_bootstrap(config);
  no_bootstrap.Fit(p.features, p.truth);
  EXPECT_FALSE(no_bootstrap.FitWarm(p.features, p.truth));
}

TEST(WarmFitTest, LearnerFallsBackColdAndCountsThePath) {
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetMetricsEnabled(true);
  const Problem p = MakeProblem(200, 26);

  SvmLearner learner{LinearSvmConfig{}};
  // First warm-hinted fit has no previous weights: falls back to cold.
  learner.Fit(p.features, p.truth, FitHint::kWarm);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.cold_fits").value(), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.warm_fits").value(), 0u);
  // Second one resumes from the first.
  learner.Fit(p.features, p.truth, FitHint::kWarm);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.warm_fits").value(), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.fit_calls").value(), 2u);
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Global().ResetAll();
}

// ---- Warm-start refits: restartability (bitwise) ------------------------

TEST(WarmFitTest, SvmWarmFitIsRestartable) {
  const Problem p = MakeProblem(400, 27);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  LinearSvm direct(LinearSvmConfig{});
  direct.Fit(early, early_truth);
  const std::string blob = SerializeSvm(direct);

  LinearSvm restored(LinearSvmConfig{});
  ASSERT_TRUE(DeserializeSvm(blob, &restored));

  ASSERT_TRUE(direct.FitWarm(p.features, p.truth));
  ASSERT_TRUE(restored.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeSvm(direct), SerializeSvm(restored));
}

TEST(WarmFitTest, NeuralNetWarmFitIsRestartable) {
  const Problem p = MakeProblem(400, 28);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  NeuralNetwork direct(NeuralNetConfig{});
  direct.Fit(early, early_truth);
  const std::string blob = SerializeNeuralNet(direct);

  NeuralNetwork restored(NeuralNetConfig{});
  ASSERT_TRUE(DeserializeNeuralNet(blob, &restored));

  ASSERT_TRUE(direct.FitWarm(p.features, p.truth));
  ASSERT_TRUE(restored.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeNeuralNet(direct), SerializeNeuralNet(restored));
}

TEST(WarmFitTest, ForestWarmFitIsRestartable) {
  const Problem p = MakeProblem(400, 29);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest direct(config);
  ASSERT_TRUE(direct.FitWarm(early, early_truth));
  const std::string blob = SerializeForest(direct);

  RandomForest restored(config);
  ASSERT_TRUE(DeserializeForest(blob, &restored));
  EXPECT_EQ(restored.warm_fit_count(), 300u);

  ASSERT_TRUE(direct.FitWarm(p.features, p.truth));
  ASSERT_TRUE(restored.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeForest(direct), SerializeForest(restored));
}

// ---- Forest: untouched trees are bitwise-preserved ----------------------

// Path independence pins the skip-vs-refit equality: warm-fitting at n then
// at n+1 must produce exactly the forest a single warm fit at n+1 produces.
// The incremental path skips every tree whose Poisson sample gained no new
// position, so equality proves a skipped tree IS what refitting would have
// rebuilt. With a one-row delta a substantial fraction of trees (~1/e) is
// skipped, which the trees_refit counter confirms.
TEST(ForestWarmTest, SkippedTreesEqualRefitResult) {
  const Problem p = MakeProblem(301, 30);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  RandomForestConfig config;
  config.num_trees = 30;
  RandomForest incremental(config);
  ASSERT_TRUE(incremental.FitWarm(early, early_truth));
  size_t trees_refit = 0;
  ASSERT_TRUE(incremental.FitWarm(p.features, p.truth, &trees_refit));
  // A one-row growth leaves each tree untouched with probability e^-1.
  EXPECT_LT(trees_refit, 30u);
  EXPECT_GT(trees_refit, 0u);

  RandomForest oneshot(config);
  ASSERT_TRUE(oneshot.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeForest(incremental), SerializeForest(oneshot));
}

TEST(ForestWarmTest, ColdFitResetsTheWarmWatermark) {
  const Problem p = MakeProblem(200, 31);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest(config);
  ASSERT_TRUE(forest.FitWarm(p.features, p.truth));
  EXPECT_EQ(forest.warm_fit_count(), 200u);
  forest.Fit(p.features, p.truth);
  EXPECT_EQ(forest.warm_fit_count(), 0u);
  // The serialized form of a cold-fit forest carries no watermark line.
  EXPECT_EQ(SerializeForest(forest).find("warm "), std::string::npos);
}

// ---- Incremental tally == full rescore ----------------------------------

// Replays the session's delta-tally scheme against ComputeBinaryMetrics
// over randomized prediction streams, including empty and one-row deltas:
// both funnel through MetricsFromCounts, so the doubles must be
// bitwise-equal.
TEST(IncrementalEvalTest, DeltaTallyMatchesFullRescore) {
  Rng rng(42);
  const size_t n = 500;
  std::vector<int> truth(n);
  for (size_t i = 0; i < n; ++i) truth[i] = rng.NextDouble() < 0.15 ? 1 : 0;

  std::vector<int> current(n, 0);
  size_t tp = 0, fp = 0, fn = 0, tn = 0;
  for (size_t i = 0; i < n; ++i) {
    (current[i] == 1 ? (truth[i] == 1 ? tp : fp)
                     : (truth[i] == 1 ? fn : tn))++;
  }

  for (int round = 0; round < 60; ++round) {
    // Rounds 0 and 1: empty delta. Round 2: one-row delta. Then random
    // flip counts in arbitrary index order.
    size_t flips = 0;
    if (round == 2) flips = 1;
    if (round > 2) flips = static_cast<size_t>(rng.NextDouble() * 40);
    for (size_t f = 0; f < flips; ++f) {
      const size_t i = static_cast<size_t>(rng.NextDouble() * n) % n;
      // Remove the row from its old bucket, flip, add to the new one.
      (current[i] == 1 ? (truth[i] == 1 ? tp : fp)
                       : (truth[i] == 1 ? fn : tn))--;
      current[i] = 1 - current[i];
      (current[i] == 1 ? (truth[i] == 1 ? tp : fp)
                       : (truth[i] == 1 ? fn : tn))++;
    }
    const BinaryMetrics incremental = MetricsFromCounts(tp, fp, fn, tn);
    const BinaryMetrics full = ComputeBinaryMetrics(current, truth);
    EXPECT_EQ(incremental.precision, full.precision);  // bitwise doubles
    EXPECT_EQ(incremental.recall, full.recall);
    EXPECT_EQ(incremental.f1, full.f1);
    EXPECT_EQ(incremental.true_positives, full.true_positives);
    EXPECT_EQ(incremental.false_positives, full.false_positives);
    EXPECT_EQ(incremental.false_negatives, full.false_negatives);
    EXPECT_EQ(incremental.true_negatives, full.true_negatives);
  }
}

// ---- Session-level warm-start modes --------------------------------------

struct Env {
  ActivePool pool;
  NoisyOracle oracle;
  ProgressiveEvaluator evaluator;
  SvmLearner learner;
  QbcSelector selector;

  explicit Env(const Problem& problem)
      : pool(problem.features),
        oracle(problem.truth, 0.05, 99),
        evaluator(problem.truth),
        learner{LinearSvmConfig{}},
        selector(3, 7) {}
};

ActiveLearningConfig TestConfig(WarmStartMode mode) {
  ActiveLearningConfig config;
  config.seed_size = 30;
  config.batch_size = 10;
  config.max_labels = 100;
  // A window the runs never reach: the plateau count still rides in the
  // IEVL section across every save/resume below.
  config.plateau_window = 50;
  config.warm_start = mode;
  return config;
}

void ExpectCurvesIdentical(const std::vector<IterationStats>& expected,
                           const std::vector<IterationStats>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const IterationStats& a = expected[i];
    const IterationStats& b = actual[i];
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.labels_used, b.labels_used);
    EXPECT_EQ(a.metrics.precision, b.metrics.precision);  // bitwise doubles
    EXPECT_EQ(a.metrics.recall, b.metrics.recall);
    EXPECT_EQ(a.metrics.f1, b.metrics.f1);
    EXPECT_EQ(a.scored_examples, b.scored_examples);
  }
}

std::vector<IterationStats> RunSession(const Problem& problem,
                                       WarmStartMode mode) {
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig(mode));
  session.Run();
  EXPECT_EQ(session.state(), SessionState::kFinished);
  return std::move(session).TakeCurve();
}

TEST(WarmStartSessionTest, OnCurveConvergesWithinTolerance) {
  const Problem problem = MakeProblem(600, 34);
  const std::vector<IterationStats> off =
      RunSession(problem, WarmStartMode::kOff);
  const std::vector<IterationStats> warm =
      RunSession(problem, WarmStartMode::kOn);
  ASSERT_FALSE(warm.empty());
  double off_best = 0.0, warm_best = 0.0;
  for (const IterationStats& it : off) off_best = std::max(off_best, it.metrics.f1);
  for (const IterationStats& it : warm) warm_best = std::max(warm_best, it.metrics.f1);
  EXPECT_NEAR(warm_best, off_best, 0.05);
  EXPECT_NEAR(warm.back().metrics.f1, off.back().metrics.f1, 0.05);
}

TEST(WarmStartSessionTest, RowsRescoredNeverExceedsPoolPerEval) {
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetMetricsEnabled(true);
  const Problem problem = MakeProblem(600, 35);
  const std::vector<IterationStats> curve =
      RunSession(problem, WarmStartMode::kOff);
  const uint64_t rescored =
      obs::MetricsRegistry::Global().GetCounter("eval.rows_rescored").value();
  EXPECT_GT(rescored, 0u);
  // Upper bound: every eval full-rescored plus every audit full-rescored.
  EXPECT_LE(rescored, curve.size() * 2 * problem.truth.size());
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Global().ResetAll();
}

// ---- IEVL snapshot section ----------------------------------------------

// Pause a warm-start=on run at an iteration boundary, round-trip the ALSS
// container, restore into a fresh environment, and finish: the stitched
// curve must equal the uninterrupted warm run bitwise (warm SVM refits are
// deterministic-restartable, and the IEVL section carries the evaluation
// cache across the pause).
TEST(WarmStartSessionTest, WarmSaveResumeBitwiseIdentical) {
  const Problem problem = MakeProblem(600, 36);
  const std::vector<IterationStats> golden =
      RunSession(problem, WarmStartMode::kOn);
  ASSERT_GE(golden.size(), 4u);

  for (const size_t boundary : {size_t{1}, golden.size() / 2}) {
    SCOPED_TRACE("boundary " + std::to_string(boundary));
    Env first_env(problem);
    LabelingSession first(first_env.learner, first_env.selector,
                          first_env.oracle, first_env.evaluator,
                          first_env.pool, TestConfig(WarmStartMode::kOn));
    first.Run(boundary);
    ASSERT_EQ(first.state(), SessionState::kNeedsStep);

    SessionSnapshot saved;
    std::string error;
    ASSERT_TRUE(first.SaveTo(&saved, &error)) << error;
    EXPECT_TRUE(saved.has("IEVL"));

    SessionSnapshot loaded;
    ASSERT_TRUE(SessionSnapshot::Parse(saved.Serialize(), &loaded, &error))
        << error;
    // The snapshot's loop config carries the mode.
    ActiveLearningConfig decoded;
    ASSERT_TRUE(DecodeSessionLoopConfig(loaded, &decoded));
    EXPECT_EQ(decoded.warm_start, WarmStartMode::kOn);

    Env second_env(problem);
    std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
        second_env.learner, second_env.selector, second_env.oracle,
        second_env.evaluator, second_env.pool, loaded, &error);
    ASSERT_NE(resumed, nullptr) << error;
    resumed->Run();
    ASSERT_EQ(resumed->state(), SessionState::kFinished);
    ExpectCurvesIdentical(golden, std::move(*resumed).TakeCurve());
  }
}

// The IEVL section is required state from the first Step on: it holds the
// plateau count, and eval.rows_rescored stitches only from a warm cache. A
// restore therefore fails, with an error naming the section, whenever it is
// missing, misplaced or does not fit. Layout: u64 rows, one 0/1 byte per
// row, u64 TP/FP/FN/TN, u32 audit countdown, u64 stable count.
TEST(EvalCacheRestoreTest, BadSectionFailsNamingIevl) {
  const Problem problem = MakeProblem(600, 36);
  const size_t n = problem.truth.size();
  const ActiveLearningConfig config = TestConfig(WarmStartMode::kOn);
  Env first_env(problem);
  LabelingSession first(first_env.learner, first_env.selector,
                        first_env.oracle, first_env.evaluator, first_env.pool,
                        config);
  SessionSnapshot at_start;
  std::string error;
  ASSERT_TRUE(first.SaveTo(&at_start, &error)) << error;
  first.Run(2);
  ASSERT_EQ(first.state(), SessionState::kNeedsStep);
  SessionSnapshot saved;
  ASSERT_TRUE(first.SaveTo(&saved, &error)) << error;
  const std::string ievl = saved.section("IEVL");
  ASSERT_EQ(ievl.size(), 8 + n + 4 * 8 + 4 + 8);

  // `ievl` with the u64 at `offset` replaced by `value`.
  const auto with_u64 = [&](size_t offset, uint64_t value) {
    std::string out = ievl;
    std::memcpy(out.data() + offset, &value, sizeof(value));
    return out;
  };
  uint64_t tp = 0;
  std::memcpy(&tp, ievl.data() + 8 + n, sizeof(tp));
  std::string two = ievl;
  two[8] = 2;  // A prediction other than 0/1.
  std::string no_countdown = ievl;
  std::memset(no_countdown.data() + 8 + n + 32, 0, 4);

  struct Case {
    const char* name;
    const SessionSnapshot* base;
    std::optional<std::string> ievl;  // nullopt erases the section.
    std::string message;              // Empty: the restore succeeds.
  };
  const Case cases[] = {
      {"untouched", &saved, ievl, ""},
      {"missing after Step 1", &saved, std::nullopt,
       "missing section 'IEVL'"},
      {"present at iteration 0", &at_start, ievl,
       "unexpected section 'IEVL' at iteration 0"},
      {"truncated", &saved, ievl.substr(0, ievl.size() - 1),
       "malformed evaluation-cache section 'IEVL'"},
      // A corrupt section used to fall back to a cold cache.
      {"garbage", &saved, "definitely not a valid eval cache",
       "truncated evaluation-cache section 'IEVL'"},
      {"row count", &saved, with_u64(0, n + 1),
       "'IEVL' has 601 rows for an evaluator of 600"},
      {"prediction byte", &saved, two,
       "'IEVL' holds a prediction other than 0/1"},
      {"tally", &saved, with_u64(8 + n, tp + 1),
       "'IEVL' tally disagrees with its predictions"},
      {"audit countdown", &saved, no_countdown,
       "'IEVL' audit countdown out of range"},
      {"stable count", &saved, with_u64(8 + n + 36, 2),
       "'IEVL' counts 2 stable steps at iteration 2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SessionSnapshot bad = *c.base;
    if (c.ievl.has_value()) {
      bad.set("IEVL", *c.ievl);
    } else {
      bad.sections.erase("IEVL");
    }
    Env second_env(problem);
    std::string message;
    const std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
        second_env.learner, second_env.selector, second_env.oracle,
        second_env.evaluator, second_env.pool, bad, &message);
    if (c.message.empty()) {
      EXPECT_NE(resumed, nullptr) << message;
    } else {
      EXPECT_EQ(resumed, nullptr);
      EXPECT_NE(message.find(c.message), std::string::npos) << message;
    }
  }
}

// Every session evaluates incrementally, so in either warm-start mode the
// snapshot carries the IEVL section once the first Step has filled the
// cache (and none before, when there is nothing to carry).
TEST(WarmStartSessionTest, EverySessionWritesEvalSectionAfterFirstStep) {
  const Problem problem = MakeProblem(600, 37);
  for (const WarmStartMode mode : {WarmStartMode::kOff, WarmStartMode::kOn}) {
    SCOPED_TRACE(std::string(WarmStartModeName(mode)));
    Env env(problem);
    LabelingSession session(env.learner, env.selector, env.oracle,
                            env.evaluator, env.pool, TestConfig(mode));
    SessionSnapshot saved;
    std::string error;
    ASSERT_TRUE(session.SaveTo(&saved, &error)) << error;
    EXPECT_FALSE(saved.has("IEVL"));
    session.Run(1);
    ASSERT_TRUE(session.SaveTo(&saved, &error)) << error;
    EXPECT_TRUE(saved.has("IEVL"));
  }
}

TEST(WarmStartModeTest, NamesRoundTrip) {
  for (const WarmStartMode mode : {WarmStartMode::kOff, WarmStartMode::kOn}) {
    WarmStartMode parsed = WarmStartMode::kOff;
    ASSERT_TRUE(ParseWarmStartMode(WarmStartModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  WarmStartMode parsed = WarmStartMode::kOff;
  EXPECT_FALSE(ParseWarmStartMode("auto", &parsed));
  EXPECT_FALSE(ParseWarmStartMode("warm", &parsed));
  EXPECT_FALSE(ParseWarmStartMode("", &parsed));
}

// The snapshot's warm-start byte has two valid values; any other (2 was the
// removed "auto" mode) makes the loop-config section malformed.
TEST(WarmStartModeTest, UnknownSnapshotModeByteIsMalformed) {
  const Problem problem = MakeProblem(600, 38);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool,
                          TestConfig(WarmStartMode::kOff));
  session.Run(1);
  SessionSnapshot saved;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&saved, &error)) << error;
  const std::string config = saved.section("BCFG");
  // A byte other than 0/1, and no byte at all (the layout that predates
  // warm starts).
  std::string unknown = config;
  unknown.back() = 2;
  for (const std::string& bad : {unknown, config.substr(0, config.size() - 1)}) {
    saved.set("BCFG", bad);
    ActiveLearningConfig decoded;
    EXPECT_FALSE(DecodeSessionLoopConfig(saved, &decoded));
    Env env2(problem);
    EXPECT_EQ(LabelingSession::Restore(env2.learner, env2.selector,
                                       env2.oracle, env2.evaluator, env2.pool,
                                       saved, &error),
              nullptr);
    EXPECT_NE(error.find("malformed config"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace alem
