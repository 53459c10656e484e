#include <gtest/gtest.h>

#include <algorithm>

#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
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

TEST(SeedPoolTest, LabelsBothClasses) {
  const Problem problem = MakeProblem(500, 1);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  const SeedResult seeded = SeedPool(pool, oracle, 30, 3);
  EXPECT_GE(seeded.labeled, 30u);
  EXPECT_TRUE(seeded.has_both_classes);
  const std::vector<int> labels = pool.ActiveLabeledLabels();
  EXPECT_TRUE(std::count(labels.begin(), labels.end(), 1) > 0);
  EXPECT_TRUE(std::count(labels.begin(), labels.end(), 0) > 0);
}

TEST(SessionRunTest, F1ImprovesAndLabelsGrow) {
  const Problem problem = MakeProblem(800, 2);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.max_labels = 150;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const std::vector<IterationStats> curve = std::move(session).TakeCurve();

  ASSERT_GE(curve.size(), 2u);
  // Labels grow by the batch size each iteration.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i].labels_used, curve[i - 1].labels_used + 10);
  }
  // Final F1 should be strong on this separable problem.
  EXPECT_GT(curve.back().metrics.f1, 0.9);
  EXPECT_LE(curve.back().labels_used, 150u);
}

TEST(SessionRunTest, StopsAtMaxLabels) {
  const Problem problem = MakeProblem(400, 3);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.max_labels = 60;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  EXPECT_LE(pool.num_labeled(), 60u);
  EXPECT_LE(oracle.queries(), 60u);
}

TEST(SessionRunTest, StopsAtTargetF1) {
  const Problem problem = MakeProblem(600, 4);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  RandomForestConfig forest_config;
  forest_config.num_trees = 10;
  ForestLearner learner(forest_config);
  ForestQbcSelector selector(5);
  ActiveLearningConfig config;
  config.max_labels = 500;
  config.target_f1 = 0.95;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();
  EXPECT_GE(curve.back().metrics.f1, 0.95);
  EXPECT_LT(pool.num_labeled(), 500u);  // Stopped well before the budget.
}

TEST(SessionRunTest, RecordsLatencyBreakdown) {
  const Problem problem = MakeProblem(400, 5);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  QbcSelector selector(3, 7);
  ActiveLearningConfig config;
  config.max_labels = 70;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();
  for (size_t i = 0; i + 1 < curve.size(); ++i) {
    EXPECT_GT(curve[i].train_seconds, 0.0);
    EXPECT_GT(curve[i].committee_seconds, 0.0);  // QBC builds committees.
    EXPECT_GE(curve[i].wait_seconds,
              curve[i].train_seconds + curve[i].committee_seconds);
  }
}

// wait_seconds must equal the sum of the measured train + select phase
// spans (single measurement, no separately restarted wall clock), so the
// trace and the learning curve tell the same latency story.
TEST(SessionRunTest, WaitSecondsIsSumOfPhaseSpans) {
  obs::TraceRecorder::Global().Clear();
  obs::SetTracingEnabled(true);

  const Problem problem = MakeProblem(400, 8);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  QbcSelector selector(3, 7);
  ActiveLearningConfig config;
  config.max_labels = 70;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();

  obs::SetTracingEnabled(false);
  const std::vector<obs::SpanRecord> spans =
      obs::TraceRecorder::Global().Snapshot();
  obs::TraceRecorder::Global().Clear();

  // Spans close in iteration order on one thread, so the i-th train/select
  // span belongs to curve[i].
  std::vector<double> train_seconds;
  std::vector<double> select_seconds;
  size_t iteration_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    const double seconds = static_cast<double>(span.duration_ns) / 1e9;
    if (span.name == "loop.train") train_seconds.push_back(seconds);
    if (span.name == "loop.select") select_seconds.push_back(seconds);
    if (span.name == "loop.iteration") ++iteration_spans;
  }
  ASSERT_EQ(train_seconds.size(), curve.size());
  ASSERT_EQ(select_seconds.size(), curve.size());
  EXPECT_EQ(iteration_spans, curve.size());
  for (size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve[i].wait_seconds,
                     train_seconds[i] + select_seconds[i])
        << "iteration " << i;
    EXPECT_DOUBLE_EQ(curve[i].train_seconds, train_seconds[i]);
    EXPECT_DOUBLE_EQ(curve[i].select_seconds, select_seconds[i]);
  }
}

TEST(SessionRunTest, CollectsInterpretabilityForForests) {
  const Problem problem = MakeProblem(400, 6);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  RandomForestConfig forest_config;
  forest_config.num_trees = 5;
  ForestLearner learner(forest_config);
  ForestQbcSelector selector(2);
  ActiveLearningConfig config;
  config.max_labels = 60;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();
  EXPECT_GT(curve.back().dnf_atoms, 0u);
  EXPECT_GT(curve.back().tree_depth, 0);
}

TEST(SessionRunTest, IncompatibleSelectorAborts) {
  SvmLearner svm;
  LfpLfnSelector selector;  // Rules-only.
  PerfectOracle oracle({0, 1});
  ProgressiveEvaluator evaluator({0, 1});
  ActivePool pool(FeatureMatrix(2, 1));
  ActiveLearningConfig config;
  EXPECT_DEATH(
      {
        LabelingSession session(svm, selector, oracle, evaluator, pool,
                                config);
      },
      "CompatibleWith");
}

TEST(SessionRunTest, HoldoutEvaluationNeverSelectsTestRows) {
  const Problem problem = MakeProblem(500, 7);
  ActivePool pool(problem.features);
  // Hold out the first 100 rows.
  std::vector<size_t> test_rows(100);
  std::vector<int> test_truth(100);
  for (size_t i = 0; i < 100; ++i) {
    test_rows[i] = i;
    test_truth[i] = problem.truth[i];
    pool.Exclude(i);
  }
  HoldoutEvaluator evaluator(test_rows, test_truth);
  PerfectOracle oracle(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.max_labels = 100;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(pool.IsLabeled(i)) << "test row " << i << " was labeled";
  }
}

}  // namespace
}  // namespace alem
