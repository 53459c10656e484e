// Active ensembles of high-precision classifiers (paper §5.2), run as a
// LabelingSession with config.ensemble_precision > 0.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "util/rng.h"

namespace alem {
namespace {

// Two disjoint positive clusters; a single linear classifier can cover one
// at high precision but not both, so an ensemble should accept more than one
// member to reach high recall.
struct Problem {
  FeatureMatrix features;
  std::vector<int> truth;
};

Problem MakeTwoClusterProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double x, y;
    int label;
    switch (i % 10) {
      case 0:  // Positive cluster A: high-x, low-y.
        x = 0.85;
        y = 0.15;
        label = 1;
        break;
      case 1:  // Positive cluster B: low-x, high-y.
        x = 0.15;
        y = 0.85;
        label = 1;
        break;
      default:  // Negatives: middle.
        x = 0.45;
        y = 0.45;
        label = 0;
        break;
    }
    problem.features.Set(i, 0,
                         static_cast<float>(x + rng.NextGaussian() * 0.04));
    problem.features.Set(i, 1,
                         static_cast<float>(y + rng.NextGaussian() * 0.04));
    problem.truth[i] = label;
  }
  return problem;
}

ActiveLearningConfig EnsembleConfig(size_t max_labels,
                                    double precision = 0.85) {
  ActiveLearningConfig config;
  config.max_labels = max_labels;
  config.ensemble_precision = precision;
  return config;
}

// Runs an ensemble session over `pool` to termination: a linear-SVM
// candidate, margin selection, and a perfect oracle answering from `truth`.
std::vector<IterationStats> RunEnsemble(ActivePool& pool,
                                        const std::vector<int>& truth,
                                        const Evaluator& evaluator,
                                        const ActiveLearningConfig& config) {
  PerfectOracle oracle(truth);
  SvmLearner candidate{LinearSvmConfig{}};
  MarginSelector selector;
  LabelingSession session(candidate, selector, oracle, evaluator, pool,
                          config);
  session.Run();
  return std::move(session).TakeCurve();
}

TEST(ActiveEnsembleTest, AcceptsMembersAndExcludesCoverage) {
  const Problem problem = MakeTwoClusterProblem(600, 1);
  ActivePool pool(problem.features);
  ProgressiveEvaluator evaluator(problem.truth);
  const std::vector<IterationStats> curve =
      RunEnsemble(pool, problem.truth, evaluator, EnsembleConfig(200));

  ASSERT_FALSE(curve.empty());
  EXPECT_GE(curve.back().ensemble_size, 1u);
  // Ensemble size is monotonically non-decreasing along the curve.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].ensemble_size, curve[i - 1].ensemble_size);
  }
  // Accepted members' coverage left the pool.
  size_t excluded = 0;
  for (size_t row = 0; row < pool.size(); ++row) {
    excluded += pool.IsExcluded(row) ? 1 : 0;
  }
  EXPECT_GT(excluded, 0u);
}

TEST(ActiveEnsembleTest, ReachesHighRecallOnTwoClusters) {
  const Problem problem = MakeTwoClusterProblem(600, 2);
  ActivePool pool(problem.features);
  ProgressiveEvaluator evaluator(problem.truth);
  const std::vector<IterationStats> curve =
      RunEnsemble(pool, problem.truth, evaluator, EnsembleConfig(250));
  double best_recall = 0.0;
  for (const IterationStats& stats : curve) {
    best_recall = std::max(best_recall, stats.metrics.recall);
  }
  EXPECT_GT(best_recall, 0.85);
}

TEST(ActiveEnsembleTest, PrecisionGateBlocksLowPrecisionCandidates) {
  // Labels independent of features: no candidate should clear tau = 0.99.
  Rng rng(3);
  FeatureMatrix features(300, 2);
  std::vector<int> truth(300);
  for (size_t i = 0; i < 300; ++i) {
    features.Set(i, 0, static_cast<float>(rng.NextDouble()));
    features.Set(i, 1, static_cast<float>(rng.NextDouble()));
    truth[i] = rng.NextBernoulli(0.3) ? 1 : 0;
  }
  ActivePool pool(features);
  ProgressiveEvaluator evaluator(truth);
  const std::vector<IterationStats> curve =
      RunEnsemble(pool, truth, evaluator, EnsembleConfig(120, 0.99));
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.back().ensemble_size, 0u);
}

TEST(ActiveEnsembleTest, StopsAtLabelBudget) {
  const Problem problem = MakeTwoClusterProblem(500, 4);
  ActivePool pool(problem.features);
  ProgressiveEvaluator evaluator(problem.truth);
  RunEnsemble(pool, problem.truth, evaluator, EnsembleConfig(80));
  EXPECT_LE(pool.num_labeled(), 80u);
}

// Held-out test rows are excluded from the pool from the start, yet the
// ensemble must still predict them with its accepted members: once a member
// is accepted, the holdout F1 may not collapse to the residual candidate's
// (or to 0 when that candidate fails the precision gate).
TEST(ActiveEnsembleTest, HoldoutScoresAcceptedMembers) {
  const Problem problem = MakeTwoClusterProblem(1000, 5);
  ActivePool pool(problem.features);
  Rng split_rng(17);
  std::vector<size_t> test_rows =
      split_rng.SampleWithoutReplacement(pool.size(), pool.size() / 5);
  std::sort(test_rows.begin(), test_rows.end());
  std::vector<int> test_truth;
  for (const size_t row : test_rows) {
    test_truth.push_back(problem.truth[row]);
    pool.Exclude(row);
  }
  HoldoutEvaluator evaluator(test_rows, test_truth);
  const std::vector<IterationStats> curve =
      RunEnsemble(pool, problem.truth, evaluator, EnsembleConfig(200));

  ASSERT_GE(curve.size(), 2u);
  ASSERT_GE(curve.back().ensemble_size, 1u);
  for (size_t i = 1; i < curve.size(); ++i) {
    if (curve[i - 1].ensemble_size == 0) continue;  // Nothing accepted yet.
    SCOPED_TRACE("iteration " + std::to_string(curve[i].iteration));
    EXPECT_GT(curve[i].metrics.f1, 0.0);
  }
}

}  // namespace
}  // namespace alem
