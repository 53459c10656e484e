// Tests for the framework extensions beyond the paper's core grid:
// IWAL and density-weighted selectors, NN blocking dimensions, majority-vote
// label correction, and plateau-based termination.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "util/rng.h"

namespace alem {
namespace {

ActivePool MakeLinePool(size_t n) {
  FeatureMatrix features(n, 1);
  for (size_t i = 0; i < n; ++i) {
    features.Set(i, 0, static_cast<float>(i) / static_cast<float>(n - 1));
  }
  return ActivePool(std::move(features));
}

void LabelEndpoints(ActivePool& pool, size_t n) {
  for (size_t i = 0; i < 5; ++i) {
    pool.AddLabel(i, 0);
    pool.AddLabel(n - 1 - i, 1);
  }
}

// ---- IwalSelector ----

TEST(IwalSelectorTest, CompatibleWithEveryLearner) {
  IwalSelector selector(3, 0.1, 1);
  SvmLearner svm;
  ForestLearner forest;
  RuleLearner rules;
  EXPECT_TRUE(selector.CompatibleWith(svm));
  EXPECT_TRUE(selector.CompatibleWith(forest));
  EXPECT_TRUE(selector.CompatibleWith(rules));
}

TEST(IwalSelectorTest, FillsBatchWithoutDuplicates) {
  ActivePool pool = MakeLinePool(100);
  LabelEndpoints(pool, 100);
  SvmLearner learner{LinearSvmConfig{}};
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());
  IwalSelector selector(3, 0.1, 7);
  SelectionTiming timing;
  const std::vector<size_t> batch = selector.Select(learner, pool, 10,
                                                    &timing);
  EXPECT_EQ(batch.size(), 10u);
  std::set<size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
  EXPECT_GT(timing.committee_seconds, 0.0);
  for (const size_t row : batch) {
    EXPECT_FALSE(pool.IsLabeled(row));
  }
}

TEST(IwalSelectorTest, RunsInsideTheLoop) {
  Rng rng(3);
  FeatureMatrix features(400, 2);
  std::vector<int> truth(400);
  for (size_t i = 0; i < 400; ++i) {
    const bool positive = i % 8 == 0;
    const double center = positive ? 0.75 : 0.3;
    features.Set(i, 0, static_cast<float>(center + rng.NextGaussian() * 0.07));
    features.Set(i, 1, static_cast<float>(center + rng.NextGaussian() * 0.07));
    truth[i] = positive ? 1 : 0;
  }
  ActivePool pool(features);
  PerfectOracle oracle(truth);
  ProgressiveEvaluator evaluator(truth);
  SvmLearner learner{LinearSvmConfig{}};
  IwalSelector selector(3, 0.1, 5);
  ActiveLearningConfig config;
  config.max_labels = 150;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();
  EXPECT_GT(curve.back().metrics.f1, 0.8);
}

// ---- DensityWeightedSelector ----

TEST(DensityWeightedSelectorTest, RequiresMarginLearner) {
  DensityWeightedSelector selector(1.0, 1);
  SvmLearner svm;
  ForestLearner forest;
  EXPECT_TRUE(selector.CompatibleWith(svm));
  EXPECT_FALSE(selector.CompatibleWith(forest));
}

TEST(DensityWeightedSelectorTest, PrefersDenseAmbiguousRegions) {
  // Two ambiguous candidates at the same margin: one in a dense cluster,
  // one isolated outlier. The dense one must be picked first.
  FeatureMatrix features(42, 2);
  // Rows 0..39: dense cluster near (0.5, 0.5) — also near the boundary.
  Rng rng(11);
  for (size_t i = 0; i < 40; ++i) {
    features.Set(i, 0, static_cast<float>(0.5 + rng.NextGaussian() * 0.01));
    features.Set(i, 1, static_cast<float>(0.5 + rng.NextGaussian() * 0.01));
  }
  // Row 40: outlier, same distance from the boundary but far away in space.
  features.Set(40, 0, 0.5f);
  features.Set(40, 1, 0.0f);
  // Row 41: clearly positive anchor.
  features.Set(41, 0, 0.9f);
  features.Set(41, 1, 0.9f);
  ActivePool pool(std::move(features));
  pool.AddLabel(41, 1);
  pool.AddLabel(40, 0);  // Label the outlier so it can't be selected.

  // Fake margin learner: margin = x0 - 0.5 (all cluster rows ~equally
  // ambiguous). Use a trained SVM on the two labeled rows as a stand-in.
  SvmLearner learner{LinearSvmConfig{}};
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());

  DensityWeightedSelector selector(1.0, 3);
  const std::vector<size_t> batch = selector.Select(learner, pool, 5, nullptr);
  ASSERT_EQ(batch.size(), 5u);
  for (const size_t row : batch) {
    EXPECT_LT(row, 40u);  // All picks from the dense cluster.
  }
}

// ---- NN blocking dimensions ----

TEST(NnBlockingTest, ImportanceIdentifiesInformativeInput) {
  // Feature 1 carries all signal; feature 0 is noise.
  Rng rng(5);
  FeatureMatrix features(300, 2);
  std::vector<int> labels(300);
  for (size_t i = 0; i < 300; ++i) {
    const bool positive = i % 2 == 0;
    features.Set(i, 0, static_cast<float>(rng.NextDouble() * 0.05));
    features.Set(i, 1, positive ? 0.9f : 0.1f);
    labels[i] = positive ? 1 : 0;
  }
  NeuralNetLearner learner{NeuralNetConfig{}};
  learner.Fit(features, labels);
  const std::vector<size_t> blocking = learner.BlockingDimensions(1);
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0], 1u);
}

TEST(NnBlockingTest, MarginSelectorUsesNnBlocking) {
  Rng rng(6);
  FeatureMatrix features(120, 2);
  std::vector<int> labels;
  for (size_t i = 0; i < 120; ++i) {
    // A third of the rows have a zero signal dimension.
    features.Set(i, 0, i % 3 == 0 ? 0.0f : (i < 60 ? 0.2f : 0.9f));
    features.Set(i, 1, 0.5f);
  }
  ActivePool pool(std::move(features));
  for (size_t i = 0; i < 6; ++i) {
    pool.AddLabel(1 + i, 0);
    pool.AddLabel(119 - i, 1);
  }
  NeuralNetLearner learner{NeuralNetConfig{}};
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());

  MarginSelector selector(/*blocking_dims=*/1);
  SelectionTiming timing;
  selector.Select(learner, pool, 5, &timing);
  EXPECT_GT(timing.pruned_examples, 0u);
}

// ---- MajorityVoteOracle ----

TEST(MajorityVoteOracleTest, ReducesEffectiveNoise) {
  const size_t n = 20000;
  std::vector<int> truth(n);
  for (size_t i = 0; i < n; ++i) truth[i] = i % 4 == 0 ? 1 : 0;

  NoisyOracle single(truth, 0.3, 1);
  MajorityVoteOracle voted(truth, 0.3, 5, 1);
  size_t single_flips = 0, voted_flips = 0;
  for (size_t i = 0; i < n; ++i) {
    single_flips += single.Label(i) != truth[i] ? 1 : 0;
    voted_flips += voted.Label(i) != truth[i] ? 1 : 0;
  }
  // Binomial(5, 0.3) majority error ~= 0.163 < 0.3.
  EXPECT_LT(voted_flips, single_flips);
  const double voted_rate = static_cast<double>(voted_flips) / n;
  EXPECT_NEAR(voted_rate, 0.163, 0.02);
}

TEST(MajorityVoteOracleTest, SingleVoterEqualsNoisyOracle) {
  std::vector<int> truth = {1, 0, 1, 1, 0};
  MajorityVoteOracle oracle(truth, 0.0, 1, 1);
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(oracle.Label(i), truth[i]);
  }
}

TEST(MajorityVoteOracleTest, CachesDecisions) {
  std::vector<int> truth(100, 1);
  MajorityVoteOracle oracle(truth, 0.4, 3, 9);
  std::vector<int> first(100);
  for (size_t i = 0; i < 100; ++i) first[i] = oracle.Label(i);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(oracle.Label(i), first[i]);
  }
}

TEST(MajorityVoteOracleTest, EvenVoterCountAborts) {
  EXPECT_DEATH({ MajorityVoteOracle oracle({1}, 0.1, 4, 1); }, "");
}

// ---- Plateau termination ----

TEST(PlateauTerminationTest, StopsWhenPredictionsStabilize) {
  Rng rng(8);
  FeatureMatrix features(500, 2);
  std::vector<int> truth(500);
  for (size_t i = 0; i < 500; ++i) {
    const bool positive = i % 5 == 0;
    const double center = positive ? 0.8 : 0.2;
    features.Set(i, 0, static_cast<float>(center + rng.NextGaussian() * 0.03));
    features.Set(i, 1, static_cast<float>(center + rng.NextGaussian() * 0.03));
    truth[i] = positive ? 1 : 0;
  }
  ActivePool pool(features);
  PerfectOracle oracle(truth);
  ProgressiveEvaluator evaluator(truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.max_labels = 490;  // Would run ~46 iterations without the plateau.
  config.plateau_window = 3;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();
  // An easy separable problem stabilizes long before the budget runs out.
  EXPECT_LT(curve.back().labels_used, 490u);
  // The plateau window requires at least window+1 evaluations.
  EXPECT_GE(curve.size(), 4u);
}

TEST(PlateauTerminationTest, DisabledByDefault) {
  ActiveLearningConfig config;
  EXPECT_EQ(config.plateau_window, 0u);
}

}  // namespace
}  // namespace alem
