#include <gtest/gtest.h>

#include "ml/dnf_rule.h"
#include "ml/metrics.h"
#include "util/rng.h"

namespace alem {
namespace {

// Boolean dataset where the target concept is the DNF
//   (atom0 AND atom1) OR atom3.
void MakeDnfData(size_t n, uint64_t seed, FeatureMatrix* features,
                 std::vector<int>* labels) {
  Rng rng(seed);
  *features = FeatureMatrix(n, 5);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    int bits[5];
    for (size_t a = 0; a < 5; ++a) {
      bits[a] = rng.NextBernoulli(0.4) ? 1 : 0;
      features->Set(i, a, static_cast<float>(bits[a]));
    }
    (*labels)[i] = ((bits[0] != 0 && bits[1] != 0) || bits[3] != 0) ? 1 : 0;
  }
}

TEST(ConjunctionTest, MatchesRequiresAllAtoms) {
  const float row_match[] = {1.0f, 1.0f, 0.0f};
  const float row_miss[] = {1.0f, 0.0f, 0.0f};
  Conjunction conjunction{{0, 1}};
  EXPECT_TRUE(conjunction.Matches(row_match));
  EXPECT_FALSE(conjunction.Matches(row_miss));
}

TEST(ConjunctionTest, EmptyConjunctionMatchesEverything) {
  const float row[] = {0.0f, 0.0f};
  Conjunction conjunction;
  EXPECT_TRUE(conjunction.Matches(row));
}

TEST(DnfTest, MatchesIsDisjunction) {
  const float row[] = {0.0f, 1.0f, 1.0f};
  Dnf dnf;
  dnf.conjunctions.push_back(Conjunction{{0}});      // Fails.
  dnf.conjunctions.push_back(Conjunction{{1, 2}});   // Matches.
  EXPECT_TRUE(dnf.Matches(row));
  EXPECT_EQ(dnf.NumAtoms(), 3u);
}

TEST(DnfTest, EmptyDnfMatchesNothing) {
  const float row[] = {1.0f};
  Dnf dnf;
  EXPECT_FALSE(dnf.Matches(row));
  EXPECT_EQ(dnf.NumAtoms(), 0u);
}

TEST(DnfTest, RuleMinusDropsOneAtomEachWay) {
  Dnf dnf;
  dnf.conjunctions.push_back(Conjunction{{0, 1, 2}});
  dnf.conjunctions.push_back(Conjunction{{3}});  // Too short to relax.
  const std::vector<Conjunction> variants = dnf.RuleMinusVariants();
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_EQ(variants[0].atoms, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(variants[1].atoms, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(variants[2].atoms, (std::vector<size_t>{0, 1}));
}

TEST(DnfRuleLearnerTest, RecoversPlantedDnf) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeDnfData(600, 1, &features, &labels);
  DnfRuleLearner learner(DnfRuleLearnerConfig{});
  learner.Fit(features, labels);
  const BinaryMetrics m =
      ComputeBinaryMetrics(learner.PredictAll(features), labels);
  EXPECT_GT(m.f1, 0.98);
  // The learned DNF should be compact (the planted concept has 3 atoms).
  EXPECT_LE(learner.dnf().NumAtoms(), 6u);
}

TEST(DnfRuleLearnerTest, LearnedRulesAreHighPrecision) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeDnfData(600, 2, &features, &labels);
  DnfRuleLearnerConfig config;
  config.min_precision = 0.9;
  DnfRuleLearner learner(config);
  learner.Fit(features, labels);
  // Each individual conjunction must clear the precision gate on the data it
  // was accepted against; verify the overall DNF is also high precision.
  const BinaryMetrics m =
      ComputeBinaryMetrics(learner.PredictAll(features), labels);
  EXPECT_GE(m.precision, 0.9);
}

TEST(DnfRuleLearnerTest, AllNegativeDataYieldsEmptyDnf) {
  FeatureMatrix features(50, 4);
  std::vector<int> labels(50, 0);
  DnfRuleLearner learner;
  learner.Fit(features, labels);
  EXPECT_TRUE(learner.dnf().conjunctions.empty());
  EXPECT_EQ(learner.Predict(features.Row(0)), 0);
}

TEST(DnfRuleLearnerTest, NoiseBelowGateLearnsNothingReckless) {
  // Labels independent of features: no high-precision rule should exist.
  Rng rng(3);
  FeatureMatrix features(300, 4);
  std::vector<int> labels(300);
  for (size_t i = 0; i < 300; ++i) {
    for (size_t a = 0; a < 4; ++a) {
      features.Set(i, a, rng.NextBernoulli(0.5) ? 1.0f : 0.0f);
    }
    labels[i] = rng.NextBernoulli(0.3) ? 1 : 0;
  }
  DnfRuleLearnerConfig config;
  config.min_precision = 0.95;
  DnfRuleLearner learner(config);
  learner.Fit(features, labels);
  // Whatever was learned (likely nothing) must keep precision >= gate or be
  // empty; random-label data cannot support a broad high-precision rule.
  const std::vector<int> predictions = learner.PredictAll(features);
  size_t predicted_positives = 0;
  for (const int p : predictions) predicted_positives += p;
  EXPECT_LT(predicted_positives, 60u);
}

TEST(DnfRuleLearnerTest, ToStringMentionsAtoms) {
  Dnf dnf;
  dnf.conjunctions.push_back(Conjunction{{0}});
  // A real featurizer requires a dataset; exercise the empty path only.
  Dnf empty;
  EXPECT_EQ(empty.conjunctions.size(), 0u);
}

TEST(DnfRuleLearnerTest, LearnedDnfIsAlreadySimplified) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeDnfData(500, 5, &features, &labels);
  DnfRuleLearner learner;
  learner.Fit(features, labels);
  // Fit() simplifies on the way out, so a second pass finds nothing.
  Dnf dnf = learner.dnf();
  EXPECT_EQ(dnf.Simplify(), 0u);
}

TEST(DnfRuleLearnerTest, RespectsMaxConjunctions) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeDnfData(400, 4, &features, &labels);
  DnfRuleLearnerConfig config;
  config.max_conjunctions = 1;
  DnfRuleLearner learner(config);
  learner.Fit(features, labels);
  EXPECT_LE(learner.dnf().conjunctions.size(), 1u);
}

// ---- Dnf::Simplify ----

TEST(DnfSimplifyTest, RemovesSupersetsAndDuplicates) {
  Dnf dnf;
  dnf.conjunctions.push_back(Conjunction{{1, 2}});
  dnf.conjunctions.push_back(Conjunction{{1, 2, 3}});  // Superset: redundant.
  dnf.conjunctions.push_back(Conjunction{{2, 1}});     // Duplicate (order).
  dnf.conjunctions.push_back(Conjunction{{5}});
  const size_t removed = dnf.Simplify();
  EXPECT_EQ(removed, 2u);
  ASSERT_EQ(dnf.conjunctions.size(), 2u);
  EXPECT_EQ(dnf.conjunctions[0].atoms, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(dnf.conjunctions[1].atoms, (std::vector<size_t>{5}));
}

TEST(DnfSimplifyTest, PreservesSemantics) {
  Rng rng(4);
  Dnf dnf;
  for (int c = 0; c < 8; ++c) {
    Conjunction conjunction;
    const int atoms = static_cast<int>(rng.NextInRange(1, 4));
    for (int a = 0; a < atoms; ++a) {
      conjunction.atoms.push_back(rng.NextBelow(6));
    }
    dnf.conjunctions.push_back(conjunction);
  }
  Dnf simplified = dnf;
  simplified.Simplify();
  // Exhaustively check all 2^6 boolean inputs.
  for (int mask = 0; mask < 64; ++mask) {
    float row[6];
    for (int a = 0; a < 6; ++a) row[a] = (mask >> a) & 1 ? 1.0f : 0.0f;
    EXPECT_EQ(dnf.Matches(row), simplified.Matches(row)) << mask;
  }
}

TEST(DnfSimplifyTest, EmptyAndSingleton) {
  Dnf empty;
  EXPECT_EQ(empty.Simplify(), 0u);
  Dnf single;
  single.conjunctions.push_back(Conjunction{{0}});
  EXPECT_EQ(single.Simplify(), 0u);
  EXPECT_EQ(single.conjunctions.size(), 1u);
}

}  // namespace
}  // namespace alem
