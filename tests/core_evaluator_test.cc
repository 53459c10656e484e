#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "ml/metrics.h"

namespace alem {
namespace {

TEST(ProgressiveEvaluatorTest, EvalRowsCoverEverything) {
  ProgressiveEvaluator evaluator({1, 0, 1, 0, 0});
  const std::vector<size_t>& rows = evaluator.eval_rows();
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], i);
  }
}

TEST(ProgressiveEvaluatorTest, ComputesMetricsAgainstTruth) {
  ProgressiveEvaluator evaluator({1, 0, 1, 0});
  EXPECT_EQ(evaluator.eval_truth(), (std::vector<int>{1, 0, 1, 0}));
  const BinaryMetrics m =
      ComputeBinaryMetrics({1, 1, 0, 0}, evaluator.eval_truth());
  EXPECT_EQ(m.true_positives, 1u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
}

TEST(ProgressiveEvaluatorTest, PerfectPredictionsGiveF1One) {
  const std::vector<int> truth = {1, 0, 0, 1, 1};
  ProgressiveEvaluator evaluator(truth);
  EXPECT_DOUBLE_EQ(ComputeBinaryMetrics(truth, evaluator.eval_truth()).f1,
                   1.0);
}

TEST(HoldoutEvaluatorTest, EvalRowsAreTheTestSplit) {
  HoldoutEvaluator evaluator({3, 7, 9}, {1, 0, 1});
  EXPECT_EQ(evaluator.eval_rows(), (std::vector<size_t>{3, 7, 9}));
}

TEST(HoldoutEvaluatorTest, MetricsUseAlignedTruth) {
  HoldoutEvaluator evaluator({3, 7, 9}, {1, 0, 1});
  EXPECT_EQ(evaluator.eval_truth(), (std::vector<int>{1, 0, 1}));
  const BinaryMetrics m =
      ComputeBinaryMetrics({1, 0, 0}, evaluator.eval_truth());
  EXPECT_EQ(m.true_positives, 1u);
  EXPECT_EQ(m.false_negatives, 1u);
  EXPECT_EQ(m.true_negatives, 1u);
}

TEST(HoldoutEvaluatorTest, EmptySplit) {
  HoldoutEvaluator evaluator({}, {});
  EXPECT_TRUE(evaluator.eval_rows().empty());
  EXPECT_TRUE(evaluator.eval_truth().empty());
  EXPECT_DOUBLE_EQ(ComputeBinaryMetrics({}, evaluator.eval_truth()).f1, 0.0);
}

}  // namespace
}  // namespace alem
