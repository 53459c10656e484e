#include <gtest/gtest.h>

#include "core/pool.h"

namespace alem {
namespace {

FeatureMatrix MakeFeatures(size_t rows) {
  FeatureMatrix features(rows, 2);
  for (size_t r = 0; r < rows; ++r) {
    features.Set(r, 0, static_cast<float>(r));
  }
  return features;
}

TEST(ActivePoolTest, StartsFullyUnlabeled) {
  ActivePool pool(MakeFeatures(5));
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.num_labeled(), 0u);
  EXPECT_EQ(pool.unlabeled_rows().size(), 5u);
}

TEST(ActivePoolTest, AddLabelMovesRow) {
  ActivePool pool(MakeFeatures(5));
  pool.AddLabel(2, 1);
  EXPECT_TRUE(pool.IsLabeled(2));
  EXPECT_EQ(pool.LabelOf(2), 1);
  EXPECT_EQ(pool.num_labeled(), 1u);
  EXPECT_EQ(pool.unlabeled_rows().size(), 4u);
  for (const size_t row : pool.unlabeled_rows()) {
    EXPECT_NE(row, 2u);
  }
}

TEST(ActivePoolTest, LabeledOrderPreserved) {
  ActivePool pool(MakeFeatures(5));
  pool.AddLabel(3, 0);
  pool.AddLabel(1, 1);
  pool.AddLabel(4, 0);
  EXPECT_EQ(pool.labeled_rows(), (std::vector<size_t>{3, 1, 4}));
  EXPECT_EQ(pool.ActiveLabeledLabels(), (std::vector<int>{0, 1, 0}));
}

TEST(ActivePoolTest, ActiveLabeledFeaturesGathersRows) {
  ActivePool pool(MakeFeatures(5));
  pool.AddLabel(3, 1);
  pool.AddLabel(0, 0);
  const FeatureMatrix gathered = pool.ActiveLabeledFeatures();
  ASSERT_EQ(gathered.rows(), 2u);
  EXPECT_FLOAT_EQ(gathered.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(gathered.At(1, 0), 0.0f);
}

TEST(ActivePoolTest, ViewsBorrowedFeaturesWithoutCopying) {
  const FeatureMatrix features = MakeFeatures(5);
  ActivePool pool(&features);
  EXPECT_EQ(&pool.features(), &features);
  EXPECT_EQ(pool.size(), 5u);
  pool.AddLabel(4, 1);
  const FeatureMatrix gathered = pool.ActiveLabeledFeatures();
  ASSERT_EQ(gathered.rows(), 1u);
  EXPECT_FLOAT_EQ(gathered.At(0, 0), 4.0f);
  // Moving the pool (as a RunEnv is) keeps the view.
  const ActivePool moved = std::move(pool);
  EXPECT_EQ(&moved.features(), &features);
}

TEST(ActivePoolTest, ExcludeRemovesFromSelectable) {
  ActivePool pool(MakeFeatures(5));
  pool.Exclude(0);
  pool.Exclude(4);
  EXPECT_EQ(pool.unlabeled_rows().size(), 3u);
  EXPECT_TRUE(pool.IsExcluded(0));
  EXPECT_FALSE(pool.IsExcluded(1));
}

TEST(ActivePoolTest, ExcludedLabeledRowLeavesTrainingSet) {
  ActivePool pool(MakeFeatures(5));
  pool.AddLabel(1, 1);
  pool.AddLabel(2, 0);
  pool.Exclude(1);  // Covered by an accepted ensemble member.
  EXPECT_EQ(pool.ActiveLabeledRows(), (std::vector<size_t>{2}));
  EXPECT_EQ(pool.ActiveLabeledLabels(), (std::vector<int>{0}));
  // Raw labeling history is unchanged.
  EXPECT_EQ(pool.labeled_rows().size(), 2u);
}

TEST(ActivePoolTest, UnlabeledCacheInvalidation) {
  ActivePool pool(MakeFeatures(4));
  EXPECT_EQ(pool.unlabeled_rows().size(), 4u);
  pool.AddLabel(0, 1);
  EXPECT_EQ(pool.unlabeled_rows().size(), 3u);
  pool.Exclude(1);
  EXPECT_EQ(pool.unlabeled_rows().size(), 2u);
}

}  // namespace
}  // namespace alem
