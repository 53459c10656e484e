#include <gtest/gtest.h>

#include <algorithm>

#include "blocking/jaccard_blocking.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

EmDataset TinyDataset() {
  EmDataset dataset;
  dataset.name = "tiny";
  Schema schema({"name"});
  dataset.left = Table(schema);
  dataset.right = Table(schema);
  dataset.left.AddRow({"sony camera zoom"});
  dataset.left.AddRow({"canon printer"});
  dataset.left.AddRow({""});
  dataset.right.AddRow({"sony camera"});
  dataset.right.AddRow({"office chair"});
  dataset.right.AddRow({"canon printer deluxe"});
  dataset.matched_columns = {{0, 0}};
  dataset.truth.AddMatch({0, 0});
  dataset.truth.AddMatch({1, 2});
  return dataset;
}

TEST(BlockingTest, KeepsOnlyPairsAboveThreshold) {
  const EmDataset dataset = TinyDataset();
  const auto pairs = JaccardBlocking(dataset, BlockingConfig{0.5});
  // (0,0): {sony,camera,zoom} vs {sony,camera} -> 2/3 >= 0.5. Keep.
  // (1,2): {canon,printer} vs {canon,printer,deluxe} -> 2/3. Keep.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (RecordPair{0, 0}));
  EXPECT_EQ(pairs[1], (RecordPair{1, 2}));
}

TEST(BlockingTest, EmptyRecordsNeverPair) {
  const EmDataset dataset = TinyDataset();
  const auto pairs = JaccardBlocking(dataset, BlockingConfig{0.01});
  for (const RecordPair& pair : pairs) {
    EXPECT_NE(pair.left, 2u);  // Left row 2 is empty.
  }
}

TEST(BlockingTest, ThresholdMonotonicity) {
  const SynthProfile profile = AbtBuyProfile();
  const EmDataset dataset = GenerateDataset(profile, 3, 0.3);
  size_t previous = SIZE_MAX;
  for (const double threshold : {0.05, 0.1, 0.2, 0.4, 0.8}) {
    const size_t count =
        JaccardBlocking(dataset, BlockingConfig{threshold}).size();
    EXPECT_LE(count, previous);
    previous = count;
  }
}

// The inverted-index implementation must agree exactly with brute force.
class BlockingEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockingEquivalenceTest, MatchesBruteForce) {
  const std::vector<SynthProfile> profiles = AllPublicProfiles();
  const SynthProfile& profile =
      profiles[static_cast<size_t>(GetParam()) % profiles.size()];
  const EmDataset dataset = GenerateDataset(profile, 11, 0.15);
  BlockingConfig config{profile.blocking_threshold};

  auto fast = JaccardBlocking(dataset, config);
  auto slow = JaccardBlockingBruteForce(dataset, config);
  auto key = [](const RecordPair& a, const RecordPair& b) {
    return a.left != b.left ? a.left < b.left : a.right < b.right;
  };
  std::sort(slow.begin(), slow.end(), key);
  ASSERT_EQ(fast.size(), slow.size()) << profile.name;
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], slow[i]) << profile.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, BlockingEquivalenceTest,
                         ::testing::Range(0, 9));

// Above every profile's threshold, where few token overlaps survive.
TEST(BlockingTest, HighThresholdMatchesBruteForce) {
  const EmDataset dataset = GenerateDataset(AbtBuyProfile(), 5, 0.2);
  for (const double threshold : {0.5, 0.8, 0.99}) {
    const BlockingConfig config{threshold};
    EXPECT_EQ(JaccardBlocking(dataset, config),
              JaccardBlockingBruteForce(dataset, config))
        << threshold;
  }
}

TEST(BlockingTest, RecallOnSyntheticDatasetsIsHigh) {
  for (const SynthProfile& profile : AllPublicProfiles()) {
    const EmDataset dataset = GenerateDataset(profile, 5, 0.5);
    const auto pairs =
        JaccardBlocking(dataset, BlockingConfig{profile.blocking_threshold});
    // Heavily perturbed profiles (heterogeneous noise modes) lose a few
    // matches at the blocking stage, as real blocking does.
    EXPECT_GT(BlockingRecall(dataset, pairs), 0.90) << profile.name;
  }
}

TEST(BlockingTest, SortedJaccardValues) {
  using internal_blocking::SortedJaccard;
  EXPECT_DOUBLE_EQ(SortedJaccard({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(SortedJaccard({1}, {1}), 1.0);
  EXPECT_DOUBLE_EQ(SortedJaccard({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(SortedJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(SortedJaccard({}, {1}), 0.0);
}

}  // namespace
}  // namespace alem
