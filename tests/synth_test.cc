#include <gtest/gtest.h>

#include "blocking/jaccard_blocking.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

TEST(SynthTest, DeterministicForSameSeed) {
  const SynthProfile profile = AbtBuyProfile();
  const EmDataset a = GenerateDataset(profile, 42, 0.2);
  const EmDataset b = GenerateDataset(profile, 42, 0.2);
  ASSERT_EQ(a.left.num_rows(), b.left.num_rows());
  ASSERT_EQ(a.right.num_rows(), b.right.num_rows());
  for (size_t r = 0; r < a.left.num_rows(); ++r) {
    EXPECT_EQ(a.left.row(r), b.left.row(r));
  }
  for (size_t r = 0; r < a.right.num_rows(); ++r) {
    EXPECT_EQ(a.right.row(r), b.right.row(r));
  }
  EXPECT_EQ(a.truth.num_matches(), b.truth.num_matches());
}

TEST(SynthTest, DifferentSeedsDiffer) {
  const SynthProfile profile = AbtBuyProfile();
  const EmDataset a = GenerateDataset(profile, 1, 0.2);
  const EmDataset b = GenerateDataset(profile, 2, 0.2);
  ASSERT_EQ(a.left.num_rows(), b.left.num_rows());
  size_t differing = 0;
  for (size_t r = 0; r < a.left.num_rows(); ++r) {
    if (a.left.row(r) != b.left.row(r)) ++differing;
  }
  EXPECT_GT(differing, a.left.num_rows() / 2);
}

TEST(SynthTest, ScaleMultipliesEntityCounts) {
  const SynthProfile profile = DblpAcmProfile();
  const EmDataset small = GenerateDataset(profile, 7, 0.25);
  const EmDataset large = GenerateDataset(profile, 7, 1.0);
  EXPECT_GT(large.left.num_rows(), 3 * small.left.num_rows());
  EXPECT_GT(large.truth.num_matches(), 3 * small.truth.num_matches());
}

TEST(SynthTest, MatchesReferenceValidRows) {
  const SynthProfile profile = CoraProfile();
  const EmDataset dataset = GenerateDataset(profile, 9, 0.3);
  // Every matched pair must reference existing rows. We can't enumerate the
  // truth set directly, so probe all pairs of a sample.
  size_t found = 0;
  for (uint32_t l = 0; l < dataset.left.num_rows(); ++l) {
    for (uint32_t r = 0; r < dataset.right.num_rows(); ++r) {
      if (dataset.truth.IsMatch({l, r})) ++found;
    }
  }
  EXPECT_EQ(found, dataset.truth.num_matches());
}

TEST(SynthTest, CoraHasMultiMatchClusters) {
  const EmDataset dataset = GenerateDataset(CoraProfile(), 5, 0.5);
  // More matches than left-side matched entities implies clusters.
  size_t lefts_with_match = 0;
  size_t total_matches = 0;
  for (uint32_t l = 0; l < dataset.left.num_rows(); ++l) {
    size_t row_matches = 0;
    for (uint32_t r = 0; r < dataset.right.num_rows(); ++r) {
      if (dataset.truth.IsMatch({l, r})) ++row_matches;
    }
    lefts_with_match += row_matches > 0 ? 1 : 0;
    total_matches += row_matches;
  }
  EXPECT_GT(total_matches, lefts_with_match * 3 / 2);
}

TEST(SynthTest, SchemasMatchProfileColumns) {
  for (const SynthProfile& profile : AllPublicProfiles()) {
    const EmDataset dataset = GenerateDataset(profile, 3, 0.1);
    ASSERT_EQ(dataset.left.schema().num_columns(), profile.columns.size());
    for (size_t c = 0; c < profile.columns.size(); ++c) {
      EXPECT_EQ(dataset.left.schema().column(c), profile.columns[c].name);
      EXPECT_EQ(dataset.right.schema().column(c), profile.columns[c].name);
    }
    EXPECT_EQ(dataset.matched_columns.size(), profile.columns.size());
  }
}

// Post-blocking class skew should be in the neighbourhood of Table 1.
class SkewTest : public ::testing::TestWithParam<int> {};

TEST_P(SkewTest, ClassSkewNearPaperValue) {
  // Paper Table 1 skews, same order as AllPublicProfiles().
  const double expected[] = {0.12, 0.09, 0.198, 0.109, 0.124,
                             0.083, 0.147, 0.151, 0.27};
  const std::vector<SynthProfile> profiles = AllPublicProfiles();
  const size_t i = static_cast<size_t>(GetParam());
  const SynthProfile& profile = profiles[i];
  const EmDataset dataset = GenerateDataset(profile, 7);
  const auto pairs =
      JaccardBlocking(dataset, BlockingConfig{profile.blocking_threshold});
  const double skew = dataset.ClassSkew(pairs);
  // Same order of magnitude: within a factor of ~2.5.
  EXPECT_GT(skew, expected[i] / 2.5) << profile.name;
  EXPECT_LT(skew, expected[i] * 2.5) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, SkewTest, ::testing::Range(0, 9));

TEST(SynthTest, ProfileByNameRoundTrip) {
  for (const SynthProfile& profile : AllPublicProfiles()) {
    ASSERT_TRUE(ProfileByName(profile.name)) << profile.name;
    EXPECT_EQ(ProfileByName(profile.name)->name, profile.name);
  }
  ASSERT_TRUE(ProfileByName("SocialMedia"));
  EXPECT_EQ(ProfileByName("SocialMedia")->name, "SocialMedia");
  // An unknown name is reported to the caller, not an abort.
  EXPECT_FALSE(ProfileByName("Bogus"));
  EXPECT_FALSE(ProfileByName(""));
}

TEST(SynthTest, SocialMediaRightTableIsLarger) {
  const EmDataset dataset = GenerateDataset(SocialMediaProfile(), 3, 0.2);
  EXPECT_GT(dataset.right.num_rows(), 2 * dataset.left.num_rows());
}

TEST(SynthTest, NullRateProducesMissingValues) {
  const EmDataset dataset = GenerateDataset(WalmartAmazonProfile(), 3, 0.3);
  size_t empty = 0, total = 0;
  for (size_t r = 0; r < dataset.right.num_rows(); ++r) {
    for (const std::string& value : dataset.right.row(r)) {
      ++total;
      empty += value.empty() ? 1 : 0;
    }
  }
  EXPECT_GT(static_cast<double>(empty) / static_cast<double>(total), 0.02);
}

}  // namespace
}  // namespace alem
