#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blocking/jaccard_blocking.h"
#include "synth/generator.h"
#include "synth/profiles.h"
#include "text/tokenizer.h"
#include "util/rng.h"

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

// ---- Property test: random small datasets against brute force ----------

// A record of up to six words drawn with replacement from `vocabulary`
// (so words repeat), each written in random case and joined by random
// punctuation; about one record in eight is empty or punctuation only.
std::string RandomRecord(Rng& rng, const std::vector<std::string>& vocabulary) {
  static const char* const kSeparators[] = {" ", ", ", "-", " / ", ".", "  "};
  if (rng.NextBelow(8) == 0) return rng.NextBernoulli(0.5) ? "" : " -, ";
  std::string record = rng.NextBernoulli(0.25) ? "(" : "";
  const size_t words = 1 + rng.NextBelow(6);
  for (size_t w = 0; w < words; ++w) {
    if (w > 0) record += kSeparators[rng.NextBelow(std::size(kSeparators))];
    for (const char c : vocabulary[rng.NextBelow(vocabulary.size())]) {
      record.push_back(rng.NextBernoulli(0.3)
                           ? static_cast<char>(
                                 std::toupper(static_cast<unsigned char>(c)))
                           : c);
    }
  }
  return record;
}

// Up to 40 x 40 records over two matched columns. Half the datasets put
// vocabulary word 0 into every right record (one posting list holds every
// right id); the other half keep empty right records.
EmDataset RandomDataset(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> vocabulary;
  const size_t vocabulary_size = 1 + rng.NextBelow(20);
  for (size_t i = 0; i < vocabulary_size; ++i) {
    std::string word(1 + rng.NextBelow(3), 'a');
    for (char& c : word) c = static_cast<char>('a' + rng.NextBelow(4));
    word += std::to_string(i);  // Distinct words.
    vocabulary.push_back(word);
  }
  const bool shared_word = rng.NextBernoulli(0.5);
  EmDataset dataset;
  dataset.name = "random";
  Schema schema({"name", "extra"});
  dataset.left = Table(schema);
  dataset.right = Table(schema);
  const size_t num_left = rng.NextBelow(41);
  const size_t num_right = rng.NextBelow(41);
  for (size_t i = 0; i < num_left; ++i) {
    dataset.left.AddRow({RandomRecord(rng, vocabulary),
                         rng.NextBernoulli(0.5) ? "" : vocabulary[0]});
  }
  for (size_t i = 0; i < num_right; ++i) {
    std::string extra = shared_word ? "." + vocabulary[0] + "!" : "";
    dataset.right.AddRow({RandomRecord(rng, vocabulary), extra});
  }
  dataset.matched_columns = {{0, 0}, {1, 1}};
  return dataset;
}

std::set<std::string> TokenSet(const Table& table, size_t row) {
  std::set<std::string> tokens;
  for (size_t column = 0; column < 2; ++column) {
    for (std::string& token : TokenizeWords(table.Value(row, column))) {
      tokens.insert(std::move(token));
    }
  }
  return tokens;
}

TEST(BlockingPropertyTest, RandomDatasetsMatchBruteForce) {
  const double kThresholds[] = {1e-9, 0.1875, 1.0 / 3.0, 0.5, 1.0};
  // Pairs whose Jaccard equals 1/3 or 1/2 exactly, which the >= test must
  // keep at that threshold.
  size_t at_third = 0;
  size_t at_half = 0;
  size_t total_pairs = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const EmDataset dataset = RandomDataset(seed);
    for (const double threshold : kThresholds) {
      const BlockingConfig config{threshold};
      const std::vector<RecordPair> pairs = JaccardBlocking(dataset, config);
      ASSERT_EQ(pairs, JaccardBlockingBruteForce(dataset, config))
          << "seed " << seed << " threshold " << threshold;
      total_pairs += pairs.size();
    }
    for (size_t l = 0; l < dataset.left.num_rows(); ++l) {
      const std::set<std::string> left = TokenSet(dataset.left, l);
      for (size_t r = 0; r < dataset.right.num_rows(); ++r) {
        const std::set<std::string> right = TokenSet(dataset.right, r);
        size_t shared = 0;
        for (const std::string& token : left) shared += right.count(token);
        const size_t unions = left.size() + right.size() - shared;
        if (shared > 0 && unions == 3 * shared) ++at_third;
        if (shared > 0 && unions == 2 * shared) ++at_half;
      }
    }
  }
  EXPECT_GT(at_third, 0u);
  EXPECT_GT(at_half, 0u);
  EXPECT_GT(total_pairs, 0u);
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
