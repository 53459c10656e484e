#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "features/boolean_features.h"
#include "features/feature_extractor.h"
#include "features/feature_matrix.h"
#include "features/feature_schema.h"
#include "sim/similarity.h"
#include "util/page_allocator.h"

namespace alem {
namespace {

EmDataset MakeDataset() {
  EmDataset dataset;
  dataset.name = "test";
  Schema schema({"name", "price"});
  dataset.left = Table(schema);
  dataset.right = Table(schema);
  dataset.left.AddRow({"sony camera", "299.99"});
  dataset.left.AddRow({"canon printer", ""});
  dataset.right.AddRow({"sony camera", "299.99"});
  dataset.right.AddRow({"office chair", "19.99"});
  dataset.matched_columns = {{0, 0}, {1, 1}};
  dataset.truth.AddMatch({0, 0});
  return dataset;
}

// ---- FeatureMatrix ----

TEST(FeatureMatrixTest, ShapeAndAccess) {
  FeatureMatrix matrix(3, 4);
  EXPECT_EQ(matrix.rows(), 3u);
  EXPECT_EQ(matrix.dims(), 4u);
  matrix.Set(1, 2, 0.5f);
  EXPECT_FLOAT_EQ(matrix.At(1, 2), 0.5f);
  EXPECT_FLOAT_EQ(matrix.Row(1)[2], 0.5f);
  EXPECT_FLOAT_EQ(matrix.At(0, 0), 0.0f);
}

TEST(FeatureMatrixTest, GatherCopiesRows) {
  FeatureMatrix matrix(3, 2);
  for (size_t r = 0; r < 3; ++r) {
    matrix.Set(r, 0, static_cast<float>(r));
  }
  const FeatureMatrix gathered = matrix.Gather({2, 0, 2});
  ASSERT_EQ(gathered.rows(), 3u);
  EXPECT_FLOAT_EQ(gathered.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(gathered.At(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(gathered.At(2, 0), 2.0f);
}

TEST(FeatureMatrixTest, AppendRowSetsDims) {
  FeatureMatrix matrix;
  matrix.AppendRow({1.0f, 2.0f});
  matrix.AppendRow({3.0f, 4.0f});
  EXPECT_EQ(matrix.rows(), 2u);
  EXPECT_EQ(matrix.dims(), 2u);
  EXPECT_FLOAT_EQ(matrix.At(1, 1), 4.0f);
}

// The SerializeTo() bytes of `matrix`.
std::string Bytes(const FeatureMatrix& matrix) {
  std::ostringstream out;
  EXPECT_TRUE(matrix.SerializeTo(out));
  return out.str();
}

// DeserializeFrom over the first `size` bytes of a stream holding `bytes`.
bool Parses(const std::string& bytes, size_t size, FeatureMatrix* parsed) {
  std::istringstream in(bytes);
  return FeatureMatrix::DeserializeFrom(in, size, parsed);
}

TEST(FeatureMatrixTest, SerializeRoundTripIsBitwise) {
  FeatureMatrix matrix(4, 3);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t d = 0; d < 3; ++d) {
      matrix.Set(r, d, 0.3f * static_cast<float>(r) -
                           0.7f * static_cast<float>(d) + 0.001f);
    }
  }
  const std::string blob = Bytes(matrix);
  // 32 header bytes ("ALFM", version, rows, dims, checksum), then the
  // floats.
  EXPECT_EQ(blob.substr(0, 4), "ALFM");
  EXPECT_EQ(blob.size(), 32 + 4 * 3 * sizeof(float));
  FeatureMatrix parsed;
  ASSERT_TRUE(Parses(blob, blob.size(), &parsed));
  ASSERT_EQ(parsed.rows(), matrix.rows());
  ASSERT_EQ(parsed.dims(), matrix.dims());
  for (size_t r = 0; r < matrix.rows(); ++r) {
    EXPECT_EQ(std::memcmp(parsed.Row(r), matrix.Row(r),
                          matrix.dims() * sizeof(float)),
              0);
  }
  EXPECT_EQ(Bytes(parsed), blob);
}

TEST(FeatureMatrixTest, DeserializeFromRejectsCorruption) {
  FeatureMatrix matrix(4, 3);
  matrix.Set(2, 1, 0.5f);
  const std::string blob = Bytes(matrix);
  FeatureMatrix parsed;
  // Truncated (by size and by a short stream) and padded.
  EXPECT_FALSE(Parses(blob, 10, &parsed));
  EXPECT_FALSE(Parses(blob, blob.size() - 4, &parsed));
  EXPECT_FALSE(Parses(blob.substr(0, blob.size() - 4), blob.size(), &parsed));
  EXPECT_FALSE(Parses(blob + "pad!", blob.size() + 4, &parsed));
  // Wrong magic and a flipped payload byte.
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(Parses(bad_magic, blob.size(), &parsed));
  std::string bad_payload = blob;
  bad_payload[blob.size() - 3] =
      static_cast<char>(bad_payload[blob.size() - 3] + 1);
  EXPECT_FALSE(Parses(bad_payload, blob.size(), &parsed));
  // The valid blob still parses after all the rejected variants.
  EXPECT_TRUE(Parses(blob, blob.size(), &parsed));
}

// A matrix of at least kPageAllocatorMinBytes lives in a mapping of its own
// (page-aligned; a block glibc maps itself starts 16 bytes in), and copies,
// moves and round trips through the serializers keep its values.
TEST(FeatureMatrixTest, LargeMatrixHasItsOwnPages) {
  const size_t dims = 64;
  const size_t rows = kPageAllocatorMinBytes / (dims * sizeof(float)) + 1;
  FeatureMatrix matrix(rows, dims);
  for (size_t r = 0; r < rows; ++r) {
    matrix.Set(r, r % dims, static_cast<float>(r));
  }
  const auto address = reinterpret_cast<uintptr_t>(matrix.Row(0));
  EXPECT_EQ(address % 4096, 0u);

  const std::string blob = Bytes(matrix);
  FeatureMatrix copy = matrix;
  EXPECT_NE(copy.Row(0), matrix.Row(0));
  EXPECT_EQ(Bytes(copy), blob);
  FeatureMatrix moved = std::move(copy);
  EXPECT_EQ(moved.At(rows - 1, (rows - 1) % dims),
            static_cast<float>(rows - 1));

  FeatureMatrix parsed;
  ASSERT_TRUE(Parses(blob, blob.size(), &parsed));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(parsed.Row(0)) % 4096, 0u);
  EXPECT_EQ(Bytes(parsed), blob);
}

// ---- FeatureSchema ----

TEST(FeatureSchemaTest, FromDatasetNamesAndShape) {
  const EmDataset dataset = MakeDataset();
  const FeatureSchema schema = FeatureSchema::FromDataset(dataset);
  EXPECT_EQ(schema.num_matched_columns(), 2u);
  EXPECT_EQ(schema.num_dims(),
            static_cast<size_t>(kNumSimilarityFunctions) * 2);
  EXPECT_EQ(schema.FeatureName(0), "Identity(name)");
  const auto names = schema.FeatureNames();
  ASSERT_EQ(names.size(), schema.num_dims());
  EXPECT_EQ(names.back(), "MongeElkan(price)");
}

// ---- FeatureExtractor ----

TEST(FeatureExtractorTest, DimensionalityIs21PerColumn) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  EXPECT_EQ(extractor.num_dims(),
            static_cast<size_t>(kNumSimilarityFunctions) * 2);
  EXPECT_EQ(extractor.num_matched_columns(), 2u);
}

TEST(FeatureExtractorTest, IdenticalPairScoresOnes) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  std::vector<float> features(extractor.num_dims());
  extractor.ExtractPair({0, 0}, features.data());  // Identical records.
  for (size_t d = 0; d < features.size(); ++d) {
    EXPECT_NEAR(features[d], 1.0f, 1e-6) << extractor.FeatureName(d);
  }
}

TEST(FeatureExtractorTest, NullAttributeYieldsZeroBlock) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  std::vector<float> features(extractor.num_dims());
  // Left row 1 has an empty price -> the whole price block must be 0.
  extractor.ExtractPair({1, 0}, features.data());
  for (int s = 0; s < kNumSimilarityFunctions; ++s) {
    EXPECT_EQ(features[static_cast<size_t>(kNumSimilarityFunctions + s)],
              0.0f);
  }
}

TEST(FeatureExtractorTest, ExtractAllAlignsWithPairs) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  const std::vector<RecordPair> pairs = {{0, 0}, {0, 1}, {1, 1}};
  const FeatureMatrix matrix = extractor.ExtractAll(pairs);
  EXPECT_EQ(matrix.rows(), 3u);
  std::vector<float> expected(extractor.num_dims());
  extractor.ExtractPair(pairs[1], expected.data());
  for (size_t d = 0; d < extractor.num_dims(); ++d) {
    EXPECT_FLOAT_EQ(matrix.At(1, d), expected[d]);
  }
}

TEST(FeatureExtractorTest, ExtractBatchMatchesPerPairBitwise) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  const std::vector<RecordPair> pairs = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  FeatureMatrix batch;
  extractor.ExtractBatch(pairs, &batch);
  ASSERT_EQ(batch.rows(), pairs.size());
  ASSERT_EQ(batch.dims(), extractor.num_dims());
  std::vector<float> expected(extractor.num_dims());
  for (size_t i = 0; i < pairs.size(); ++i) {
    extractor.ExtractPair(pairs[i], expected.data());
    for (size_t d = 0; d < extractor.num_dims(); ++d) {
      EXPECT_EQ(batch.At(i, d), expected[d]) << extractor.FeatureName(d);
    }
  }
}

TEST(FeatureExtractorTest, FeatureNamesMentionFunctionAndColumn) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  EXPECT_EQ(extractor.FeatureName(0), "Identity(name)");
  const auto names = extractor.FeatureNames();
  EXPECT_EQ(names.size(), extractor.num_dims());
  EXPECT_EQ(names.back(), "MongeElkan(price)");
}

// ---- BooleanFeaturizer ----

TEST(BooleanFeaturizerTest, AtomGridIs3Sims10ThresholdsPerColumn) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  BooleanFeaturizer featurizer(extractor.schema());
  EXPECT_EQ(featurizer.num_atoms(), 2u * 3u * 10u);
}

TEST(BooleanFeaturizerTest, ThresholdSemantics) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  BooleanFeaturizer featurizer(extractor.schema());

  const std::vector<RecordPair> pairs = {{0, 0}, {0, 1}};
  const FeatureMatrix float_features = extractor.ExtractAll(pairs);
  const FeatureMatrix boolean = featurizer.Featurize(float_features);
  EXPECT_EQ(boolean.rows(), 2u);
  EXPECT_EQ(boolean.dims(), featurizer.num_atoms());

  for (size_t a = 0; a < featurizer.num_atoms(); ++a) {
    const BooleanAtom& atom = featurizer.atom(a);
    for (size_t row = 0; row < 2; ++row) {
      const bool expected =
          float_features.At(row, atom.float_dim) >= atom.threshold - 1e-9;
      EXPECT_EQ(boolean.At(row, a) >= 0.5f, expected) << atom.description;
      EXPECT_EQ(featurizer.Evaluate(a, float_features.Row(row)), expected);
    }
  }
}

TEST(BooleanFeaturizerTest, IdenticalPairSatisfiesAllAtoms) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  BooleanFeaturizer featurizer(extractor.schema());
  const FeatureMatrix float_features = extractor.ExtractAll({{0, 0}});
  const FeatureMatrix boolean = featurizer.Featurize(float_features);
  for (size_t a = 0; a < featurizer.num_atoms(); ++a) {
    EXPECT_EQ(boolean.At(0, a), 1.0f) << featurizer.atom(a).description;
  }
}

TEST(BooleanFeaturizerTest, DescriptionsAreReadable) {
  const EmDataset dataset = MakeDataset();
  FeatureExtractor extractor(dataset);
  BooleanFeaturizer featurizer(extractor.schema());
  EXPECT_EQ(featurizer.atom(0).description, "Identity(name) >= 0.1");
}

}  // namespace
}  // namespace alem
