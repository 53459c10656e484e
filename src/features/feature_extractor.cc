#include "features/feature_extractor.h"

#include "obs/obs.h"
#include "util/check.h"

namespace alem {
namespace {

// Similarity-function cost accounting (one Add per pair/batch, not per
// call, to keep the extraction loops tight).
void CountSimCalls(size_t calls) {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("sim.calls");
  counter.Add(calls);
}

}  // namespace

FeatureExtractor::FeatureExtractor(const EmDataset& dataset)
    : schema_(FeatureSchema::FromDataset(dataset)) {
  const size_t num_columns = dataset.matched_columns.size();
  left_profiles_.resize(num_columns);
  right_profiles_.resize(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    const MatchedColumns& mc = dataset.matched_columns[c];
    left_profiles_[c].reserve(dataset.left.num_rows());
    for (size_t row = 0; row < dataset.left.num_rows(); ++row) {
      left_profiles_[c].push_back(AttributeProfile::Build(
          dataset.left.Value(row, static_cast<size_t>(mc.left_column))));
    }
    right_profiles_[c].reserve(dataset.right.num_rows());
    for (size_t row = 0; row < dataset.right.num_rows(); ++row) {
      right_profiles_[c].push_back(AttributeProfile::Build(
          dataset.right.Value(row, static_cast<size_t>(mc.right_column))));
    }
  }
}

const AttributeProfile& FeatureExtractor::LeftProfile(
    uint32_t row, size_t column_pair) const {
  ALEM_CHECK_LT(column_pair, left_profiles_.size());
  ALEM_CHECK_LT(row, left_profiles_[column_pair].size());
  return left_profiles_[column_pair][row];
}

const AttributeProfile& FeatureExtractor::RightProfile(
    uint32_t row, size_t column_pair) const {
  ALEM_CHECK_LT(column_pair, right_profiles_.size());
  ALEM_CHECK_LT(row, right_profiles_[column_pair].size());
  return right_profiles_[column_pair][row];
}

void FeatureExtractor::ExtractPair(const RecordPair& pair, float* out) const {
  const auto& functions = AllSimilarityFunctions();
  size_t dim = 0;
  for (size_t c = 0; c < left_profiles_.size(); ++c) {
    const AttributeProfile& left = LeftProfile(pair.left, c);
    const AttributeProfile& right = RightProfile(pair.right, c);
    for (const SimilarityFunction* function : functions) {
      out[dim++] = static_cast<float>(function->Similarity(left, right));
    }
  }
  CountSimCalls(dim);
}

void FeatureExtractor::ExtractBatch(std::span<const RecordPair> pairs,
                                    FeatureMatrix* out) const {
  const size_t n = pairs.size();
  const size_t dims = num_dims();
  if (out->rows() != n || out->dims() != dims) {
    *out = FeatureMatrix(n, dims);
  }
  if (n == 0) return;

  const auto& functions = AllSimilarityFunctions();
  std::vector<const AttributeProfile*> left(n);
  std::vector<const AttributeProfile*> right(n);
  std::vector<float> column(n);
  for (size_t c = 0; c < left_profiles_.size(); ++c) {
    for (size_t i = 0; i < n; ++i) {
      left[i] = &LeftProfile(pairs[i].left, c);
      right[i] = &RightProfile(pairs[i].right, c);
    }
    for (size_t f = 0; f < functions.size(); ++f) {
      functions[f]->EvaluateBatch(left, right, column.data());
      // Transpose the finished column into the row-major matrix.
      const size_t dim = c * functions.size() + f;
      for (size_t i = 0; i < n; ++i) {
        out->MutableRow(i)[dim] = column[i];
      }
    }
  }
  CountSimCalls(n * dims);
}

FeatureMatrix FeatureExtractor::ExtractAll(
    const std::vector<RecordPair>& pairs) const {
  FeatureMatrix matrix(pairs.size(), num_dims());
  ExtractBatch(pairs, &matrix);
  return matrix;
}

}  // namespace alem
