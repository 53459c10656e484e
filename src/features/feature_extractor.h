// Float feature extraction: 21 similarity functions x matched columns.
//
// Attribute profiles are computed once per record attribute at construction;
// extraction then consists only of similarity evaluations. The extraction
// API is batch-first: ExtractBatch sweeps one similarity kernel down a whole
// column of pairs at a time (structure-of-arrays, chunked over the
// deterministic thread pool by SimilarityFunction::EvaluateBatch), which is
// measurably faster than the per-pair loop and bitwise-identical to it.
// ExtractPair is that per-pair loop, kept as the reference ExtractBatch is
// tested and benchmarked against. (Selection-time blocking, paper §5.1,
// reads its dimensions from the pool's precomputed feature matrix.)

#ifndef ALEM_FEATURES_FEATURE_EXTRACTOR_H_
#define ALEM_FEATURES_FEATURE_EXTRACTOR_H_

#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "features/feature_matrix.h"
#include "features/feature_schema.h"
#include "sim/similarity.h"
#include "text/profile.h"

namespace alem {

class FeatureExtractor {
 public:
  // Profiles every matched-column attribute of both tables. The dataset must
  // outlive nothing — all needed state is copied into the extractor.
  explicit FeatureExtractor(const EmDataset& dataset);

  FeatureExtractor(const FeatureExtractor&) = delete;
  FeatureExtractor& operator=(const FeatureExtractor&) = delete;

  // Feature dimensionality: kNumSimilarityFunctions * #matched columns.
  // Dimension d corresponds to similarity function (d % 21) applied to
  // matched-column pair (d / 21).
  size_t num_dims() const { return schema_.num_dims(); }

  // The name/shape schema of this extractor's feature space (cheap to copy;
  // consumers that only need names should take this, not the extractor).
  const FeatureSchema& schema() const { return schema_; }

  // Extracts the full feature vector of one pair into `out[0..num_dims)`.
  void ExtractPair(const RecordPair& pair, float* out) const;

  // Batch extraction plan: fills `out` (resized to pairs.size() x
  // num_dims()) one dimension at a time — for each matched column, the
  // left/right profile pointers of every pair are gathered once, then each
  // of the 21 kernels sweeps the whole column via EvaluateBatch and the
  // resulting column is transposed into the row-major matrix. Results are
  // bitwise-identical to per-pair ExtractPair extraction.
  void ExtractBatch(std::span<const RecordPair> pairs,
                    FeatureMatrix* out) const;

  // Extracts all pairs into a matrix (rows align with `pairs`); delegates
  // to ExtractBatch.
  FeatureMatrix ExtractAll(const std::vector<RecordPair>& pairs) const;

  // Human-readable name of a dimension, e.g. "JaroWinkler(name)".
  std::string FeatureName(size_t dim) const { return schema_.FeatureName(dim); }

  // All dimension names in order.
  std::vector<std::string> FeatureNames() const {
    return schema_.FeatureNames();
  }

  size_t num_matched_columns() const { return schema_.num_matched_columns(); }

 private:
  const AttributeProfile& LeftProfile(uint32_t row, size_t column_pair) const;
  const AttributeProfile& RightProfile(uint32_t row, size_t column_pair) const;

  FeatureSchema schema_;
  // Profiles indexed [column_pair][row].
  std::vector<std::vector<AttributeProfile>> left_profiles_;
  std::vector<std::vector<AttributeProfile>> right_profiles_;
};

}  // namespace alem

#endif  // ALEM_FEATURES_FEATURE_EXTRACTOR_H_
