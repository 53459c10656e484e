// Dense row-major feature matrix shared by all learners.

#ifndef ALEM_FEATURES_FEATURE_MATRIX_H_
#define ALEM_FEATURES_FEATURE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "util/page_allocator.h"

namespace alem {

// A dense matrix of float features; rows are examples (record pairs),
// columns are feature dimensions. Boolean featurizations store 0/1 floats so
// every learner consumes the same type.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  FeatureMatrix(size_t rows, size_t dims);

  size_t rows() const { return rows_; }
  size_t dims() const { return dims_; }
  bool empty() const { return rows_ == 0; }

  const float* Row(size_t i) const;
  float* MutableRow(size_t i);
  float At(size_t row, size_t dim) const;
  void Set(size_t row, size_t dim, float value);

  // Copies the given rows into a new matrix (used for bootstrap samples and
  // train/test splits).
  FeatureMatrix Gather(const std::vector<size_t>& row_indices) const;

  // Appends one row (must have `dims()` entries; sets dims on first append).
  void AppendRow(const std::vector<float>& row);

  // Writes the versioned binary serialization (magic + format version +
  // shape + payload checksum + raw floats; the feature cache's entry
  // format, docs/featurization.md) to `out`. Returns out.good().
  bool SerializeTo(std::ostream& out) const;

  // Parses the next `size` bytes of `in` as a SerializeTo() blob, read
  // straight into the matrix; the result is bitwise identical to the
  // source. Returns false (leaving *out untouched) on any validation
  // failure — wrong magic, unsupported version, a size that does not match
  // the shape, a short read, or a checksum mismatch — so corrupt cache
  // files read as a miss, never crash.
  static bool DeserializeFrom(std::istream& in, size_t size,
                              FeatureMatrix* out);

 private:
  size_t rows_ = 0;
  size_t dims_ = 0;
  // Large matrices get their own pages (see util/page_allocator.h).
  std::vector<float, PageAllocator<float>> data_;
};

}  // namespace alem

#endif  // ALEM_FEATURES_FEATURE_MATRIX_H_
