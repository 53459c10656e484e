#include "features/feature_matrix.h"

#include <cstdint>
#include <cstring>

#include "util/byte_codec.h"
#include "util/check.h"

namespace alem {
namespace {

// Serialization format (all fields little-endian host layout):
//   bytes 0..3   magic "ALFM"
//   bytes 4..7   uint32 format version (kMatrixFormatVersion)
//   bytes 8..15  uint64 rows
//   bytes 16..23 uint64 dims
//   bytes 24..31 uint64 FNV-1a hash of the float payload
//   bytes 32..   rows * dims raw floats
constexpr char kMatrixMagic[4] = {'A', 'L', 'F', 'M'};
constexpr uint32_t kMatrixFormatVersion = 1;
constexpr size_t kMatrixHeaderSize = 4 + 4 + 8 + 8 + 8;

std::string EncodeHeader(uint64_t rows, uint64_t dims, uint64_t checksum) {
  ByteWriter w;
  w.Bytes({kMatrixMagic, sizeof(kMatrixMagic)});
  w.U32(kMatrixFormatVersion);
  w.U64(rows);
  w.U64(dims);
  w.U64(checksum);
  return w.Take();
}

}  // namespace

FeatureMatrix::FeatureMatrix(size_t rows, size_t dims)
    : rows_(rows), dims_(dims), data_(rows * dims, 0.0f) {}

const float* FeatureMatrix::Row(size_t i) const {
  ALEM_CHECK_LT(i, rows_);
  return data_.data() + i * dims_;
}

float* FeatureMatrix::MutableRow(size_t i) {
  ALEM_CHECK_LT(i, rows_);
  return data_.data() + i * dims_;
}

float FeatureMatrix::At(size_t row, size_t dim) const {
  ALEM_CHECK_LT(row, rows_);
  ALEM_CHECK_LT(dim, dims_);
  return data_[row * dims_ + dim];
}

void FeatureMatrix::Set(size_t row, size_t dim, float value) {
  ALEM_CHECK_LT(row, rows_);
  ALEM_CHECK_LT(dim, dims_);
  data_[row * dims_ + dim] = value;
}

FeatureMatrix FeatureMatrix::Gather(
    const std::vector<size_t>& row_indices) const {
  FeatureMatrix out(row_indices.size(), dims_);
  for (size_t i = 0; i < row_indices.size(); ++i) {
    std::memcpy(out.MutableRow(i), Row(row_indices[i]),
                dims_ * sizeof(float));
  }
  return out;
}

void FeatureMatrix::AppendRow(const std::vector<float>& row) {
  if (rows_ == 0 && dims_ == 0) dims_ = row.size();
  ALEM_CHECK_EQ(row.size(), dims_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

bool FeatureMatrix::SerializeTo(std::ostream& out) const {
  const size_t payload_bytes = data_.size() * sizeof(float);
  const std::string header =
      EncodeHeader(rows_, dims_, Fnv1a(data_.data(), payload_bytes));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(data_.data()),
            static_cast<std::streamsize>(payload_bytes));
  return out.good();
}

bool FeatureMatrix::DeserializeFrom(std::istream& in, size_t size,
                                    FeatureMatrix* out) {
  char header[kMatrixHeaderSize];
  if (size < kMatrixHeaderSize || !in.read(header, sizeof(header))) {
    return false;
  }
  ByteReader r(std::string_view(header, sizeof(header)));
  std::string_view magic;
  uint32_t version = 0;
  uint64_t rows = 0;
  uint64_t dims = 0;
  uint64_t checksum = 0;
  if (!r.Bytes(sizeof(kMatrixMagic), &magic) || !r.U32(&version) ||
      !r.U64(&rows) || !r.U64(&dims) || !r.U64(&checksum) ||
      magic != std::string_view(kMatrixMagic, sizeof(kMatrixMagic)) ||
      version != kMatrixFormatVersion) {
    return false;
  }
  // Reject shapes whose element count overflows or whose payload size does
  // not exactly match the remaining bytes (truncated or padded file).
  if (dims != 0 && rows > SIZE_MAX / sizeof(float) / dims) return false;
  const size_t payload_bytes =
      static_cast<size_t>(rows) * static_cast<size_t>(dims) * sizeof(float);
  if (size - kMatrixHeaderSize != payload_bytes) return false;
  FeatureMatrix parsed(static_cast<size_t>(rows), static_cast<size_t>(dims));
  if (payload_bytes > 0 &&
      !in.read(reinterpret_cast<char*>(parsed.data_.data()),
               static_cast<std::streamsize>(payload_bytes))) {
    return false;
  }
  if (Fnv1a(parsed.data_.data(), payload_bytes) != checksum) return false;
  *out = std::move(parsed);
  return true;
}

}  // namespace alem
