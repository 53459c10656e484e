#include "features/feature_matrix.h"

#include <cstdint>
#include <cstring>

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

uint64_t Fnv1a(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

void AppendHeader(std::string* out, uint64_t rows, uint64_t dims,
                  uint64_t checksum) {
  AppendRaw(out, kMatrixMagic, sizeof(kMatrixMagic));
  const uint32_t version = kMatrixFormatVersion;
  AppendRaw(out, &version, sizeof(version));
  AppendRaw(out, &rows, sizeof(rows));
  AppendRaw(out, &dims, sizeof(dims));
  AppendRaw(out, &checksum, sizeof(checksum));
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

std::string FeatureMatrix::Serialize() const {
  const size_t payload_bytes = data_.size() * sizeof(float);
  std::string out;
  out.reserve(kMatrixHeaderSize + payload_bytes);
  AppendHeader(&out, rows_, dims_, Fnv1a(data_.data(), payload_bytes));
  AppendRaw(&out, data_.data(), payload_bytes);
  return out;
}

bool FeatureMatrix::SerializeTo(std::ostream& out) const {
  const size_t payload_bytes = data_.size() * sizeof(float);
  std::string header;
  AppendHeader(&header, rows_, dims_, Fnv1a(data_.data(), payload_bytes));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(data_.data()),
            static_cast<std::streamsize>(payload_bytes));
  return out.good();
}

bool FeatureMatrix::Deserialize(std::string_view blob, FeatureMatrix* out) {
  FeatureMatrix parsed;
  uint64_t checksum = 0;
  if (blob.size() < kMatrixHeaderSize ||
      !ParseHeader(blob.data(), blob.size(), &parsed, &checksum)) {
    return false;
  }
  const size_t payload_bytes = blob.size() - kMatrixHeaderSize;
  const char* payload = blob.data() + kMatrixHeaderSize;
  if (Fnv1a(payload, payload_bytes) != checksum) return false;
  if (payload_bytes > 0) {
    std::memcpy(parsed.data_.data(), payload, payload_bytes);
  }
  *out = std::move(parsed);
  return true;
}

bool FeatureMatrix::DeserializeFrom(std::istream& in, size_t size,
                                    FeatureMatrix* out) {
  if (size < kMatrixHeaderSize) return false;
  char header[kMatrixHeaderSize];
  if (!in.read(header, sizeof(header))) return false;
  FeatureMatrix parsed;
  uint64_t checksum = 0;
  if (!ParseHeader(header, size, &parsed, &checksum)) return false;
  const size_t payload_bytes = size - kMatrixHeaderSize;
  if (payload_bytes > 0 &&
      !in.read(reinterpret_cast<char*>(parsed.data_.data()),
               static_cast<std::streamsize>(payload_bytes))) {
    return false;
  }
  if (Fnv1a(parsed.data_.data(), payload_bytes) != checksum) return false;
  *out = std::move(parsed);
  return true;
}

bool FeatureMatrix::ParseHeader(const char* header, size_t size,
                                FeatureMatrix* shaped, uint64_t* checksum) {
  const char* cursor = header;
  if (std::memcmp(cursor, kMatrixMagic, sizeof(kMatrixMagic)) != 0) {
    return false;
  }
  cursor += sizeof(kMatrixMagic);
  uint32_t version = 0;
  std::memcpy(&version, cursor, sizeof(version));
  cursor += sizeof(version);
  if (version != kMatrixFormatVersion) return false;
  uint64_t rows = 0;
  uint64_t dims = 0;
  std::memcpy(&rows, cursor, sizeof(rows));
  cursor += sizeof(rows);
  std::memcpy(&dims, cursor, sizeof(dims));
  cursor += sizeof(dims);
  std::memcpy(checksum, cursor, sizeof(*checksum));

  // Reject shapes whose element count overflows or whose payload size does
  // not exactly match the remaining bytes (truncated or padded file).
  if (dims != 0 && rows > SIZE_MAX / sizeof(float) / dims) return false;
  const size_t expected_payload =
      static_cast<size_t>(rows) * static_cast<size_t>(dims) * sizeof(float);
  if (size - kMatrixHeaderSize != expected_payload) return false;
  *shaped =
      FeatureMatrix(static_cast<size_t>(rows), static_cast<size_t>(dims));
  return true;
}

}  // namespace alem
