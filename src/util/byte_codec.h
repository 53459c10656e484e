// One byte codec for the program's own binary formats.
//
// Fnv1a is the 64-bit FNV-1a hash that checksums ALSS session snapshots and
// ALFM feature matrices and keys the feature cache. ByteWriter/ByteReader
// encode every ALSS section the program writes itself (docs/sessions.md):
// fields in host byte order with no padding, doubles as their raw bit
// patterns so they round-trip exactly, strings as a u64 length and the
// bytes. The reader is bounds-checked: every accessor fails on truncation
// instead of reading past the end, and a length or an item count is
// checked against the bytes left before anything is sized from it.

#ifndef ALEM_UTIL_BYTE_CODEC_H_
#define ALEM_UTIL_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace alem {

// FNV-1a's published 64-bit offset basis is 14695981039346656037; this one
// lacks its last digit. Every checksum, fingerprint and cache key in use was
// made with it, so it stays.
inline constexpr uint64_t kFnv1aOffsetBasis = 1469598103934665603ULL;

// FNV-1a over `size` bytes, continuing from `hash`; the default starts a
// fresh hash, and passing a previous result hashes a concatenation.
inline uint64_t Fnv1a(const void* data, size_t size,
                      uint64_t hash = kFnv1aOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

class ByteWriter {
 public:
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  // The bytes alone: the reader must know how many to take.
  void Bytes(std::string_view bytes) { out_.append(bytes); }
  // A u64 length, then the bytes.
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }
  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* data, size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  // The next `size` bytes, viewed in place.
  bool Bytes(uint64_t size, std::string_view* out) {
    if (remaining() < size) return false;
    *out = data_.substr(cursor_, static_cast<size_t>(size));
    cursor_ += static_cast<size_t>(size);
    return true;
  }
  // A ByteWriter::Str string.
  bool Str(std::string* s) {
    uint64_t size = 0;
    std::string_view bytes;
    if (!U64(&size) || !Bytes(size, &bytes)) return false;
    s->assign(bytes);
    return true;
  }
  // A u64 count of items that take at least `min_item_bytes` (> 0) each;
  // fails when the bytes left cannot hold that many, so a caller may size
  // a container from it.
  bool Count(uint64_t* count, size_t min_item_bytes) {
    return U64(count) && *count <= remaining() / min_item_bytes;
  }

  size_t remaining() const { return data_.size() - cursor_; }
  bool AtEnd() const { return cursor_ == data_.size(); }

 private:
  bool Raw(void* out, size_t size) {
    if (remaining() < size) return false;
    std::memcpy(out, data_.data() + cursor_, size);
    cursor_ += size;
    return true;
  }

  std::string_view data_;
  size_t cursor_ = 0;
};

}  // namespace alem

#endif  // ALEM_UTIL_BYTE_CODEC_H_
