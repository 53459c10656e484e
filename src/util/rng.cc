#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/byte_codec.h"
#include "util/check.h"

namespace alem {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& s : state_) s = SplitMix64(sm);
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  ALEM_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? Next() : NextBelow(span));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

Rng Rng::Fork() { return Rng(Next()); }

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  ALEM_CHECK_LE(k, n);
  // Partial Fisher-Yates over an index vector.
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(NextBelow(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

std::string Rng::SaveState() const {
  ByteWriter w;
  for (const uint64_t word : state_) w.U64(word);
  w.U8(has_cached_gaussian_ ? 1 : 0);
  w.F64(cached_gaussian_);
  return w.Take();
}

bool Rng::RestoreState(std::string_view state) {
  ByteReader r(state);
  uint64_t words[4] = {0, 0, 0, 0};
  uint8_t has_cached = 0;
  double cached = 0.0;
  for (uint64_t& word : words) {
    if (!r.U64(&word)) return false;
  }
  if (!r.U8(&has_cached) || has_cached > 1 || !r.F64(&cached) || !r.AtEnd()) {
    return false;
  }
  std::copy(words, words + 4, state_);
  has_cached_gaussian_ = has_cached == 1;
  cached_gaussian_ = cached;
  return true;
}

std::vector<size_t> Rng::SampleWithReplacement(size_t n, size_t k) {
  ALEM_CHECK_GT(n, 0u);
  std::vector<size_t> indices(k);
  for (size_t i = 0; i < k; ++i) {
    indices[i] = static_cast<size_t>(NextBelow(n));
  }
  return indices;
}

}  // namespace alem
