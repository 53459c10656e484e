#include "util/rng.h"

#include <cmath>
#include <cstdio>
#include <cstring>

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
  // The cached gaussian travels as its raw bit pattern: hex u64s round-trip
  // exactly where a decimal double might not.
  uint64_t gaussian_bits = 0;
  static_assert(sizeof(gaussian_bits) == sizeof(cached_gaussian_));
  std::memcpy(&gaussian_bits, &cached_gaussian_, sizeof(gaussian_bits));
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "xoshiro256ss-v1 %llx %llx %llx %llx %d %llx",
                static_cast<unsigned long long>(state_[0]),
                static_cast<unsigned long long>(state_[1]),
                static_cast<unsigned long long>(state_[2]),
                static_cast<unsigned long long>(state_[3]),
                has_cached_gaussian_ ? 1 : 0,
                static_cast<unsigned long long>(gaussian_bits));
  return buffer;
}

bool Rng::RestoreState(const std::string& state) {
  unsigned long long words[4] = {0, 0, 0, 0};
  unsigned long long gaussian_bits = 0;
  int has_cached = 0;
  // The leading " " directive skips any leading whitespace (callers may hand
  // us the tail of a "rng <state>" line).
  if (std::sscanf(state.c_str(), " xoshiro256ss-v1 %llx %llx %llx %llx %d %llx",
                  &words[0], &words[1], &words[2], &words[3], &has_cached,
                  &gaussian_bits) != 6) {
    return false;
  }
  if (has_cached != 0 && has_cached != 1) return false;
  for (int i = 0; i < 4; ++i) state_[i] = static_cast<uint64_t>(words[i]);
  has_cached_gaussian_ = has_cached == 1;
  const uint64_t bits = static_cast<uint64_t>(gaussian_bits);
  std::memcpy(&cached_gaussian_, &bits, sizeof(cached_gaussian_));
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
