// Deterministic pseudo-random number generation.
//
// All randomized components of the benchmark (bootstrap sampling, committee
// tie-breaking, synthetic data generation, noisy oracles, neural-network
// initialization) draw from Rng so that every experiment is exactly
// reproducible from a 64-bit seed. The generator is xoshiro256**, seeded via
// splitmix64, which is fast, high quality, and has no global state.

#ifndef ALEM_UTIL_RNG_H_
#define ALEM_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"

namespace alem {

// A small, copyable, deterministic PRNG (xoshiro256**).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  // Next raw 64-bit value. This and the other per-draw methods are defined
  // below, in the header, so hot sampling loops (Pegasos steps, dropout
  // masks) inline them. They are always inlined, at every optimization
  // level: an out-of-line copy emitted by the AVX2 kernel TU, which is
  // built with -mavx2, would be AVX code the linker may keep for the whole
  // program (kernel_avx2_object_test checks that object for such copies).
  [[gnu::always_inline]] uint64_t Next();

  // Uniform integer in [0, bound). `bound` must be > 0.
  [[gnu::always_inline]] uint64_t NextBelow(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  [[gnu::always_inline]] double NextDouble();

  // Gaussian (mean 0, stddev 1) via Box-Muller.
  double NextGaussian();

  // Bernoulli draw: true with probability `p`.
  [[gnu::always_inline]] bool NextBernoulli(double p);

  // Derives an independent child generator; useful to give each parallel
  // component (e.g., each tree in a forest) its own stream.
  Rng Fork();

  // Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  // `k` indices sampled uniformly without replacement from [0, n).
  // Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  // `k` indices sampled uniformly with replacement from [0, n).
  std::vector<size_t> SampleWithReplacement(size_t n, size_t k);

  // Serializes the exact generator position (xoshiro256** state words plus
  // the Box-Muller gaussian cache) as a single text line, so a restored
  // stream continues bit-for-bit where the saved one stopped
  // (docs/sessions.md). RestoreState rejects malformed input and leaves
  // the generator unchanged.
  std::string SaveState() const;
  bool RestoreState(const std::string& state);

 private:
  [[gnu::always_inline]] static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

inline uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

inline uint64_t Rng::NextBelow(uint64_t bound) {
  ALEM_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  while (true) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

inline double Rng::NextDouble() {
  // 53 uniformly distributed mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

inline bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

}  // namespace alem

#endif  // ALEM_UTIL_RNG_H_
