// AVX2 kernels. This translation unit is the only one compiled with
// -mavx2 (see src/kernels/CMakeLists.txt); nothing here may be executed
// unless __builtin_cpu_supports("avx2") passed in backend.cc.
//
// Every kernel below is REORDER-FREE with respect to the scalar reference
// (kernel_scalar.cc): the integer alignment kernel computes the same exact
// values, and the floating-point kernels vectorize across independent
// accumulators (rows for the SVM GEMV, units for the NN affine) so each
// accumulator still sees its terms in ascending j with one rounded
// multiply and one rounded add per term. The TU is additionally built with
// -ffp-contract=off (and WITHOUT -mfma) so the compiler cannot fuse that
// multiply-add pair into a single differently-rounded FMA. Net effect:
// bitwise-identical outputs, verified by tests/kernel_backend_test.cc and
// the per-backend golden-baseline replay in report_gate.sh stage 7.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "kernels/kernels_internal.h"
#include "util/check.h"

namespace alem {
namespace kernels {
namespace internal {
namespace {

// ---- align_scores ------------------------------------------------------
//
// 16 pairs per vector, one int16 lane each, every lane running the scalar
// reference's integer recurrence (kernel_scalar.cc) cell for cell. A
// group's DP spans the largest n and m of its lanes, so shorter pairs are
// padded: past its own length a lane's a holds kPadA and its b kPadB,
// values outside 0..255 that never equal a real byte nor each other. Cell
// (i, j) depends only on cells (i' <= i, j' <= j), so every cell inside a
// lane's own n x m rectangle equals the scalar DP's. Outside it:
//   * Needleman-Wunsch reads each lane's score at the lane's own (n, m);
//   * in the local alignments every step into or inside the padding is a
//     mismatch or a gap, which only lowers a score, so no padded cell
//     exceeds max(0, best in-range cell) and the lane maximum is the
//     scalar one;
//   * the longest common substring is 0 on every padded cell.
// Scores fit int16 with room to spare: |NW| <= 128, SW <= 128, SWG <= 256,
// LCSubstr <= 64, and E/F never drift below -2 after their seed.
// Within each block of 256 pairs the pairs are sorted by (n, m), so a
// group of 16 spans about its own lengths.

constexpr size_t kLanes = 16;
constexpr size_t kBlock = 256;
constexpr int16_t kPadA = -1;
constexpr int16_t kPadB = -2;
constexpr int16_t kNoGap = -(1 << 14);

struct LaneGroup {
  // a[i][l]: byte i of lane l's first string, or kPadA past its end; b
  // likewise with kPadB.
  alignas(32) int16_t a[kMaxAlignLength][kLanes];
  alignas(32) int16_t b[kMaxAlignLength][kLanes];
  size_t n[kLanes];
  size_t m[kLanes];
  size_t rows = 0;  // max n
  size_t cols = 0;  // max m
};

inline __m256i Load(const int16_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

inline void Store(int16_t* p, __m256i v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}

// Match/mismatch step per lane: `match` where eq is set, else -match.
inline __m256i Substitution(__m256i eq, int16_t match) {
  return _mm256_blendv_epi8(_mm256_set1_epi16(static_cast<int16_t>(-match)),
                            _mm256_set1_epi16(match), eq);
}

template <Alignment kKind>
void AlignGroup(const LaneGroup& group, int16_t* scores) {
  constexpr bool kGlobal = kKind == Alignment::kNeedlemanWunsch;
  alignas(32) int16_t h[kMaxAlignLength + 1][kLanes];
  alignas(32) int16_t f[kMaxAlignLength + 1][kLanes];
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i two = _mm256_set1_epi16(2);
  for (size_t j = 0; j <= group.cols; ++j) {
    Store(h[j], kGlobal ? _mm256_set1_epi16(static_cast<int16_t>(-j)) : zero);
    if constexpr (kKind == Alignment::kSmithWatermanGotoh) {
      Store(f[j], _mm256_set1_epi16(kNoGap));
    }
  }
  __m256i best = zero;
  for (size_t i = 0; i <= group.rows; ++i) {
    if (i > 0) {
      const __m256i ai = Load(group.a[i - 1]);
      __m256i diagonal = Load(h[0]);
      __m256i left = zero;
      if constexpr (kGlobal) {
        left = _mm256_set1_epi16(static_cast<int16_t>(-i));
        Store(h[0], left);
      }
      __m256i e = _mm256_set1_epi16(kNoGap);
      for (size_t j = 1; j <= group.cols; ++j) {
        const __m256i up = Load(h[j]);
        const __m256i eq = _mm256_cmpeq_epi16(ai, Load(group.b[j - 1]));
        __m256i cell;
        if constexpr (kKind == Alignment::kNeedlemanWunsch) {
          cell = _mm256_max_epi16(
              _mm256_add_epi16(diagonal, Substitution(eq, 1)),
              _mm256_sub_epi16(_mm256_max_epi16(up, left), one));
        } else if constexpr (kKind == Alignment::kSmithWaterman) {
          cell = _mm256_max_epi16(
              _mm256_max_epi16(_mm256_add_epi16(diagonal, Substitution(eq, 2)),
                               zero),
              _mm256_sub_epi16(_mm256_max_epi16(up, left), one));
        } else if constexpr (kKind == Alignment::kSmithWatermanGotoh) {
          e = _mm256_max_epi16(_mm256_sub_epi16(e, one),
                               _mm256_sub_epi16(left, two));
          const __m256i fj = _mm256_max_epi16(
              _mm256_sub_epi16(Load(f[j]), one), _mm256_sub_epi16(up, two));
          Store(f[j], fj);
          cell = _mm256_max_epi16(
              _mm256_max_epi16(_mm256_add_epi16(diagonal, Substitution(eq, 4)),
                               zero),
              _mm256_max_epi16(e, fj));
        } else {
          cell = _mm256_and_si256(eq, _mm256_add_epi16(diagonal, one));
        }
        if constexpr (!kGlobal) best = _mm256_max_epi16(best, cell);
        Store(h[j], cell);
        diagonal = up;
        left = cell;
      }
    }
    if constexpr (kGlobal) {
      for (size_t l = 0; l < kLanes; ++l) {
        if (group.n[l] == i) scores[l] = h[group.m[l]][l];
      }
    }
  }
  if constexpr (!kGlobal) Store(scores, best);
}

template <Alignment kKind>
void AlignScoresAvx2Kind(const std::string_view* a, const std::string_view* b,
                         size_t count, int* scores) {
  for (size_t begin = 0; begin < count; begin += kBlock) {
    const size_t size = count - begin < kBlock ? count - begin : kBlock;
    const std::string_view* block_a = a + begin;
    const std::string_view* block_b = b + begin;
    uint16_t order[kBlock];
    for (size_t k = 0; k < size; ++k) order[k] = static_cast<uint16_t>(k);
    std::sort(order, order + size, [block_a, block_b](uint16_t x, uint16_t y) {
      return block_a[x].size() != block_a[y].size()
                 ? block_a[x].size() < block_a[y].size()
                 : block_b[x].size() < block_b[y].size();
    });
    for (size_t first = 0; first < size; first += kLanes) {
      const size_t lanes = size - first < kLanes ? size - first : kLanes;
      LaneGroup group;
      for (size_t l = 0; l < kLanes; ++l) {
        group.n[l] = l < lanes ? block_a[order[first + l]].size() : 0;
        group.m[l] = l < lanes ? block_b[order[first + l]].size() : 0;
        ALEM_CHECK_LE(group.n[l], kMaxAlignLength);
        ALEM_CHECK_LE(group.m[l], kMaxAlignLength);
        if (group.n[l] > group.rows) group.rows = group.n[l];
        if (group.m[l] > group.cols) group.cols = group.m[l];
      }
      for (size_t l = 0; l < kLanes; ++l) {
        const std::string_view sa = l < lanes ? block_a[order[first + l]] : "";
        const std::string_view sb = l < lanes ? block_b[order[first + l]] : "";
        for (size_t i = 0; i < group.rows; ++i) {
          group.a[i][l] = i < sa.size() ? static_cast<unsigned char>(sa[i])
                                        : kPadA;
        }
        for (size_t j = 0; j < group.cols; ++j) {
          group.b[j][l] = j < sb.size() ? static_cast<unsigned char>(sb[j])
                                        : kPadB;
        }
      }
      alignas(32) int16_t lane_scores[kLanes];
      AlignGroup<kKind>(group, lane_scores);
      for (size_t l = 0; l < lanes; ++l) {
        scores[begin + order[first + l]] = lane_scores[l];
      }
    }
  }
}

void AlignScoresAvx2(Alignment kind, const std::string_view* a,
                     const std::string_view* b, size_t count, int* scores) {
  switch (kind) {
    case Alignment::kNeedlemanWunsch:
      return AlignScoresAvx2Kind<Alignment::kNeedlemanWunsch>(a, b, count,
                                                              scores);
    case Alignment::kSmithWaterman:
      return AlignScoresAvx2Kind<Alignment::kSmithWaterman>(a, b, count,
                                                            scores);
    case Alignment::kSmithWatermanGotoh:
      return AlignScoresAvx2Kind<Alignment::kSmithWatermanGotoh>(a, b, count,
                                                                 scores);
    case Alignment::kLongestCommonSubstring:
      return AlignScoresAvx2Kind<Alignment::kLongestCommonSubstring>(
          a, b, count, scores);
  }
}

// ---- svm_margin_block --------------------------------------------------
//
// Full 8-row blocks: load 8 floats from each row, transpose in registers
// so each column vector holds one feature j across all 8 rows, then for
// each j broadcast w[j] and do one mul_pd + one add_pd into per-row double
// accumulators — the same single-rounded multiply-add per (row, j) as the
// scalar reference, just 4 rows per instruction. Partial trailing blocks
// take the scalar kernel.

// 8x8 float transpose: rows in, columns out (lane r of out[k] = in[r][k]).
inline void Transpose8x8(const __m256 in[8], __m256 out[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(in[0], in[1]);
  const __m256 t1 = _mm256_unpackhi_ps(in[0], in[1]);
  const __m256 t2 = _mm256_unpacklo_ps(in[2], in[3]);
  const __m256 t3 = _mm256_unpackhi_ps(in[2], in[3]);
  const __m256 t4 = _mm256_unpacklo_ps(in[4], in[5]);
  const __m256 t5 = _mm256_unpackhi_ps(in[4], in[5]);
  const __m256 t6 = _mm256_unpacklo_ps(in[6], in[7]);
  const __m256 t7 = _mm256_unpackhi_ps(in[6], in[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  out[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  out[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  out[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  out[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  out[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  out[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  out[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  out[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

void SvmMarginBlockAvx2(const double* w, size_t d, double bias,
                        const float* const* x, size_t nrows, double* out) {
  static_assert(kSvmMarginBlock == 8,
                "AVX2 SVM kernel is shaped for 8-row blocks");
  if (nrows != 8) {
    kScalarOps.svm_margin_block(w, d, bias, x, nrows, out);
    return;
  }
  __m256d acc_lo = _mm256_set1_pd(bias);  // Rows 0..3.
  __m256d acc_hi = _mm256_set1_pd(bias);  // Rows 4..7.
  size_t j = 0;
  __m256 rows[8];
  __m256 cols[8];
  for (; j + 8 <= d; j += 8) {
    for (size_t r = 0; r < 8; ++r) rows[r] = _mm256_loadu_ps(x[r] + j);
    Transpose8x8(rows, cols);
    for (size_t k = 0; k < 8; ++k) {
      const __m256d wj = _mm256_set1_pd(w[j + k]);
      const __m256d x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(cols[k]));
      const __m256d x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(cols[k], 1));
      acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(wj, x_lo));
      acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(wj, x_hi));
    }
  }
  double acc[8];
  _mm256_storeu_pd(acc, acc_lo);
  _mm256_storeu_pd(acc + 4, acc_hi);
  // Feature tail continues the same accumulators in ascending j.
  for (; j < d; ++j) {
    const double wj = w[j];
    for (size_t r = 0; r < 8; ++r) acc[r] += wj * x[r][j];
  }
  for (size_t r = 0; r < 8; ++r) out[r] = acc[r];
}

// ---- nn_affine ---------------------------------------------------------
//
// Vectorized across UNITS: with the [in x out] transposed weights (wt),
// four units' accumulators ride one __m256d, each fed x[j] * wt[j][o] in
// ascending j. Per unit the operation sequence matches the scalar
// row-major loop exactly. The unit tail (out % 4) runs scalar off the
// row-major weights.

template <typename In>
void NnAffineAvx2(const double* w, const double* wt, const double* bias,
                  size_t in, size_t out, const In* x, double* z) {
  size_t o = 0;
  for (; o + 4 <= out; o += 4) {
    __m256d acc = _mm256_loadu_pd(bias + o);
    const double* col = wt + o;
    for (size_t j = 0; j < in; ++j) {
      const __m256d xj = _mm256_set1_pd(static_cast<double>(x[j]));
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(xj, _mm256_loadu_pd(col + j * out)));
    }
    _mm256_storeu_pd(z + o, acc);
  }
  for (; o < out; ++o) {
    const double* wo = w + o * in;
    double acc = bias[o];
    for (size_t j = 0; j < in; ++j) acc += wo[j] * x[j];
    z[o] = acc;
  }
}

}  // namespace

const KernelOps kAvx2Ops = {
    /*name=*/"avx2",
    /*align_scores=*/AlignScoresAvx2,
    /*svm_margin_block=*/SvmMarginBlockAvx2,
    /*nn_wants_transpose=*/true,
    /*nn_affine_f32=*/NnAffineAvx2<float>,
    /*nn_affine_f64=*/NnAffineAvx2<double>,
};

}  // namespace internal
}  // namespace kernels
}  // namespace alem
