// AVX2 kernels. This translation unit is the only one compiled with
// -mavx2 (see src/kernels/CMakeLists.txt); nothing here may be executed
// unless __builtin_cpu_supports("avx2") passed in backend.cc.
//
// Every kernel below is REORDER-FREE with respect to the scalar reference
// (kernel_scalar.cc): the integer alignment kernel computes the same exact
// values, and the floating-point kernels vectorize across independent
// accumulators (rows for the SVM GEMV and the NN affine, inputs for the NN
// weight gradient, whole fits for Pegasos) so each accumulator still sees
// its terms in the scalar order with one rounded multiply and one rounded
// add per term. The TU is additionally built with -ffp-contract=off (and
// WITHOUT -mfma) so the compiler cannot fuse that multiply-add pair into a
// single differently-rounded FMA. Net effect: bitwise-identical outputs,
// verified by tests/kernel_backend_test.cc, the learner reference tests
// (tests/ml_nn_reference_test.cc, tests/ml_svm_reference_test.cc) and the
// per-backend golden-baseline replay in report_gate.sh stage 7.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "kernels/kernels_internal.h"
#include "util/check.h"
#include "util/rng.h"

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

// ---- nn_affine_block ---------------------------------------------------
//
// Vectorized across ROWS, like the SVM GEMV: the row block is transposed
// once per call into xt, where xt[j] holds input j of all 8 rows as
// doubles (rows past nrows are zero and never stored), and each unit keeps
// its 8 row accumulators in two __m256d. Four units are in flight per pass
// over j, so every loaded input column feeds 8 independent multiply-add
// pairs. Per (row, unit) the sequence is the scalar one: start at bias[o],
// then one rounded multiply and one rounded add per j in ascending order.
// Inputs wider than one tile continue from the partial sums parked in z.

constexpr size_t kNnTile = 256;  // Inputs per transposed tile (16 KiB).

// Rows 0..3 of four double columns: lane r of out[k] = row[r][k].
inline void Transpose4x4(const __m256d row[4], __m256d out[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(row[0], row[1]);
  const __m256d t1 = _mm256_unpackhi_pd(row[0], row[1]);
  const __m256d t2 = _mm256_unpacklo_pd(row[2], row[3]);
  const __m256d t3 = _mm256_unpackhi_pd(row[2], row[3]);
  out[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  out[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  out[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  out[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// Full 8-row blocks move 8 (float) or 4 (double) inputs per step through
// register transposes; partial blocks and the tail go element by element.
void TransposeTile(const float* const* x, size_t nrows, size_t j0, size_t jn,
                   double (*xt)[8]) {
  size_t j = 0;
  if (nrows == 8) {
    __m256 rows[8];
    __m256 cols[8];
    for (; j + 8 <= jn; j += 8) {
      for (size_t r = 0; r < 8; ++r) rows[r] = _mm256_loadu_ps(x[r] + j0 + j);
      Transpose8x8(rows, cols);
      for (size_t k = 0; k < 8; ++k) {
        _mm256_store_pd(xt[j + k],
                        _mm256_cvtps_pd(_mm256_castps256_ps128(cols[k])));
        _mm256_store_pd(xt[j + k] + 4,
                        _mm256_cvtps_pd(_mm256_extractf128_ps(cols[k], 1)));
      }
    }
  }
  for (; j < jn; ++j) {
    for (size_t r = 0; r < 8; ++r) {
      xt[j][r] = r < nrows ? static_cast<double>(x[r][j0 + j]) : 0.0;
    }
  }
}

void TransposeTile(const double* const* x, size_t nrows, size_t j0,
                   size_t jn, double (*xt)[8]) {
  size_t j = 0;
  if (nrows == 8) {
    __m256d rows[4];
    __m256d cols[4];
    for (; j + 4 <= jn; j += 4) {
      for (size_t half = 0; half < 8; half += 4) {
        for (size_t r = 0; r < 4; ++r) {
          rows[r] = _mm256_loadu_pd(x[half + r] + j0 + j);
        }
        Transpose4x4(rows, cols);
        for (size_t k = 0; k < 4; ++k) {
          _mm256_store_pd(xt[j + k] + half, cols[k]);
        }
      }
    }
  }
  for (; j < jn; ++j) {
    for (size_t r = 0; r < 8; ++r) xt[j][r] = r < nrows ? x[r][j0 + j] : 0.0;
  }
}

// One unit's accumulators for the 8 rows of a block.
struct RowAcc {
  __m256d lo;  // Rows 0..3.
  __m256d hi;  // Rows 4..7.
};

// Starts a unit at its bias on the first tile, else at the partial sums
// parked in z (unit column z[r * out]).
inline RowAcc StartUnit(bool first, double bias, const double* z, size_t out,
                        size_t nrows) {
  if (first) return {_mm256_set1_pd(bias), _mm256_set1_pd(bias)};
  alignas(32) double part[8] = {};
  for (size_t r = 0; r < nrows; ++r) part[r] = z[r * out];
  return {_mm256_load_pd(part), _mm256_load_pd(part + 4)};
}

inline void MulAdd(RowAcc& acc, __m256d w, __m256d x_lo, __m256d x_hi) {
  acc.lo = _mm256_add_pd(acc.lo, _mm256_mul_pd(w, x_lo));
  acc.hi = _mm256_add_pd(acc.hi, _mm256_mul_pd(w, x_hi));
}

inline void StoreUnit(const RowAcc& acc, double* z, size_t out,
                      size_t nrows) {
  alignas(32) double part[8];
  _mm256_store_pd(part, acc.lo);
  _mm256_store_pd(part + 4, acc.hi);
  for (size_t r = 0; r < nrows; ++r) z[r * out] = part[r];
}

template <typename In>
void NnAffineBlockAvx2(const double* w, const double* bias, size_t in,
                       size_t out, const In* const* x, size_t nrows,
                       double* z) {
  ALEM_CHECK_LE(nrows, kNnRowBlock);
  static_assert(kNnRowBlock == 8, "AVX2 NN kernel is shaped for 8-row blocks");
  alignas(32) double xt[kNnTile][8];
  // At least one tile, so a zero-width layer still writes z = bias.
  size_t j0 = 0;
  do {
    const size_t jn = std::min(kNnTile, in - j0);
    const bool first = j0 == 0;
    TransposeTile(x, nrows, j0, jn, xt);
    size_t o = 0;
    for (; o + 4 <= out; o += 4) {
      const double* w0 = w + o * in + j0;
      const double* w1 = w0 + in;
      const double* w2 = w1 + in;
      const double* w3 = w2 + in;
      RowAcc a0 = StartUnit(first, bias[o], z + o, out, nrows);
      RowAcc a1 = StartUnit(first, bias[o + 1], z + o + 1, out, nrows);
      RowAcc a2 = StartUnit(first, bias[o + 2], z + o + 2, out, nrows);
      RowAcc a3 = StartUnit(first, bias[o + 3], z + o + 3, out, nrows);
      for (size_t j = 0; j < jn; ++j) {
        const __m256d x_lo = _mm256_load_pd(xt[j]);
        const __m256d x_hi = _mm256_load_pd(xt[j] + 4);
        MulAdd(a0, _mm256_broadcast_sd(w0 + j), x_lo, x_hi);
        MulAdd(a1, _mm256_broadcast_sd(w1 + j), x_lo, x_hi);
        MulAdd(a2, _mm256_broadcast_sd(w2 + j), x_lo, x_hi);
        MulAdd(a3, _mm256_broadcast_sd(w3 + j), x_lo, x_hi);
      }
      StoreUnit(a0, z + o, out, nrows);
      StoreUnit(a1, z + o + 1, out, nrows);
      StoreUnit(a2, z + o + 2, out, nrows);
      StoreUnit(a3, z + o + 3, out, nrows);
    }
    for (; o < out; ++o) {
      const double* wo = w + o * in + j0;
      RowAcc a = StartUnit(first, bias[o], z + o, out, nrows);
      for (size_t j = 0; j < jn; ++j) {
        MulAdd(a, _mm256_broadcast_sd(wo + j), _mm256_load_pd(xt[j]),
               _mm256_load_pd(xt[j] + 4));
      }
      StoreUnit(a, z + o, out, nrows);
    }
    j0 += jn;
  } while (j0 < in);
}

// ---- nn_weight_grad ----------------------------------------------------
//
// Vectorized across INPUTS j: dw[o][j..j+3] rides one __m256d. For each
// unit, a group of up to 8 rows first collects its nonzero gradients, and
// the j loop is then instantiated for exactly that many rows, so it runs
// a fixed sequence of multiply-adds with no data-dependent branch (ReLU
// and dropout zeros would otherwise mispredict per row and j block). Each
// dw[o][j] still starts at +0.0 and adds g[r][o] * x[r][j] over the
// nonzero rows in ascending r; a later row group continues from the sums
// stored by the earlier one.

template <size_t K>
void GradRows(const double* const* xs, const double* gs, size_t in,
              bool first, double* dw) {
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 16 <= in; j += 16) {
    __m256d a0 = first ? zero : _mm256_loadu_pd(dw + j);
    __m256d a1 = first ? zero : _mm256_loadu_pd(dw + j + 4);
    __m256d a2 = first ? zero : _mm256_loadu_pd(dw + j + 8);
    __m256d a3 = first ? zero : _mm256_loadu_pd(dw + j + 12);
    for (size_t t = 0; t < K; ++t) {
      const __m256d g = _mm256_broadcast_sd(gs + t);
      const double* x = xs[t] + j;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(g, _mm256_loadu_pd(x)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(g, _mm256_loadu_pd(x + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(g, _mm256_loadu_pd(x + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(g, _mm256_loadu_pd(x + 12)));
    }
    _mm256_storeu_pd(dw + j, a0);
    _mm256_storeu_pd(dw + j + 4, a1);
    _mm256_storeu_pd(dw + j + 8, a2);
    _mm256_storeu_pd(dw + j + 12, a3);
  }
  for (; j + 4 <= in; j += 4) {
    __m256d a = first ? zero : _mm256_loadu_pd(dw + j);
    for (size_t t = 0; t < K; ++t) {
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_broadcast_sd(gs + t),
                                         _mm256_loadu_pd(xs[t] + j)));
    }
    _mm256_storeu_pd(dw + j, a);
  }
  for (; j < in; ++j) {
    double a = first ? 0.0 : dw[j];
    for (size_t t = 0; t < K; ++t) a += gs[t] * xs[t][j];
    dw[j] = a;
  }
}

using GradRowsFn = void (*)(const double* const*, const double*, size_t, bool,
                            double*);
constexpr GradRowsFn kGradRows[kNnRowBlock + 1] = {
    GradRows<0>, GradRows<1>, GradRows<2>, GradRows<3>, GradRows<4>,
    GradRows<5>, GradRows<6>, GradRows<7>, GradRows<8>,
};

void NnWeightGradAvx2(const double* g, size_t nrows, size_t out,
                      const double* const* x, size_t in, double* dw) {
  for (size_t o = 0; o < out; ++o) {
    size_t r0 = 0;
    do {
      const size_t rn = std::min(kNnRowBlock, nrows - r0);
      const double* xs[kNnRowBlock];
      double gs[kNnRowBlock];
      size_t k = 0;
      for (size_t r = r0; r < r0 + rn; ++r) {
        // Branch-free compaction: every row is written at slot k, and k
        // only advances past a nonzero gradient.
        const double gr = g[r * out + o];
        xs[k] = x[r];
        gs[k] = gr;
        k += gr != 0.0 ? 1 : 0;
      }
      // The first group writes every element, even with no nonzero row.
      if (r0 == 0 || k > 0) kGradRows[k](xs, gs, in, r0 == 0, dw + o * in);
      r0 += rn;
    } while (r0 < nrows);
  }
}

// ---- svm_pegasos -------------------------------------------------------
//
// One fit per double lane: w[j] of the four lanes rides one __m256d, and
// each step makes one pass over j that scales w, takes the hinge step in
// the lanes whose mask is set, sums ||w||^2 and accumulates the *next*
// step's dot product w.x from the same updated w. That works because
// sampling never reads the weights: each lane draws its next example one
// step early from its own stream, in the scalar order. The pass also
// transposes the next step's four rows, four floats per row at a time,
// into a column buffer that the next step's hinge update reads. A lane
// whose ||w||^2 exceeds the bound is shrunk in a second pass that also
// redoes its next dot product from the shrunk w.
//
// Per lane every value sees the scalar reference's operations in its
// order: the dot starts at the bias and adds w[j]*x[j] in ascending j,
// ||w||^2 starts at +0.0 and adds w[j]*w[j] in ascending j, and the hinge
// step adds (eta*y)*x[j] to the scaled w[j]. A lane without a hinge step
// or projection keeps its values through a blend, never by adding 0
// (which would turn -0.0 into +0.0). Lanes past nlanes read a zero row and
// never step. A one-lane call runs the scalar body: a single live lane
// pays the whole vector's cost. So does a tail-averaged call, which only
// LinearSvm::FitWarm makes, one lane at a time.
//
// The kernel's memory is one aligned_alloc, not containers, and its
// sampling the inline Rng draws: an out-of-line copy of a template that
// baseline TUs also instantiate would be AVX2 code the linker may pick
// for the whole program.

// A lane's example sampler: the scalar loop's draws from its own stream,
// with each bound's rejection threshold computed once by Init.
struct LaneSampler {
  Rng rng;
  const size_t* positives = nullptr;  // Class lists, ascending sample index.
  size_t num_positives = 0;
  const size_t* negatives = nullptr;
  size_t num_negatives = 0;
  size_t n = 0;
  bool balance = false;
  uint64_t n_threshold = 0;
  uint64_t positives_threshold = 0;
  uint64_t negatives_threshold = 0;

  // Call once n, the class lists and balance are set.
  void Init() {
    n_threshold = Rng::RejectionThreshold(n);
    if (balance) {
      positives_threshold = Rng::RejectionThreshold(num_positives);
      negatives_threshold = Rng::RejectionThreshold(num_negatives);
    }
  }

  size_t Next() {
    if (!balance) return static_cast<size_t>(rng.NextBelow(n, n_threshold));
    if (rng.NextBernoulli(0.5)) {
      return positives[rng.NextBelow(num_positives, positives_threshold)];
    }
    return negatives[rng.NextBelow(num_negatives, negatives_threshold)];
  }
};

inline __m256d LaneMask(const bool set[kSvmLanes]) {
  return _mm256_castsi256_pd(
      _mm256_set_epi64x(set[3] ? -1 : 0, set[2] ? -1 : 0, set[1] ? -1 : 0,
                        set[0] ? -1 : 0));
}

// Calls f(j, column) for j = 0 .. d-1 in ascending order, where lane l of
// column is rows[l][j] as a double.
template <typename F>
inline void ForEachColumn(size_t d, const float* const rows[kSvmLanes],
                          F&& f) {
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    __m128 r0 = _mm_loadu_ps(rows[0] + j);
    __m128 r1 = _mm_loadu_ps(rows[1] + j);
    __m128 r2 = _mm_loadu_ps(rows[2] + j);
    __m128 r3 = _mm_loadu_ps(rows[3] + j);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    f(j, _mm256_cvtps_pd(r0));
    f(j + 1, _mm256_cvtps_pd(r1));
    f(j + 2, _mm256_cvtps_pd(r2));
    f(j + 3, _mm256_cvtps_pd(r3));
  }
  for (; j < d; ++j) {
    f(j, _mm256_set_pd(rows[3][j], rows[2][j], rows[1][j], rows[0][j]));
  }
}

// One step's pass over j: scales w, takes the hinge step where `hinge` is
// set (x_cur holds this step's columns), sums ||w||^2 into *norm and adds
// w.x of the next step's rows to *dot, storing their columns in x_next.
void PegasosPass(size_t d, __m256d* w, const __m256d* x_cur,
                 const float* const next[kSvmLanes], __m256d* x_next,
                 __m256d scale, __m256d eta_y, __m256d hinge, __m256d* norm,
                 __m256d* dot) {
  __m256d norm_acc = _mm256_setzero_pd();
  __m256d dot_acc = *dot;
  ForEachColumn(d, next, [&](size_t j, __m256d x) {
    __m256d wj = _mm256_mul_pd(w[j], scale);
    wj = _mm256_blendv_pd(
        wj, _mm256_add_pd(wj, _mm256_mul_pd(eta_y, x_cur[j])), hinge);
    norm_acc = _mm256_add_pd(norm_acc, _mm256_mul_pd(wj, wj));
    dot_acc = _mm256_add_pd(dot_acc, _mm256_mul_pd(wj, x));
    w[j] = wj;
    x_next[j] = x;
  });
  *norm = norm_acc;
  *dot = dot_acc;
}

void SvmPegasosAvx2(const SvmSchedule& schedule, const SvmLane* lanes,
                    size_t nlanes) {
  static_assert(kSvmLanes == 4, "AVX2 Pegasos holds one lane per double");
  ALEM_CHECK_LE(nlanes, kSvmLanes);
  if (nlanes < 2 || schedule.average_tail || schedule.steps == 0) {
    kScalarOps.svm_pegasos(schedule, lanes, nlanes);
    return;
  }
  const size_t d = schedule.d;
  const size_t steps = schedule.steps;

  // One allocation: w and two column buffers, d vectors each; a zero row
  // for the idle lanes; the class lists.
  const size_t vectors = 3 * d;
  const size_t zero_floats = (d + 7) / 8 * 8;
  size_t list_entries = 0;
  for (size_t l = 0; l < nlanes; ++l) list_entries += lanes[l].n;
  const size_t bytes =
      (vectors * sizeof(__m256d) + zero_floats * sizeof(float) +
       list_entries * sizeof(size_t) + 31) /
      32 * 32;
  struct Arena {
    explicit Arena(size_t size) : memory(std::aligned_alloc(32, size)) {}
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    ~Arena() { std::free(memory); }
    void* memory;
  } arena(bytes);
  ALEM_CHECK(arena.memory != nullptr);
  __m256d* w = static_cast<__m256d*>(arena.memory);
  __m256d* x_cur = w + d;
  __m256d* x_next = x_cur + d;
  float* zero_row = reinterpret_cast<float*>(w + vectors);
  size_t* lists = reinterpret_cast<size_t*>(zero_row + zero_floats);
  for (size_t j = 0; j < zero_floats; ++j) zero_row[j] = 0.0f;

  LaneSampler samplers[kSvmLanes];
  alignas(32) double bias[kSvmLanes] = {};
  for (size_t l = 0; l < nlanes; ++l) {
    const SvmLane& lane = lanes[l];
    ALEM_CHECK_GT(lane.n, 0u);
    LaneSampler& sampler = samplers[l];
    sampler.rng = Rng(lane.seed);
    sampler.n = lane.n;
    sampler.positives = lists;
    for (size_t i = 0; i < lane.n; ++i) {
      if (lane.labels[i] == 1) lists[sampler.num_positives++] = i;
    }
    sampler.negatives = lists + sampler.num_positives;
    for (size_t i = 0; i < lane.n; ++i) {
      if (lane.labels[i] != 1) {
        lists[sampler.num_positives + sampler.num_negatives++] = i;
      }
    }
    lists += lane.n;
    sampler.balance = schedule.balance_classes && sampler.num_positives > 0 &&
                      sampler.num_negatives > 0;
    sampler.Init();
    bias[l] = *lane.bias;
  }
  for (size_t j = 0; j < d; ++j) {
    alignas(32) double column[kSvmLanes] = {};
    for (size_t l = 0; l < nlanes; ++l) column[l] = lanes[l].weights[j];
    w[j] = _mm256_load_pd(column);
  }

  // Each lane's next example, its row and label; idle lanes keep the zero
  // row. A step draws the next one once its own hinge test is done.
  const float* rows[kSvmLanes] = {zero_row, zero_row, zero_row, zero_row};
  double y[kSvmLanes] = {};
  auto draw = [&] {
    for (size_t l = 0; l < nlanes; ++l) {
      const SvmLane& lane = lanes[l];
      const size_t index = samplers[l].Next();
      rows[l] = lane.x + d * (lane.sample ? lane.sample[index] : index);
      y[l] = lane.labels[index] == 1 ? 1.0 : -1.0;
    }
  };

  // Step 1's columns and dot products.
  draw();
  __m256d dot = _mm256_load_pd(bias);
  ForEachColumn(d, rows, [&](size_t j, __m256d x) {
    x_cur[j] = x;
    dot = _mm256_add_pd(dot, _mm256_mul_pd(w[j], x));
  });

  const double lambda = schedule.lambda;
  const double norm_bound = 1.0 / std::sqrt(lambda);
  for (size_t t = 1; t <= steps; ++t) {
    const double eta =
        1.0 / (lambda * static_cast<double>(t + schedule.t_offset));
    alignas(32) double dots[kSvmLanes] = {};
    _mm256_store_pd(dots, dot);
    alignas(32) double eta_y[kSvmLanes] = {};
    bool hinge[kSvmLanes] = {};
    for (size_t l = 0; l < nlanes; ++l) {
      eta_y[l] = eta * y[l];
      hinge[l] = y[l] * dots[l] < 1.0;
      if (hinge[l]) bias[l] += eta * y[l];  // Bias is unregularized.
    }
    // The last step's pass re-reads its own rows; its next dot is unused.
    if (t < steps) draw();
    __m256d norm = _mm256_setzero_pd();
    dot = _mm256_load_pd(bias);  // The next step's dot starts at its bias.
    PegasosPass(d, w, x_cur, rows, x_next, _mm256_set1_pd(1.0 - eta * lambda),
                _mm256_load_pd(eta_y), LaneMask(hinge), &norm, &dot);

    // Projection onto the ball of radius 1/sqrt(lambda), lane by lane.
    alignas(32) double norms[kSvmLanes] = {};
    _mm256_store_pd(norms, norm);
    alignas(32) double shrink[kSvmLanes] = {};
    bool project[kSvmLanes] = {};
    bool any = false;
    for (size_t l = 0; l < nlanes; ++l) {
      if (norms[l] > norm_bound * norm_bound) {
        shrink[l] = norm_bound / std::sqrt(norms[l]);
        project[l] = true;
        any = true;
      }
    }
    if (any) {
      const __m256d mask = LaneMask(project);
      const __m256d factor = _mm256_load_pd(shrink);
      __m256d redo = _mm256_load_pd(bias);
      for (size_t j = 0; j < d; ++j) {
        const __m256d wj =
            _mm256_blendv_pd(w[j], _mm256_mul_pd(w[j], factor), mask);
        w[j] = wj;
        redo = _mm256_add_pd(redo, _mm256_mul_pd(wj, x_next[j]));
      }
      dot = _mm256_blendv_pd(dot, redo, mask);
    }
    __m256d* const filled = x_next;
    x_next = x_cur;
    x_cur = filled;
  }
  for (size_t j = 0; j < d; ++j) {
    alignas(32) double column[kSvmLanes] = {};
    _mm256_store_pd(column, w[j]);
    for (size_t l = 0; l < nlanes; ++l) lanes[l].weights[j] = column[l];
  }
  for (size_t l = 0; l < nlanes; ++l) *lanes[l].bias = bias[l];
}

}  // namespace

const KernelOps kAvx2Ops = {
    /*name=*/"avx2",
    /*align_scores=*/AlignScoresAvx2,
    /*svm_margin_block=*/SvmMarginBlockAvx2,
    /*nn_affine_block_f32=*/NnAffineBlockAvx2<float>,
    /*nn_affine_block_f64=*/NnAffineBlockAvx2<double>,
    /*nn_weight_grad=*/NnWeightGradAvx2,
    /*svm_pegasos=*/SvmPegasosAvx2,
};

}  // namespace internal
}  // namespace kernels
}  // namespace alem
