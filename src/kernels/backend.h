// Runtime-dispatched SIMD kernel backends for the framework's hot inner
// loops.
//
// PR 4/5 restructured the two scoring hot paths — the similarity
// EvaluateChunk kernels and the per-learner batch kernels (blocked SVM
// GEMV, fused NN forward pass) — into chunked, scratch-hoisted loops.
// This layer makes those inner loops pluggable: one kernel API with a
// portable scalar reference implementation (always compiled, always the
// correctness baseline) and optional SIMD implementations selected at
// runtime from CPU capabilities.
//
// Equivalence contract (enforced by tests/kernel_backend_test.cc and
// report_gate.sh stage 7; see docs/kernels.md):
//   * Every kernel in every backend currently registered is REORDER-FREE:
//     per output value it performs the same arithmetic operations in the
//     same order and rounding as the scalar reference, so results are
//     bitwise-identical. The AVX2 kernels vectorize across independent
//     outputs (rows, units, pairs), never across a single floating-point
//     accumulation, and their translation units are built with
//     -ffp-contract=off so no FMA contraction can change rounding.
//   * A future backend MAY register a reassociating kernel (e.g. an
//     FMA-tiled GEMV); such kernels are ULP-BOUNDED instead of bitwise and
//     must document their tolerance in docs/kernels.md. The differential
//     harness carries a ULP comparator for exactly that case — today every
//     kernel passes it with a tolerance of 0 ULP.
//
// Selection: --kernel-backend=auto|scalar|avx2 (alem_cli, strict: an
// unavailable explicit choice is an error) or the ALEM_KERNEL_BACKEND
// environment knob (bench binaries and tests, forgiving: an unavailable
// choice warns on stderr and falls back to auto so a test matrix written
// on an AVX2 host still runs on older hardware). "auto" picks the best
// available backend and by construction never selects an unavailable one.
// The active backend is stamped into every RunReport (config.kernel_backend)
// and the "kernels.backend" gauge, so the regression gate can assert which
// backend actually ran.

#ifndef ALEM_KERNELS_BACKEND_H_
#define ALEM_KERNELS_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace alem {
namespace kernels {

// Row-block width of the SVM margin GEMV (ml/linear_svm.cc feeds blocks of
// at most this many rows to svm_margin_block).
inline constexpr size_t kSvmMarginBlock = 8;

// Row-block width of the NN affine (ml/neural_net.cc feeds nn_affine_block
// one training mini-batch of the default size 8, or 8 pool rows, per call).
inline constexpr size_t kNnRowBlock = 8;

// Longest input, in bytes per side, of the alignment dynamic programs
// (the similarity layer caps its inputs at this length).
inline constexpr size_t kMaxAlignLength = 64;

// The integer alignment dynamic programs behind align_scores. Each scores
// in units that make every step an integer, so the similarity layer's
// double-valued score is the integer divided by the unit:
enum class Alignment : int {
  // Global: match +1, mismatch -1, gap -1; the score at (|a|, |b|).
  kNeedlemanWunsch = 0,
  // Local, in halves: match +2, mismatch -2, gap -1; the best cell, >= 0.
  kSmithWaterman = 1,
  // Local with affine gaps, in quarters: match +4, mismatch -4, gap open
  // -2, gap extend -1; the best cell, >= 0.
  kSmithWatermanGotoh = 2,
  // Length of the longest common contiguous substring.
  kLongestCommonSubstring = 3,
};

// Scalar reference of one pair's alignment score; `a` and `b` hold at most
// kMaxAlignLength bytes. This one DP body is both the scalar backend's
// align_scores and the per-pair SimilarityFunction::Similarity path.
int AlignmentScore(Alignment kind, std::string_view a, std::string_view b);

// Dispatch table: one function pointer per hot inner loop. All pointers are
// always non-null.
struct KernelOps {
  const char* name;

  // ---- similarity kernel (sim/edit_based.cc) ----

  // Alignment scores of a batch of pairs: scores[i] =
  // AlignmentScore(kind, a[i], b[i]) for i < count. Exact (integer)
  // semantics, so every backend is bitwise-equivalent; the AVX2 version
  // runs 16 pairs per vector, sorted by length so each group's dynamic
  // program spans about its own pairs' lengths.
  void (*align_scores)(Alignment kind, const std::string_view* a,
                       const std::string_view* b, size_t count, int* scores);

  // ---- ml kernels ----

  // Blocked SVM margin GEMV: out[r] = bias + sum_j w[j] * x[r][j] for
  // r < nrows (nrows <= kSvmMarginBlock), with each row's accumulation in
  // ascending j, one multiply + one add per step — the scalar Margin()
  // order, so results are bitwise-identical across backends.
  void (*svm_margin_block)(const double* w, size_t d, double bias,
                           const float* const* x, size_t nrows, double* out);

  // NN dense-layer affine over a row block, the forward pass of both
  // NeuralNetwork::Train and MarginBatch: z[r*out + o] = bias[o] +
  // sum_j w[o*in + j] * x[r][j] for r < nrows (1 <= nrows <= kNnRowBlock)
  // and o < out, each z accumulated in ascending j with one multiply + one
  // add per term — the scalar forward order. The f32 entry reads float
  // rows (layer 0 at inference), the f64 entry double activations.
  void (*nn_affine_block_f32)(const double* w, const double* bias, size_t in,
                              size_t out, const float* const* x, size_t nrows,
                              double* z);
  void (*nn_affine_block_f64)(const double* w, const double* bias, size_t in,
                              size_t out, const double* const* x,
                              size_t nrows, double* z);

  // NN weight gradient of one mini-batch (NeuralNetwork::Train):
  // dw[o*in + j] = sum_r g[r*out + o] * x[r][j] for o < out and j < in,
  // summed from +0.0 over r in ascending order and skipping every r whose
  // g[r*out + o] == 0.0 — the scalar backward order. Every element of dw is
  // written; nrows is the whole mini-batch (any size).
  void (*nn_weight_grad)(const double* g, size_t nrows, size_t out,
                         const double* const* x, size_t in, double* dw);
};

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
};

// Stable lowercase name ("scalar", "avx2").
std::string_view BackendToName(Backend backend);

// The active dispatch table. First use resolves ALEM_KERNEL_BACKEND (or
// "auto" when unset); afterwards this is a single pointer load, so hot
// loops may call it per chunk without caring.
const KernelOps& Active();

Backend ActiveBackend();
std::string_view BackendName();  // == BackendToName(ActiveBackend())

// True when `backend` is compiled in AND supported by this CPU (checked
// via __builtin_cpu_supports at first use). kScalar is always available.
bool BackendAvailable(Backend backend);

// Names of all available backends, scalar first, in dispatch-preference
// order (the last entry is what "auto" resolves to... reversed: "auto"
// picks the LAST/most specialized entry).
std::vector<std::string_view> AvailableBackendNames();

// Selects the backend by name: "auto", "scalar", or "avx2". Returns false
// (active backend unchanged) with a message in *error when the name is
// unknown or the backend is unavailable on this CPU; error may be null.
// Not thread-safe against concurrently running kernels — call it at
// startup or between runs (tests/benches do the latter).
bool SetBackend(std::string_view name, std::string* error);

// Publishes the active backend as the "kernels.backend" gauge (numeric
// Backend enum value: 0 = scalar, 1 = avx2). Called by the report builders
// right before the metrics snapshot so the gauge lands in every RunReport.
void StampBackendGauge();

}  // namespace kernels
}  // namespace alem

#endif  // ALEM_KERNELS_BACKEND_H_
