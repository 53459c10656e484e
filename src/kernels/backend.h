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

// Lanes of one svm_pegasos call: the AVX2 body trains one model per double
// lane, so a bootstrap committee's SVM members are fitted this many at a
// time (SvmLearner::FitCommitteeGroup).
inline constexpr size_t kSvmLanes = 4;

// One Pegasos fit of an svm_pegasos call: its training sample, the seed of
// its example-sampling stream, and the model it trains in place.
struct SvmLane {
  // Sample i (i < n, n > 0) is row (sample ? sample[i] : i) of the
  // row-major float matrix at x, SvmSchedule::d floats per row; its label
  // is labels[i], in {0, 1}.
  const float* x;
  const size_t* sample;
  const int* labels;
  size_t n;
  uint64_t seed;
  // d weights and the bias: the start point on entry, the model on return.
  double* weights;
  double* bias;
};

// What every lane of one svm_pegasos call shares.
struct SvmSchedule {
  double lambda;
  // Step t (from 1) uses eta = 1/(lambda * (t + t_offset)).
  uint64_t t_offset;
  size_t steps;
  size_t d;  // Weights per lane and floats per row.
  bool balance_classes;
  bool average_tail;
};

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

  // Pegasos SGD for 1 <= nlanes <= kSvmLanes independent linear SVM fits
  // (LinearSvm::Fit, FitWarm and FitGroup), each lane exactly the scalar
  // loop LinearSvm ran before this kernel. Per step t, a lane samples one
  // example from its own Rng(seed) (a class first, with probability 1/2,
  // when balance_classes and its sample holds both classes), then: dot =
  // bias + sum_j w[j] * x[j] in ascending j; w[j] *= 1 - eta * lambda;
  // when y * dot < 1 (y = +-1), w[j] += eta * y * x[j] and bias += eta * y;
  // the squared norm summed from +0.0 in ascending j; and when that exceeds
  // the squared radius, projection onto the ball of radius 1/sqrt(lambda)
  // (both as the scalar loop rounds them). With average_tail the lane
  // returns the mean of its iterates from step steps/2 + 1 on. Sampling
  // never reads the weights.
  void (*svm_pegasos)(const SvmSchedule& schedule, const SvmLane* lanes,
                      size_t nlanes);
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
