// Portable scalar kernels — the reference implementations every other
// backend is differentially tested against (tests/kernel_backend_test.cc).
// The ml kernels keep the accumulation order of the loops they replaced in
// ml/linear_svm.cc and ml/neural_net.cc (per output, terms in the same
// order, one rounded multiply and one rounded add each; svm_pegasos is the
// Pegasos loop itself, moved here unchanged); the alignment DPs compute
// sim/edit_based.cc's double-valued alignments in exact integer units.
// Changing any arithmetic here changes the framework's golden baselines.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/kernels_internal.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {
namespace kernels {

int AlignmentScore(Alignment kind, std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  ALEM_CHECK_LE(n, kMaxAlignLength);
  ALEM_CHECK_LE(m, kMaxAlignLength);
  // Row j of the previous/current DP row, updated in place: before the
  // write, row[j] is the cell above and `diagonal` the cell above-left.
  int row[kMaxAlignLength + 1];
  switch (kind) {
    case Alignment::kNeedlemanWunsch: {
      for (size_t j = 0; j <= m; ++j) row[j] = -static_cast<int>(j);
      for (size_t i = 1; i <= n; ++i) {
        int diagonal = row[0];
        row[0] = -static_cast<int>(i);
        for (size_t j = 1; j <= m; ++j) {
          const int up = row[j];
          const int match = a[i - 1] == b[j - 1] ? 1 : -1;
          row[j] = std::max({diagonal + match, up - 1, row[j - 1] - 1});
          diagonal = up;
        }
      }
      return row[m];
    }
    case Alignment::kSmithWaterman: {
      std::fill(row, row + m + 1, 0);
      int best = 0;
      for (size_t i = 1; i <= n; ++i) {
        int diagonal = 0;
        for (size_t j = 1; j <= m; ++j) {
          const int up = row[j];
          const int match = a[i - 1] == b[j - 1] ? 2 : -2;
          row[j] = std::max({0, diagonal + match, up - 1, row[j - 1] - 1});
          best = std::max(best, row[j]);
          diagonal = up;
        }
      }
      return best;
    }
    case Alignment::kSmithWatermanGotoh: {
      // row holds H (best local score ending at the cell); f holds F (best
      // ending in a vertical gap), e is E (horizontal gap) along the row.
      // Every E and F is a real cell's H plus a gap penalty from the first
      // column or row on, so kNoGap only seeds the maxima.
      constexpr int kNoGap = -(1 << 14);
      int f[kMaxAlignLength + 1];
      std::fill(row, row + m + 1, 0);
      std::fill(f, f + m + 1, kNoGap);
      int best = 0;
      for (size_t i = 1; i <= n; ++i) {
        int e = kNoGap;
        int diagonal = 0;
        for (size_t j = 1; j <= m; ++j) {
          const int up = row[j];
          e = std::max(e - 1, row[j - 1] - 2);
          f[j] = std::max(f[j] - 1, up - 2);
          const int match = a[i - 1] == b[j - 1] ? 4 : -4;
          row[j] = std::max({0, diagonal + match, e, f[j]});
          best = std::max(best, row[j]);
          diagonal = up;
        }
      }
      return best;
    }
    case Alignment::kLongestCommonSubstring: {
      std::fill(row, row + m + 1, 0);
      int best = 0;
      for (size_t i = 1; i <= n; ++i) {
        int diagonal = 0;
        for (size_t j = 1; j <= m; ++j) {
          const int up = row[j];
          row[j] = a[i - 1] == b[j - 1] ? diagonal + 1 : 0;
          best = std::max(best, row[j]);
          diagonal = up;
        }
      }
      return best;
    }
  }
  return 0;
}

namespace internal {
namespace {

void AlignScoresScalar(Alignment kind, const std::string_view* a,
                       const std::string_view* b, size_t count,
                       int* scores) {
  for (size_t i = 0; i < count; ++i) {
    scores[i] = AlignmentScore(kind, a[i], b[i]);
  }
}

void SvmMarginBlockScalar(const double* w, size_t d, double bias,
                          const float* const* x, size_t nrows, double* out) {
  // Register-blocked GEMV: walk the weight vector once and feed every
  // row's accumulator from the same loaded weight. Each accumulator starts
  // at bias and sees w[j] * x[j] in ascending j — the scalar Margin()
  // order, so the sums are bitwise-identical to per-row evaluation.
  double acc[kSvmMarginBlock];
  for (size_t r = 0; r < nrows; ++r) acc[r] = bias;
  for (size_t j = 0; j < d; ++j) {
    const double wj = w[j];
    for (size_t r = 0; r < nrows; ++r) acc[r] += wj * x[r][j];
  }
  for (size_t r = 0; r < nrows; ++r) out[r] = acc[r];
}

template <typename In>
void NnAffineBlockScalar(const double* w, const double* bias, size_t in,
                         size_t out, const In* const* x, size_t nrows,
                         double* z) {
  // Register-blocked like the SVM GEMV: each loaded weight feeds every
  // row's accumulator, and each accumulator starts at bias[o] and sees
  // w[o*in + j] * x[r][j] in ascending j.
  ALEM_CHECK_LE(nrows, kNnRowBlock);
  for (size_t o = 0; o < out; ++o) {
    const double* wo = w + o * in;
    double acc[kNnRowBlock];
    for (size_t r = 0; r < nrows; ++r) acc[r] = bias[o];
    for (size_t j = 0; j < in; ++j) {
      const double wj = wo[j];
      for (size_t r = 0; r < nrows; ++r) acc[r] += wj * x[r][j];
    }
    for (size_t r = 0; r < nrows; ++r) z[r * out + o] = acc[r];
  }
}

void NnWeightGradScalar(const double* g, size_t nrows, size_t out,
                        const double* const* x, size_t in, double* dw) {
  for (size_t o = 0; o < out; ++o) {
    double* dwo = dw + o * in;
    std::fill(dwo, dwo + in, 0.0);
    for (size_t r = 0; r < nrows; ++r) {
      const double gr = g[r * out + o];
      if (gr == 0.0) continue;
      const double* xr = x[r];
      for (size_t j = 0; j < in; ++j) dwo[j] += gr * xr[j];
    }
  }
}

// One lane: LinearSvm's Pegasos loop as it ran before this kernel, with
// the model in lane.weights / *lane.bias.
void PegasosLaneScalar(const SvmSchedule& schedule, const SvmLane& lane) {
  const size_t n = lane.n;
  const size_t d = schedule.d;
  ALEM_CHECK_GT(n, 0u);

  std::vector<size_t> positives;
  std::vector<size_t> negatives;
  for (size_t i = 0; i < n; ++i) {
    (lane.labels[i] == 1 ? positives : negatives).push_back(i);
  }
  const bool balance =
      schedule.balance_classes && !positives.empty() && !negatives.empty();
  // Each bound's rejection threshold, computed once per fit.
  const uint64_t n_threshold = Rng::RejectionThreshold(n);
  const uint64_t positives_threshold =
      balance ? Rng::RejectionThreshold(positives.size()) : 0;
  const uint64_t negatives_threshold =
      balance ? Rng::RejectionThreshold(negatives.size()) : 0;

  Rng rng(lane.seed);
  const double lambda = schedule.lambda;
  // Pegasos norm bound: the optimum satisfies ||w|| <= 1/sqrt(lambda).
  const double norm_bound = 1.0 / std::sqrt(lambda);
  const size_t steps = schedule.steps;
  // Tail averaging (warm path only): accumulate the iterates of the second
  // half of the run and return their mean instead of the last iterate.
  const size_t average_from =
      schedule.average_tail ? steps / 2 + 1 : steps + 1;
  std::vector<double> weight_sum;
  double bias_sum = 0.0;
  size_t averaged = 0;
  if (schedule.average_tail) weight_sum.assign(d, 0.0);
  double* weights = lane.weights;
  double bias = *lane.bias;
  for (size_t t = 1; t <= steps; ++t) {
    size_t index;
    if (balance) {
      const bool positive = rng.NextBernoulli(0.5);
      const std::vector<size_t>& pool = positive ? positives : negatives;
      index = pool[rng.NextBelow(
          pool.size(), positive ? positives_threshold : negatives_threshold)];
    } else {
      index = static_cast<size_t>(rng.NextBelow(n, n_threshold));
    }
    const float* x = lane.x + d * (lane.sample ? lane.sample[index] : index);
    const double y = lane.labels[index] == 1 ? 1.0 : -1.0;
    const double eta =
        1.0 / (lambda * static_cast<double>(t + schedule.t_offset));

    double dot = bias;
    for (size_t j = 0; j < d; ++j) dot += weights[j] * x[j];

    const double scale = 1.0 - eta * lambda;
    for (size_t j = 0; j < d; ++j) weights[j] *= scale;
    if (y * dot < 1.0) {
      for (size_t j = 0; j < d; ++j) weights[j] += eta * y * x[j];
      bias += eta * y;  // Bias is unregularized.
    }
    // Projection onto the ball of radius 1/sqrt(lambda).
    double norm_squared = 0.0;
    for (size_t j = 0; j < d; ++j) norm_squared += weights[j] * weights[j];
    if (norm_squared > norm_bound * norm_bound) {
      const double shrink = norm_bound / std::sqrt(norm_squared);
      for (size_t j = 0; j < d; ++j) weights[j] *= shrink;
    }
    if (t >= average_from) {
      for (size_t j = 0; j < d; ++j) weight_sum[j] += weights[j];
      bias_sum += bias;
      ++averaged;
    }
  }
  if (averaged > 0) {
    const double inv = 1.0 / static_cast<double>(averaged);
    for (size_t j = 0; j < d; ++j) weights[j] = weight_sum[j] * inv;
    bias = bias_sum * inv;
  }
  *lane.bias = bias;
}

void SvmPegasosScalar(const SvmSchedule& schedule, const SvmLane* lanes,
                      size_t nlanes) {
  ALEM_CHECK_LE(nlanes, kSvmLanes);
  for (size_t l = 0; l < nlanes; ++l) PegasosLaneScalar(schedule, lanes[l]);
}

}  // namespace

const KernelOps kScalarOps = {
    /*name=*/"scalar",
    /*align_scores=*/AlignScoresScalar,
    /*svm_margin_block=*/SvmMarginBlockScalar,
    /*nn_affine_block_f32=*/NnAffineBlockScalar<float>,
    /*nn_affine_block_f64=*/NnAffineBlockScalar<double>,
    /*nn_weight_grad=*/NnWeightGradScalar,
    /*svm_pegasos=*/SvmPegasosScalar,
};

}  // namespace internal
}  // namespace kernels
}  // namespace alem
