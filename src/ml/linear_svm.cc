#include "ml/linear_svm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/backend.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {

namespace {

// Deterministic seed for a warm refit over n labeled examples: mixes the
// configured seed with n (splitmix-style constant) so each growth step draws
// a fresh sampling stream, while staying a pure function of (seed, n) — the
// restartability contract needs no hidden step counter.
uint64_t WarmSeed(uint64_t seed, size_t n) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(n) + 1));
}

}  // namespace

void LinearSvm::Fit(const FeatureMatrix& features,
                    const std::vector<int>& labels) {
  weights_.assign(features.dims(), 0.0);
  bias_ = 0.0;
  RunSgd(features, labels, static_cast<size_t>(config_.epochs),
         static_cast<uint64_t>(config_.t0), config_.seed,
         /*average_tail=*/false);
}

bool LinearSvm::FitWarm(const FeatureMatrix& features,
                        const std::vector<int>& labels) {
  if (!trained() || weights_.size() != features.dims()) return false;
  const size_t n = features.rows();
  // The warm refit runs a short Pegasos pass from the previous weights with
  // the step schedule of a *fresh* warm_epochs-epoch run (eta from
  // 1/(lambda * (t0 + warm_epochs * n))): continuing the cold schedule where
  // it decayed to would leave steps too small to adapt to the new labels.
  // The short run's last iterate is noisy, so the warm path averages the
  // tail-half iterates (averaged Pegasos) — the cold path stays last-iterate
  // to preserve the golden baselines bitwise. Everything here is a pure
  // function of (weights, data, config), which keeps warm fits restartable.
  const uint64_t t_offset = static_cast<uint64_t>(config_.t0) +
                            static_cast<uint64_t>(config_.warm_epochs) * n;
  RunSgd(features, labels, static_cast<size_t>(config_.warm_epochs), t_offset,
         WarmSeed(config_.seed, n), /*average_tail=*/true);
  return true;
}

void LinearSvm::RunSgd(const FeatureMatrix& features,
                       const std::vector<int>& labels, size_t epochs,
                       uint64_t t_offset, uint64_t rng_seed,
                       bool average_tail) {
  ALEM_CHECK_EQ(features.rows(), labels.size());
  ALEM_CHECK_GT(features.rows(), 0u);
  const size_t n = features.rows();
  const size_t d = features.dims();

  std::vector<size_t> positives;
  std::vector<size_t> negatives;
  for (size_t i = 0; i < n; ++i) {
    (labels[i] == 1 ? positives : negatives).push_back(i);
  }
  const bool balance =
      config_.balance_classes && !positives.empty() && !negatives.empty();

  Rng rng(rng_seed);
  const double lambda = config_.lambda;
  // Pegasos norm bound: the optimum satisfies ||w|| <= 1/sqrt(lambda).
  const double norm_bound = 1.0 / std::sqrt(lambda);
  const size_t steps = epochs * n;
  // Tail averaging (warm path only): accumulate the iterates of the second
  // half of the run and return their mean instead of the last iterate.
  const size_t average_from = average_tail ? steps / 2 + 1 : steps + 1;
  std::vector<double> weight_sum;
  double bias_sum = 0.0;
  size_t averaged = 0;
  if (average_tail) weight_sum.assign(d, 0.0);
  for (size_t t = 1; t <= steps; ++t) {
    size_t index;
    if (balance) {
      const std::vector<size_t>& pool =
          rng.NextBernoulli(0.5) ? positives : negatives;
      index = pool[rng.NextBelow(pool.size())];
    } else {
      index = static_cast<size_t>(rng.NextBelow(n));
    }
    const float* x = features.Row(index);
    const double y = labels[index] == 1 ? 1.0 : -1.0;
    const double eta = 1.0 / (lambda * static_cast<double>(t + t_offset));

    double dot = bias_;
    for (size_t j = 0; j < d; ++j) dot += weights_[j] * x[j];

    const double scale = 1.0 - eta * lambda;
    for (size_t j = 0; j < d; ++j) weights_[j] *= scale;
    if (y * dot < 1.0) {
      for (size_t j = 0; j < d; ++j) weights_[j] += eta * y * x[j];
      bias_ += eta * y;  // Bias is unregularized.
    }
    // Projection onto the ball of radius 1/sqrt(lambda).
    double norm_squared = 0.0;
    for (size_t j = 0; j < d; ++j) norm_squared += weights_[j] * weights_[j];
    if (norm_squared > norm_bound * norm_bound) {
      const double shrink = norm_bound / std::sqrt(norm_squared);
      for (size_t j = 0; j < d; ++j) weights_[j] *= shrink;
    }
    if (t >= average_from) {
      for (size_t j = 0; j < d; ++j) weight_sum[j] += weights_[j];
      bias_sum += bias_;
      ++averaged;
    }
  }
  if (averaged > 0) {
    const double inv = 1.0 / static_cast<double>(averaged);
    for (size_t j = 0; j < d; ++j) weights_[j] = weight_sum[j] * inv;
    bias_ = bias_sum * inv;
  }
}

double LinearSvm::Margin(const float* x) const {
  ALEM_CHECK(trained());
  double dot = bias_;
  for (size_t j = 0; j < weights_.size(); ++j) dot += weights_[j] * x[j];
  return dot;
}

void LinearSvm::MarginBatch(const FeatureMatrix& features,
                            std::span<const size_t> rows, double* out) const {
  ALEM_CHECK(trained());
  // Register-blocked GEMV, dispatched to the active kernel backend. Every
  // backend's svm_margin_block accumulates each row from bias_ through
  // weights_[j] * x[j] in ascending j — exactly the scalar Margin order —
  // so the margins are bitwise-identical across backends.
  constexpr size_t kBlock = kernels::kSvmMarginBlock;
  const size_t d = weights_.size();
  const double* w = weights_.data();
  const kernels::KernelOps& ops = kernels::Active();
  for (size_t base = 0; base < rows.size(); base += kBlock) {
    const size_t b = std::min(kBlock, rows.size() - base);
    const float* x[kBlock];
    for (size_t r = 0; r < b; ++r) x[r] = features.Row(rows[base + r]);
    ops.svm_margin_block(w, d, bias_, x, b, out + base);
  }
}

int LinearSvm::Predict(const float* x) const { return Margin(x) > 0.0 ? 1 : 0; }

void LinearSvm::PredictBatch(const FeatureMatrix& features,
                             std::span<const size_t> rows, int* out) const {
  // Small fixed margin buffer so prediction stays allocation-free per block.
  constexpr size_t kBlock = 64;
  double margins[kBlock];
  for (size_t base = 0; base < rows.size(); base += kBlock) {
    const size_t b = std::min(kBlock, rows.size() - base);
    MarginBatch(features, rows.subspan(base, b), margins);
    for (size_t r = 0; r < b; ++r) out[base + r] = margins[r] > 0.0 ? 1 : 0;
  }
}

std::vector<int> LinearSvm::PredictAll(const FeatureMatrix& features) const {
  std::vector<int> predictions(features.rows());
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  PredictBatch(features, rows, predictions.data());
  return predictions;
}

std::vector<size_t> LinearSvm::TopWeightDimensions(size_t k) const {
  ALEM_CHECK(trained());
  std::vector<size_t> order(weights_.size());
  std::iota(order.begin(), order.end(), 0u);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [this](size_t a, size_t b) {
                      return std::abs(weights_[a]) > std::abs(weights_[b]);
                    });
  order.resize(k);
  return order;
}

}  // namespace alem
