#include "ml/linear_svm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/backend.h"
#include "util/check.h"

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

void LinearSvm::FitGroup(const FeatureMatrix& features,
                         std::span<LinearSvm* const> models,
                         std::span<const SvmSample> samples) {
  ALEM_CHECK_EQ(models.size(), samples.size());
  ALEM_CHECK_LE(models.size(), kernels::kSvmLanes);
  if (models.empty()) return;
  const LinearSvmConfig& config = models[0]->config_;
  const size_t n = samples[0].rows.size();
  ALEM_CHECK_GT(n, 0u);
  kernels::SvmLane lanes[kernels::kSvmLanes];
  for (size_t i = 0; i < models.size(); ++i) {
    LinearSvm& model = *models[i];
    const SvmSample& sample = samples[i];
    ALEM_CHECK(model.config_.lambda == config.lambda &&
               model.config_.t0 == config.t0 &&
               model.config_.epochs == config.epochs &&
               model.config_.balance_classes == config.balance_classes);
    ALEM_CHECK_EQ(sample.rows.size(), n);
    ALEM_CHECK_EQ(sample.labels.size(), n);
    for (const size_t row : sample.rows) ALEM_CHECK_LT(row, features.rows());
    model.weights_.assign(features.dims(), 0.0);
    model.bias_ = 0.0;
    lanes[i] = {features.Row(0), sample.rows.data(), sample.labels.data(),
                n, model.config_.seed, model.weights_.data(), &model.bias_};
  }
  const kernels::SvmSchedule schedule{
      config.lambda, static_cast<uint64_t>(config.t0),
      static_cast<size_t>(config.epochs) * n, features.dims(),
      config.balance_classes, /*average_tail=*/false};
  kernels::Active().svm_pegasos(schedule, lanes, models.size());
}

void LinearSvm::RunSgd(const FeatureMatrix& features,
                       const std::vector<int>& labels, size_t epochs,
                       uint64_t t_offset, uint64_t rng_seed,
                       bool average_tail) {
  ALEM_CHECK_EQ(features.rows(), labels.size());
  ALEM_CHECK_GT(features.rows(), 0u);
  const size_t n = features.rows();
  const kernels::SvmLane lane{features.Row(0), nullptr, labels.data(), n,
                              rng_seed, weights_.data(), &bias_};
  const kernels::SvmSchedule schedule{config_.lambda, t_offset, epochs * n,
                                      features.dims(),
                                      config_.balance_classes, average_tail};
  kernels::Active().svm_pegasos(schedule, &lane, 1);
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
