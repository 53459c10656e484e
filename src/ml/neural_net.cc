#include "ml/neural_net.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/backend.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {
namespace {

constexpr double kBnEpsilon = 1e-5;
constexpr double kBnMomentum = 0.9;  // Running-statistics smoothing.

double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

NeuralNetConfig DeepMatcherProxyConfig(uint64_t seed) {
  NeuralNetConfig config;
  config.hidden_sizes = {64, 64};
  config.epochs = 60;
  config.seed = seed;
  return config;
}

void NeuralNetwork::InitializeLayers(size_t input_dims) {
  Rng rng(config_.seed);
  layers_.clear();
  int previous = static_cast<int>(input_dims);
  for (const int size : config_.hidden_sizes) {
    ALEM_CHECK_GT(size, 0);
    Layer layer;
    layer.in = previous;
    layer.out = size;
    const double he_scale = std::sqrt(2.0 / static_cast<double>(previous));
    layer.weights.resize(static_cast<size_t>(size) * previous);
    for (double& w : layer.weights) w = rng.NextGaussian() * he_scale;
    layer.bias.assign(static_cast<size_t>(size), 0.0);
    layer.gamma.assign(static_cast<size_t>(size), 1.0);
    layer.beta.assign(static_cast<size_t>(size), 0.0);
    layer.running_mean.assign(static_cast<size_t>(size), 0.0);
    layer.running_var.assign(static_cast<size_t>(size), 1.0);
    layer.v_weights.assign(layer.weights.size(), 0.0);
    layer.v_bias.assign(layer.bias.size(), 0.0);
    layer.v_gamma.assign(layer.gamma.size(), 0.0);
    layer.v_beta.assign(layer.beta.size(), 0.0);
    layers_.push_back(std::move(layer));
    previous = size;
  }
  const double out_scale = std::sqrt(1.0 / static_cast<double>(previous));
  out_weights_.resize(static_cast<size_t>(previous));
  for (double& w : out_weights_) w = rng.NextGaussian() * out_scale;
  out_bias_ = 0.0;
  v_out_weights_.assign(out_weights_.size(), 0.0);
  v_out_bias_ = 0.0;
}

void NeuralNetwork::Fit(const FeatureMatrix& features,
                        const std::vector<int>& labels) {
  InitializeLayers(features.dims());
  Train(features, labels, config_.epochs, config_.learning_rate,
        config_.seed ^ 0x5bd1e995u);
}

bool NeuralNetwork::FitWarm(const FeatureMatrix& features,
                            const std::vector<int>& labels) {
  if (!trained() ||
      static_cast<size_t>(layers_.front().in) != features.dims()) {
    return false;
  }
  // Zero the momentum velocities: the refit then depends only on the weights
  // and batch-norm statistics — exactly what SaveModel/RestoreModel carry.
  for (Layer& layer : layers_) {
    std::fill(layer.v_weights.begin(), layer.v_weights.end(), 0.0);
    std::fill(layer.v_bias.begin(), layer.v_bias.end(), 0.0);
    std::fill(layer.v_gamma.begin(), layer.v_gamma.end(), 0.0);
    std::fill(layer.v_beta.begin(), layer.v_beta.end(), 0.0);
  }
  std::fill(v_out_weights_.begin(), v_out_weights_.end(), 0.0);
  v_out_bias_ = 0.0;
  // Resume at the step size a full cold schedule would have reached, and
  // draw a fresh shuffle/dropout stream per labeled-set size (pure function
  // of (seed, n); same mixing as LinearSvm::FitWarm).
  const double warm_rate =
      config_.learning_rate *
      std::pow(config_.learning_rate_decay, config_.epochs);
  const uint64_t warm_seed =
      (config_.seed ^ 0x5bd1e995u) ^
      (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(features.rows()) + 1));
  Train(features, labels, config_.warm_epochs, warm_rate, warm_seed);
  return true;
}

void NeuralNetwork::Train(const FeatureMatrix& features,
                          const std::vector<int>& labels, int epochs,
                          double initial_learning_rate, uint64_t rng_seed) {
  ALEM_CHECK_EQ(features.rows(), labels.size());
  ALEM_CHECK_GT(features.rows(), 0u);
  const size_t n = features.rows();

  // Class-skew compensation: positive examples get a larger gradient weight.
  size_t num_positives = 0;
  for (const int label : labels) num_positives += label == 1 ? 1 : 0;
  double positive_weight = 1.0;
  if (num_positives > 0 && num_positives < n) {
    positive_weight =
        std::min(static_cast<double>(n - num_positives) /
                     static_cast<double>(num_positives),
                 config_.positive_weight_cap);
  }

  Rng rng(rng_seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  const size_t batch_size =
      std::max<size_t>(1, static_cast<size_t>(config_.batch_size));
  const size_t num_layers = layers_.size();

  // Per-layer forward/backward scratch, sized for one mini-batch.
  struct LayerScratch {
    std::vector<double> pre;     // Affine output z.
    std::vector<double> relu;    // ReLU(z) = r.
    std::vector<double> rhat;    // Normalized r.
    std::vector<double> post;    // Layer output (after BN + dropout).
    std::vector<double> mean, var;
    std::vector<char> drop_mask;
    std::vector<double> d_post;  // Gradient wrt layer output.
    std::vector<double> d_pre;   // Gradient wrt z.
  };
  std::vector<LayerScratch> scratch(num_layers);

  double learning_rate = initial_learning_rate;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += batch_size) {
      const size_t b = std::min(batch_size, n - start);

      // ---- Forward pass ----
      // a0: the mini-batch inputs, row-major [b x input_dims].
      const double inv_keep = 1.0 / std::max(1e-9, 1.0 - config_.dropout);
      std::vector<const float*> batch_rows(b);
      std::vector<double> batch_weight(b);
      std::vector<double> batch_label(b);
      for (size_t i = 0; i < b; ++i) {
        const size_t row = order[start + i];
        batch_rows[i] = features.Row(row);
        batch_label[i] = labels[row] == 1 ? 1.0 : 0.0;
        batch_weight[i] = labels[row] == 1 ? positive_weight : 1.0;
      }

      const std::vector<double>* previous_activation = nullptr;
      std::vector<double> input_activation;  // Materialized a0 when needed.
      for (size_t l = 0; l < num_layers; ++l) {
        Layer& layer = layers_[l];
        LayerScratch& s = scratch[l];
        const size_t out = static_cast<size_t>(layer.out);
        const size_t in = static_cast<size_t>(layer.in);
        s.pre.assign(b * out, 0.0);
        // Affine.
        for (size_t i = 0; i < b; ++i) {
          for (size_t o = 0; o < out; ++o) {
            const double* w = layer.weights.data() + o * in;
            double z = layer.bias[o];
            if (l == 0) {
              const float* x = batch_rows[i];
              for (size_t j = 0; j < in; ++j) z += w[j] * x[j];
            } else {
              const double* x = previous_activation->data() + i * in;
              for (size_t j = 0; j < in; ++j) z += w[j] * x[j];
            }
            s.pre[i * out + o] = z;
          }
        }
        // ReLU.
        s.relu = s.pre;
        for (double& v : s.relu) v = std::max(0.0, v);
        // Batch norm (training statistics).
        s.mean.assign(out, 0.0);
        s.var.assign(out, 0.0);
        s.rhat.assign(b * out, 0.0);
        s.post.assign(b * out, 0.0);
        if (config_.use_batch_norm && b > 1) {
          for (size_t o = 0; o < out; ++o) {
            double mean = 0.0;
            for (size_t i = 0; i < b; ++i) mean += s.relu[i * out + o];
            mean /= static_cast<double>(b);
            double var = 0.0;
            for (size_t i = 0; i < b; ++i) {
              const double d = s.relu[i * out + o] - mean;
              var += d * d;
            }
            var /= static_cast<double>(b);
            s.mean[o] = mean;
            s.var[o] = var;
            layer.running_mean[o] = kBnMomentum * layer.running_mean[o] +
                                    (1.0 - kBnMomentum) * mean;
            layer.running_var[o] = kBnMomentum * layer.running_var[o] +
                                   (1.0 - kBnMomentum) * var;
            const double inv_std = 1.0 / std::sqrt(var + kBnEpsilon);
            for (size_t i = 0; i < b; ++i) {
              const double rhat = (s.relu[i * out + o] - mean) * inv_std;
              s.rhat[i * out + o] = rhat;
              s.post[i * out + o] = layer.gamma[o] * rhat + layer.beta[o];
            }
          }
        } else {
          s.rhat = s.relu;
          s.post = s.relu;
        }
        // Dropout (inverted scaling).
        s.drop_mask.assign(b * out, 1);
        if (config_.dropout > 0.0) {
          for (size_t idx = 0; idx < b * out; ++idx) {
            if (rng.NextBernoulli(config_.dropout)) {
              s.drop_mask[idx] = 0;
              s.post[idx] = 0.0;
            } else {
              s.post[idx] *= inv_keep;
            }
          }
        }
        previous_activation = &s.post;
        (void)input_activation;
      }

      // Output layer.
      const size_t last = static_cast<size_t>(layers_.back().out);
      const std::vector<double>& final_activation = scratch.back().post;
      std::vector<double> margin(b, 0.0);
      std::vector<double> d_margin(b, 0.0);
      for (size_t i = 0; i < b; ++i) {
        double z = out_bias_;
        const double* a = final_activation.data() + i * last;
        for (size_t j = 0; j < last; ++j) z += out_weights_[j] * a[j];
        margin[i] = z;
        const double p = Sigmoid(z);
        // d/dz of weighted L2 loss (p - y)^2 averaged over the batch.
        d_margin[i] = batch_weight[i] * 2.0 * (p - batch_label[i]) * p *
                      (1.0 - p) / static_cast<double>(b);
      }

      // ---- Backward pass ----
      // Output affine.
      std::vector<double> d_out_weights(last, 0.0);
      double d_out_bias = 0.0;
      LayerScratch& top = scratch.back();
      top.d_post.assign(b * last, 0.0);
      for (size_t i = 0; i < b; ++i) {
        const double g = d_margin[i];
        const double* a = final_activation.data() + i * last;
        for (size_t j = 0; j < last; ++j) {
          d_out_weights[j] += g * a[j];
          top.d_post[i * last + j] += g * out_weights_[j];
        }
        d_out_bias += g;
      }

      for (size_t l = num_layers; l-- > 0;) {
        Layer& layer = layers_[l];
        LayerScratch& s = scratch[l];
        const size_t out = static_cast<size_t>(layer.out);
        const size_t in = static_cast<size_t>(layer.in);

        // Dropout backward.
        if (config_.dropout > 0.0) {
          for (size_t idx = 0; idx < b * out; ++idx) {
            s.d_post[idx] =
                s.drop_mask[idx] != 0 ? s.d_post[idx] * inv_keep : 0.0;
          }
        }

        // Batch-norm backward.
        std::vector<double> d_relu(b * out, 0.0);
        std::vector<double> d_gamma(out, 0.0);
        std::vector<double> d_beta(out, 0.0);
        if (config_.use_batch_norm && b > 1) {
          for (size_t o = 0; o < out; ++o) {
            const double inv_std = 1.0 / std::sqrt(s.var[o] + kBnEpsilon);
            double sum_dy = 0.0, sum_dy_rhat = 0.0;
            for (size_t i = 0; i < b; ++i) {
              const double dy = s.d_post[i * out + o];
              sum_dy += dy;
              sum_dy_rhat += dy * s.rhat[i * out + o];
              d_gamma[o] += dy * s.rhat[i * out + o];
              d_beta[o] += dy;
            }
            const double inv_b = 1.0 / static_cast<double>(b);
            for (size_t i = 0; i < b; ++i) {
              const double dy = s.d_post[i * out + o];
              d_relu[i * out + o] =
                  layer.gamma[o] * inv_std *
                  (dy - sum_dy * inv_b - s.rhat[i * out + o] * sum_dy_rhat *
                                             inv_b);
            }
          }
        } else {
          d_relu = s.d_post;
        }

        // ReLU backward.
        s.d_pre.assign(b * out, 0.0);
        for (size_t idx = 0; idx < b * out; ++idx) {
          s.d_pre[idx] = s.pre[idx] > 0.0 ? d_relu[idx] : 0.0;
        }

        // Affine backward.
        std::vector<double> d_weights(out * in, 0.0);
        std::vector<double> d_bias(out, 0.0);
        if (l > 0) {
          scratch[l - 1].d_post.assign(
              b * static_cast<size_t>(layers_[l - 1].out), 0.0);
        }
        for (size_t i = 0; i < b; ++i) {
          for (size_t o = 0; o < out; ++o) {
            const double g = s.d_pre[i * out + o];
            if (g == 0.0) continue;
            double* dw = d_weights.data() + o * in;
            if (l == 0) {
              const float* x = batch_rows[i];
              for (size_t j = 0; j < in; ++j) dw[j] += g * x[j];
            } else {
              const double* x = scratch[l - 1].post.data() + i * in;
              double* dx = scratch[l - 1].d_post.data() + i * in;
              const double* w = layer.weights.data() + o * in;
              for (size_t j = 0; j < in; ++j) {
                dw[j] += g * x[j];
                dx[j] += g * w[j];
              }
            }
            d_bias[o] += g;
          }
        }

        // SGD with momentum.
        auto update = [&](std::vector<double>& param,
                          std::vector<double>& velocity,
                          const std::vector<double>& gradient) {
          for (size_t idx = 0; idx < param.size(); ++idx) {
            velocity[idx] = config_.momentum * velocity[idx] -
                            learning_rate * gradient[idx];
            param[idx] += velocity[idx];
          }
        };
        update(layer.weights, layer.v_weights, d_weights);
        update(layer.bias, layer.v_bias, d_bias);
        if (config_.use_batch_norm && b > 1) {
          update(layer.gamma, layer.v_gamma, d_gamma);
          update(layer.beta, layer.v_beta, d_beta);
        }
      }

      // Output-layer update.
      for (size_t j = 0; j < last; ++j) {
        v_out_weights_[j] = config_.momentum * v_out_weights_[j] -
                            learning_rate * d_out_weights[j];
        out_weights_[j] += v_out_weights_[j];
      }
      v_out_bias_ =
          config_.momentum * v_out_bias_ - learning_rate * d_out_bias;
      out_bias_ += v_out_bias_;
    }
    learning_rate *= config_.learning_rate_decay;
  }
}

double NeuralNetwork::Margin(const float* x) const {
  ALEM_CHECK(trained());
  std::vector<double> activation;
  std::vector<double> next;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const size_t out = static_cast<size_t>(layer.out);
    const size_t in = static_cast<size_t>(layer.in);
    next.assign(out, 0.0);
    for (size_t o = 0; o < out; ++o) {
      const double* w = layer.weights.data() + o * in;
      double z = layer.bias[o];
      if (l == 0) {
        for (size_t j = 0; j < in; ++j) z += w[j] * x[j];
      } else {
        for (size_t j = 0; j < in; ++j) z += w[j] * activation[j];
      }
      z = std::max(0.0, z);  // ReLU.
      if (config_.use_batch_norm) {
        z = layer.gamma[o] * (z - layer.running_mean[o]) /
                std::sqrt(layer.running_var[o] + kBnEpsilon) +
            layer.beta[o];
      }
      next[o] = z;  // No dropout at inference.
    }
    activation.swap(next);
  }
  double z = out_bias_;
  for (size_t j = 0; j < activation.size(); ++j) {
    z += out_weights_[j] * activation[j];
  }
  return z;
}

std::vector<double> NeuralNetwork::InputImportances() const {
  ALEM_CHECK(trained());
  // Propagate absolute output weight backwards through the layers.
  std::vector<double> importance(out_weights_.size());
  for (size_t j = 0; j < out_weights_.size(); ++j) {
    importance[j] = std::abs(out_weights_[j]);
  }
  for (size_t l = layers_.size(); l-- > 0;) {
    const Layer& layer = layers_[l];
    const size_t out = static_cast<size_t>(layer.out);
    const size_t in = static_cast<size_t>(layer.in);
    std::vector<double> previous(in, 0.0);
    for (size_t o = 0; o < out; ++o) {
      // Batch norm rescales each channel by gamma / sqrt(var); without that
      // factor, channels fed by low-variance (uninformative) inputs would
      // look spuriously important.
      const double bn_scale =
          config_.use_batch_norm
              ? std::abs(layer.gamma[o]) /
                    std::sqrt(layer.running_var[o] + kBnEpsilon)
              : 1.0;
      const double scale = importance[o] * bn_scale;
      if (scale == 0.0) continue;
      const double* w = layer.weights.data() + o * in;
      for (size_t j = 0; j < in; ++j) {
        previous[j] += scale * std::abs(w[j]);
      }
    }
    importance.swap(previous);
  }
  return importance;
}

std::vector<size_t> NeuralNetwork::TopImportanceDimensions(size_t k) const {
  const std::vector<double> importance = InputImportances();
  std::vector<size_t> order(importance.size());
  std::iota(order.begin(), order.end(), 0u);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&](size_t a, size_t b) {
                      return importance[a] > importance[b];
                    });
  order.resize(k);
  return order;
}

void NeuralNetwork::MarginBatch(const FeatureMatrix& features,
                                std::span<const size_t> rows,
                                double* out) const {
  ALEM_CHECK(trained());
  // Rows per forward sub-chunk: big enough that each hidden layer's weight
  // matrix is streamed once per ~32 examples instead of once per example,
  // small enough that two activation buffers stay L1/L2-resident.
  constexpr size_t kChunk = 32;
  size_t max_width = 0;
  for (const Layer& layer : layers_) {
    max_width = std::max(max_width, static_cast<size_t>(layer.out));
  }
  // Per-call scratch, allocated once and reused for every chunk. The
  // batch-norm divisors are hoisted per layer so each sqrt is taken once
  // per call instead of once per (unit, example) as in scalar Margin.
  std::vector<double> activation(kChunk * max_width);
  std::vector<double> next(kChunk * max_width);
  const float* x[kChunk];
  std::vector<std::vector<double>> bn_sqrts(layers_.size());
  if (config_.use_batch_norm) {
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      bn_sqrts[l].resize(static_cast<size_t>(layer.out));
      for (size_t o = 0; o < bn_sqrts[l].size(); ++o) {
        bn_sqrts[l][o] = std::sqrt(layer.running_var[o] + kBnEpsilon);
      }
    }
  }
  // SIMD backends vectorize the affine kernel across units, which wants
  // unit-contiguous weights: build one [in x out] transposed copy per
  // layer per call (amortized over every chunk of the batch).
  const kernels::KernelOps& ops = kernels::Active();
  std::vector<std::vector<double>> transposed(layers_.size());
  if (ops.nn_wants_transpose) {
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const size_t out_width = static_cast<size_t>(layer.out);
      const size_t in_width = static_cast<size_t>(layer.in);
      transposed[l].resize(in_width * out_width);
      for (size_t o = 0; o < out_width; ++o) {
        for (size_t j = 0; j < in_width; ++j) {
          transposed[l][j * out_width + o] = layer.weights[o * in_width + j];
        }
      }
    }
  }

  for (size_t base = 0; base < rows.size(); base += kChunk) {
    const size_t b = std::min(kChunk, rows.size() - base);
    for (size_t i = 0; i < b; ++i) x[i] = features.Row(rows[base + i]);

    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const size_t out_width = static_cast<size_t>(layer.out);
      const size_t in_width = static_cast<size_t>(layer.in);
      // Row-outer / unit-inner: EM networks are narrow, so the layer's
      // whole weight matrix stays cache-resident across the chunk while
      // each example's input row stays in L1 for all of its units. The
      // affine part is backend-dispatched; every backend accumulates each
      // unit from bias through w[j] * x[j] in ascending j — the scalar
      // Margin order — and ReLU plus inference batch-norm stay scalar per
      // (row, unit) (the divisor stays a division by the hoisted sqrt), so
      // every intermediate double is bitwise-identical to the scalar pass.
      const double* wt =
          ops.nn_wants_transpose ? transposed[l].data() : nullptr;
      for (size_t i = 0; i < b; ++i) {
        const double* a = activation.data() + i * in_width;
        double* n = next.data() + i * out_width;
        if (l == 0) {
          ops.nn_affine_f32(layer.weights.data(), wt, layer.bias.data(),
                            in_width, out_width, x[i], n);
        } else {
          ops.nn_affine_f64(layer.weights.data(), wt, layer.bias.data(),
                            in_width, out_width, a, n);
        }
        for (size_t o = 0; o < out_width; ++o) {
          double z = std::max(0.0, n[o]);  // ReLU.
          if (config_.use_batch_norm) {
            z = layer.gamma[o] * (z - layer.running_mean[o]) / bn_sqrts[l][o] +
                layer.beta[o];
          }
          n[o] = z;  // No dropout at inference.
        }
      }
      activation.swap(next);
    }

    const size_t last = static_cast<size_t>(layers_.back().out);
    for (size_t i = 0; i < b; ++i) {
      double z = out_bias_;
      const double* a = activation.data() + i * last;
      for (size_t j = 0; j < last; ++j) z += out_weights_[j] * a[j];
      out[base + i] = z;
    }
  }
}

double NeuralNetwork::PredictProbability(const float* x) const {
  return Sigmoid(Margin(x));
}

void NeuralNetwork::ProbaBatch(const FeatureMatrix& features,
                               std::span<const size_t> rows,
                               double* out) const {
  MarginBatch(features, rows, out);
  for (size_t i = 0; i < rows.size(); ++i) out[i] = Sigmoid(out[i]);
}

int NeuralNetwork::Predict(const float* x) const {
  return PredictProbability(x) > 0.5 ? 1 : 0;
}

void NeuralNetwork::PredictBatch(const FeatureMatrix& features,
                                 std::span<const size_t> rows,
                                 int* out) const {
  constexpr size_t kBlock = 64;
  double proba[kBlock];
  for (size_t base = 0; base < rows.size(); base += kBlock) {
    const size_t b = std::min(kBlock, rows.size() - base);
    ProbaBatch(features, rows.subspan(base, b), proba);
    for (size_t r = 0; r < b; ++r) out[base + r] = proba[r] > 0.5 ? 1 : 0;
  }
}

std::vector<int> NeuralNetwork::PredictAll(
    const FeatureMatrix& features) const {
  std::vector<int> predictions(features.rows());
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  PredictBatch(features, rows, predictions.data());
  return predictions;
}

}  // namespace alem
