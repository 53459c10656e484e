#include "ml/neural_net.h"

#include <algorithm>
#include <cmath>
#include <memory_resource>
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
  const size_t input_dims = static_cast<size_t>(layers_.front().in);
  const double inv_keep = 1.0 / std::max(1e-9, 1.0 - config_.dropout);
  // The affine passes run through the kernel backend: the forward affine
  // in row blocks and the weight gradient per mini-batch, both in the
  // scalar accumulation order (docs/kernels.md), so every backend trains
  // the same bits.
  const kernels::KernelOps& ops = kernels::Active();

  // Forward/backward scratch for one mini-batch, sized by the first
  // mini-batch and reused by every later one. All of it comes from one
  // arena sized for that working set, so a fit makes one heap allocation
  // for its scratch instead of one per buffer (the heap then has fewer
  // blocks to place around a session's multi-megabyte feature matrices;
  // EXPERIMENTS.md measures the effect on cold-pause peak RSS).
  using Buffer = std::pmr::vector<double>;
  struct LayerScratch {
    explicit LayerScratch(std::pmr::memory_resource* arena)
        : in_rows(arena), pre(arena), relu(arena), rhat(arena), post(arena),
          mean(arena), var(arena), inv_std(arena), keep(arena),
          d_post(arena), d_relu(arena), d_pre(arena), d_weights(arena),
          d_bias(arena), d_gamma(arena), d_beta(arena) {}
    std::pmr::vector<const double*> in_rows;  // Layer input, one per row.
    Buffer pre;     // Affine output z.
    Buffer relu;    // ReLU(z) = r.
    Buffer rhat;    // Normalized r (batch norm only).
    Buffer post;    // Layer output (after BN + dropout).
    Buffer mean, var, inv_std;  // Batch-norm statistics.
    Buffer keep;    // Dropout: 1.0 kept, 0.0 dropped.
    Buffer d_post;  // Gradient wrt layer output.
    Buffer d_relu;  // Gradient wrt r.
    Buffer d_pre;   // Gradient wrt z.
    Buffer d_weights, d_bias, d_gamma, d_beta;
  };
  // The arena holds, per layer, 8 row-by-unit buffers, 6 per-unit ones, the
  // weight gradient and the row pointers; then a0, three per-row vectors
  // and the output gradient; and every buffer's alignment padding. An
  // undersized arena would only take a second block.
  constexpr size_t kAlign = alignof(std::max_align_t);
  const size_t rows = std::min(batch_size, n);
  size_t arena_bytes =
      (rows * (input_dims + 3) + static_cast<size_t>(layers_.back().out)) *
          sizeof(double) +
      8 * kAlign;
  for (const Layer& layer : layers_) {
    const size_t out = static_cast<size_t>(layer.out);
    arena_bytes +=
        (rows * 8 * out + out * (6 + static_cast<size_t>(layer.in))) *
            sizeof(double) +
        rows * sizeof(const double*) + sizeof(LayerScratch) + 16 * kAlign;
  }
  std::pmr::monotonic_buffer_resource arena(arena_bytes);
  std::pmr::vector<LayerScratch> scratch(&arena);
  scratch.reserve(num_layers);
  for (size_t l = 0; l < num_layers; ++l) scratch.emplace_back(&arena);
  Buffer batch_input(&arena);  // a0: the mini-batch rows as doubles.
  Buffer batch_weight(&arena);
  Buffer batch_label(&arena);
  Buffer d_margin(&arena);
  Buffer d_out_weights(&arena);

  double learning_rate = initial_learning_rate;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += batch_size) {
      const size_t b = std::min(batch_size, n - start);

      // ---- Forward pass ----
      // a0: the mini-batch inputs, row-major [b x input_dims], converted to
      // double once (exactly) for the forward and the gradient kernels.
      batch_input.resize(b * input_dims);
      batch_weight.resize(b);
      batch_label.resize(b);
      for (size_t i = 0; i < b; ++i) {
        const size_t row = order[start + i];
        const float* x = features.Row(row);
        std::copy(x, x + input_dims, batch_input.data() + i * input_dims);
        batch_label[i] = labels[row] == 1 ? 1.0 : 0.0;
        batch_weight[i] = labels[row] == 1 ? positive_weight : 1.0;
      }

      for (size_t l = 0; l < num_layers; ++l) {
        Layer& layer = layers_[l];
        LayerScratch& s = scratch[l];
        const size_t out = static_cast<size_t>(layer.out);
        const size_t in = static_cast<size_t>(layer.in);
        const double* input =
            l == 0 ? batch_input.data() : scratch[l - 1].post.data();
        s.in_rows.resize(b);
        for (size_t i = 0; i < b; ++i) s.in_rows[i] = input + i * in;
        // Affine.
        s.pre.resize(b * out);
        for (size_t r0 = 0; r0 < b; r0 += kernels::kNnRowBlock) {
          ops.nn_affine_block_f64(layer.weights.data(), layer.bias.data(), in,
                                  out, s.in_rows.data() + r0,
                                  std::min(kernels::kNnRowBlock, b - r0),
                                  s.pre.data() + r0 * out);
        }
        // ReLU.
        s.relu = s.pre;
        for (double& v : s.relu) v = std::max(0.0, v);
        // Batch norm (training statistics). Each unit's sums run over the
        // rows in ascending order, accumulated row by row so that the inner
        // loops run across units.
        if (config_.use_batch_norm && b > 1) {
          s.mean.assign(out, 0.0);
          for (size_t i = 0; i < b; ++i) {
            const double* r = s.relu.data() + i * out;
            for (size_t o = 0; o < out; ++o) s.mean[o] += r[o];
          }
          for (double& mean : s.mean) mean /= static_cast<double>(b);
          s.var.assign(out, 0.0);
          for (size_t i = 0; i < b; ++i) {
            const double* r = s.relu.data() + i * out;
            for (size_t o = 0; o < out; ++o) {
              const double d = r[o] - s.mean[o];
              s.var[o] += d * d;
            }
          }
          s.inv_std.resize(out);
          for (size_t o = 0; o < out; ++o) {
            s.var[o] /= static_cast<double>(b);
            layer.running_mean[o] = kBnMomentum * layer.running_mean[o] +
                                    (1.0 - kBnMomentum) * s.mean[o];
            layer.running_var[o] = kBnMomentum * layer.running_var[o] +
                                   (1.0 - kBnMomentum) * s.var[o];
            s.inv_std[o] = 1.0 / std::sqrt(s.var[o] + kBnEpsilon);
          }
          s.rhat.resize(b * out);
          s.post.resize(b * out);
          for (size_t i = 0; i < b; ++i) {
            const size_t row = i * out;
            for (size_t o = 0; o < out; ++o) {
              const double rhat = (s.relu[row + o] - s.mean[o]) * s.inv_std[o];
              s.rhat[row + o] = rhat;
              s.post[row + o] = layer.gamma[o] * rhat + layer.beta[o];
            }
          }
        } else {
          s.post = s.relu;
        }
        // Dropout (inverted scaling). The draws come first, in element
        // order. The masking selects before it scales, so the loop has no
        // branch (the draws are coin flips) and a dropped unit is
        // 0.0 * inv_keep = +0.0, exactly as if it were zeroed.
        if (config_.dropout > 0.0) {
          s.keep.resize(b * out);
          for (double& keep : s.keep) {
            keep = rng.NextBernoulli(config_.dropout) ? 0.0 : 1.0;
          }
          for (size_t idx = 0; idx < b * out; ++idx) {
            const double post = s.post[idx];
            s.post[idx] = (s.keep[idx] != 0.0 ? post : 0.0) * inv_keep;
          }
        }
      }

      // Output layer.
      const size_t last = static_cast<size_t>(layers_.back().out);
      const Buffer& final_activation = scratch.back().post;
      d_margin.resize(b);
      for (size_t i = 0; i < b; ++i) {
        double z = out_bias_;
        const double* a = final_activation.data() + i * last;
        for (size_t j = 0; j < last; ++j) z += out_weights_[j] * a[j];
        const double p = Sigmoid(z);
        // d/dz of weighted L2 loss (p - y)^2 averaged over the batch.
        d_margin[i] = batch_weight[i] * 2.0 * (p - batch_label[i]) * p *
                      (1.0 - p) / static_cast<double>(b);
      }

      // ---- Backward pass ----
      // Output affine.
      d_out_weights.assign(last, 0.0);
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

        // Dropout backward, masked like the forward pass.
        if (config_.dropout > 0.0) {
          for (size_t idx = 0; idx < b * out; ++idx) {
            const double d_post = s.d_post[idx];
            s.d_post[idx] = (s.keep[idx] != 0.0 ? d_post : 0.0) * inv_keep;
          }
        }

        // Batch-norm backward, row by row like the forward statistics. The
        // gamma and beta gradients are the per-unit sums the input gradient
        // needs.
        if (config_.use_batch_norm && b > 1) {
          s.d_beta.assign(out, 0.0);
          s.d_gamma.assign(out, 0.0);
          for (size_t i = 0; i < b; ++i) {
            const size_t row = i * out;
            for (size_t o = 0; o < out; ++o) {
              const double dy = s.d_post[row + o];
              s.d_beta[o] += dy;
              s.d_gamma[o] += dy * s.rhat[row + o];
            }
          }
          const double inv_b = 1.0 / static_cast<double>(b);
          s.d_relu.resize(b * out);
          for (size_t i = 0; i < b; ++i) {
            const size_t row = i * out;
            for (size_t o = 0; o < out; ++o) {
              const double dy = s.d_post[row + o];
              s.d_relu[row + o] =
                  layer.gamma[o] * s.inv_std[o] *
                  (dy - s.d_beta[o] * inv_b -
                   s.rhat[row + o] * s.d_gamma[o] * inv_b);
            }
          }
        } else {
          s.d_relu = s.d_post;
        }

        // ReLU backward.
        s.d_pre.resize(b * out);
        for (size_t idx = 0; idx < b * out; ++idx) {
          const double d_relu = s.d_relu[idx];
          s.d_pre[idx] = s.pre[idx] > 0.0 ? d_relu : 0.0;
        }

        // Affine backward: the weight gradient in the kernel, then the bias
        // and input gradients over the same nonzero entries of d_pre.
        s.d_weights.resize(out * in);
        ops.nn_weight_grad(s.d_pre.data(), b, out, s.in_rows.data(), in,
                           s.d_weights.data());
        s.d_bias.assign(out, 0.0);
        if (l > 0) scratch[l - 1].d_post.assign(b * in, 0.0);
        for (size_t i = 0; i < b; ++i) {
          for (size_t o = 0; o < out; ++o) {
            const double g = s.d_pre[i * out + o];
            if (g == 0.0) continue;
            if (l > 0) {
              double* dx = scratch[l - 1].d_post.data() + i * in;
              const double* w = layer.weights.data() + o * in;
              for (size_t j = 0; j < in; ++j) dx[j] += g * w[j];
            }
            s.d_bias[o] += g;
          }
        }

        // SGD with momentum. The factors are locals so the compiler knows
        // the parameter stores cannot change them and vectorizes the loop.
        auto update = [momentum = config_.momentum, learning_rate](
                          std::vector<double>& param,
                          std::vector<double>& velocity,
                          const Buffer& gradient) {
          double* p = param.data();
          double* v = velocity.data();
          const double* g = gradient.data();
          for (size_t idx = 0; idx < param.size(); ++idx) {
            v[idx] = momentum * v[idx] - learning_rate * g[idx];
            p[idx] += v[idx];
          }
        };
        update(layer.weights, layer.v_weights, s.d_weights);
        update(layer.bias, layer.v_bias, s.d_bias);
        if (config_.use_batch_norm && b > 1) {
          update(layer.gamma, layer.v_gamma, s.d_gamma);
          update(layer.beta, layer.v_beta, s.d_beta);
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
  // Rows per forward sub-chunk: each hidden layer runs over the whole chunk
  // before the next one starts, so its weight matrix stays cache-resident
  // while the kernel streams it once per row block; two activation buffers
  // of the chunk stay L1/L2-resident.
  constexpr size_t kChunk = 32;
  constexpr size_t kBlock = kernels::kNnRowBlock;
  size_t max_width = 0;
  for (const Layer& layer : layers_) {
    max_width = std::max(max_width, static_cast<size_t>(layer.out));
  }
  // Per-call scratch in one allocation, reused for every chunk: two
  // activation buffers of the chunk, then the batch-norm divisors of every
  // layer, hoisted so each sqrt is taken once per call instead of once per
  // (unit, example) as in scalar Margin.
  size_t units = 0;
  for (const Layer& layer : layers_) units += static_cast<size_t>(layer.out);
  std::vector<double> scratch(2 * kChunk * max_width + units);
  double* activation = scratch.data();
  double* next = activation + kChunk * max_width;
  double* const bn_sqrts = next + kChunk * max_width;
  if (config_.use_batch_norm) {
    double* sqrts = bn_sqrts;
    for (const Layer& layer : layers_) {
      for (const double var : layer.running_var) {
        *sqrts++ = std::sqrt(var + kBnEpsilon);
      }
    }
  }
  const float* x[kChunk];
  const double* a[kChunk];
  const kernels::KernelOps& ops = kernels::Active();

  for (size_t base = 0; base < rows.size(); base += kChunk) {
    const size_t b = std::min(kChunk, rows.size() - base);
    for (size_t i = 0; i < b; ++i) x[i] = features.Row(rows[base + i]);

    const double* layer_sqrts = bn_sqrts;
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const size_t out_width = static_cast<size_t>(layer.out);
      const size_t in_width = static_cast<size_t>(layer.in);
      // The affine part is backend-dispatched, one row block per call, and
      // accumulates each unit from bias through w[j] * x[j] in ascending
      // j — the scalar Margin order — and ReLU plus inference batch-norm
      // stay scalar per (row, unit) (the divisor stays a division by the
      // hoisted sqrt), so every intermediate double is bitwise-identical to
      // the scalar pass.
      if (l > 0) {
        for (size_t i = 0; i < b; ++i) a[i] = activation + i * in_width;
      }
      for (size_t r0 = 0; r0 < b; r0 += kBlock) {
        const size_t nrows = std::min(kBlock, b - r0);
        double* z = next + r0 * out_width;
        if (l == 0) {
          ops.nn_affine_block_f32(layer.weights.data(), layer.bias.data(),
                                  in_width, out_width, x + r0, nrows, z);
        } else {
          ops.nn_affine_block_f64(layer.weights.data(), layer.bias.data(),
                                  in_width, out_width, a + r0, nrows, z);
        }
      }
      for (size_t i = 0; i < b; ++i) {
        double* z = next + i * out_width;
        for (size_t o = 0; o < out_width; ++o) {
          double v = std::max(0.0, z[o]);  // ReLU.
          if (config_.use_batch_norm) {
            v = layer.gamma[o] * (v - layer.running_mean[o]) / layer_sqrts[o] +
                layer.beta[o];
          }
          z[o] = v;  // No dropout at inference.
        }
      }
      layer_sqrts += out_width;
      std::swap(activation, next);
    }

    const size_t last = static_cast<size_t>(layers_.back().out);
    for (size_t i = 0; i < b; ++i) {
      double z = out_bias_;
      const double* act = activation + i * last;
      for (size_t j = 0; j < last; ++j) z += out_weights_[j] * act[j];
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
