// LinearSvm training pinned against its pre-kernel reference.
//
// ReferenceSvm below keeps the Pegasos loop that LinearSvm ran before its
// fits moved to the kernel backend (svm_pegasos): Fit, FitWarm and RunSgd
// are kept verbatim, on a struct with the same members, plus one counter
// of projections so a test can show that its configuration projects
// often. Every test trains both and compares the serialized models bit
// for bit: after Fit, after FitWarm, and for bootstrap committees fitted
// in lane groups (SvmLearner::FitCommitteeGroup, LinearSvm::FitGroup)
// against each member fitted alone by the reference on its gathered rows.
// ctest runs this binary once per compiled-in backend
// (ml_svm_reference_<backend>_test, label `kernels`), so every backend must
// train exactly the reference's bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/learner.h"
#include "kernels/backend.h"
#include "ml/linear_svm.h"
#include "ml/serialization.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {
namespace {

uint64_t WarmSeed(uint64_t seed, size_t n) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(n) + 1));
}

// The members LinearSvm's training touches, under the same names.
struct ReferenceSvm {
  explicit ReferenceSvm(const LinearSvmConfig& config) : config_(config) {}

  void Fit(const FeatureMatrix& features, const std::vector<int>& labels);
  bool FitWarm(const FeatureMatrix& features, const std::vector<int>& labels);
  void RunSgd(const FeatureMatrix& features, const std::vector<int>& labels,
              size_t epochs, uint64_t t_offset, uint64_t rng_seed,
              bool average_tail);
  bool trained() const { return !weights_.empty(); }

  // The model in LinearSvm's serialized form (format version 1), as
  // SerializeSvm writes it.
  std::string Serialized() const;

  LinearSvmConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  size_t projections = 0;  // Test-only: steps that projected.
};

// ---- Reference: the Pegasos loop before the kernel backend -------------

void ReferenceSvm::Fit(const FeatureMatrix& features,
                       const std::vector<int>& labels) {
  weights_.assign(features.dims(), 0.0);
  bias_ = 0.0;
  RunSgd(features, labels, static_cast<size_t>(config_.epochs),
         static_cast<uint64_t>(config_.t0), config_.seed,
         /*average_tail=*/false);
}

bool ReferenceSvm::FitWarm(const FeatureMatrix& features,
                           const std::vector<int>& labels) {
  if (!trained() || weights_.size() != features.dims()) return false;
  const size_t n = features.rows();
  const uint64_t t_offset = static_cast<uint64_t>(config_.t0) +
                            static_cast<uint64_t>(config_.warm_epochs) * n;
  RunSgd(features, labels, static_cast<size_t>(config_.warm_epochs), t_offset,
         WarmSeed(config_.seed, n), /*average_tail=*/true);
  return true;
}

void ReferenceSvm::RunSgd(const FeatureMatrix& features,
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
      ++projections;
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

std::string ReferenceSvm::Serialized() const {
  std::ostringstream out;
  out.precision(17);
  out << "alem-svm\n1\n"
      << config_.lambda << '\n'
      << config_.t0 << '\n'
      << config_.epochs << '\n'
      << (config_.balance_classes ? 1 : 0) << '\n'
      << config_.seed << '\n'
      << weights_.size();
  for (const double w : weights_) out << ' ' << w;
  out << '\n' << bias_ << '\n';
  return out.str();
}

// ---- Problems ----------------------------------------------------------

struct Problem {
  FeatureMatrix features;
  std::vector<int> labels;
};

// Similarity-like features: mostly in [0, 1] with many exact zeros, and
// about one row in five positive; with `signed_values`, negative values
// too, so -0.0 products occur. A `noisy` problem has features up to 8 and
// labels independent of them, so the hinge step keeps firing.
Problem MakeProblem(size_t n, size_t d, uint64_t seed, bool signed_values,
                    bool noisy = false) {
  Rng rng(seed);
  const float magnitude = noisy ? 8.0f : 1.0f;
  Problem problem;
  problem.features = FeatureMatrix(n, d);
  problem.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = rng.NextBernoulli(noisy ? 0.5 : 0.2);
    problem.labels[i] = positive ? 1 : 0;
    for (size_t j = 0; j < d; ++j) {
      float value = 0.0f;
      if (!rng.NextBernoulli(0.3)) {
        value = static_cast<float>(rng.NextDouble()) * magnitude;
        if (positive && !noisy && j % 3 == 0) value = 1.0f - value * 0.2f;
        if (signed_values && rng.NextBernoulli(0.5)) value = -value;
      }
      problem.features.Set(i, j, value);
    }
  }
  return problem;
}

// Config variants: the default, unbalanced sampling, and a short
// schedule with a weak regularizer that starts at t = 1, under which a
// hinge step on a noisy problem overshoots the ball of radius
// 1/sqrt(lambda), so most steps project.
std::vector<LinearSvmConfig> Configs() {
  LinearSvmConfig base;
  base.seed = 17;
  LinearSvmConfig unbalanced = base;
  unbalanced.balance_classes = false;
  unbalanced.seed = 23;
  LinearSvmConfig projecting = base;
  projecting.lambda = 1e-4;
  projecting.t0 = 1;
  projecting.epochs = 20;
  projecting.seed = 29;
  return {base, unbalanced, projecting};
}

bool Projecting(const LinearSvmConfig& config) {
  return config.lambda < 1e-3;
}

const size_t kRows[] = {1, 2, 7, 30, 165};
const size_t kWidths[] = {1, 3, 4, 5, 189};

// ---- Single fits: Fit and FitWarm --------------------------------------

TEST(SvmReferenceTest, FitAndFitWarmMatchReference) {
  for (const LinearSvmConfig& config : Configs()) {
    for (const size_t n : kRows) {
      for (const size_t d : kWidths) {
        SCOPED_TRACE("lambda " + std::to_string(config.lambda) + " balance " +
                     std::to_string(config.balance_classes) + " n " +
                     std::to_string(n) + " d " + std::to_string(d) +
                     " backend " + std::string(kernels::BackendName()));
        const bool signed_values = d % 2 == 1;
        const Problem first = MakeProblem(n, d, 100 + n * 7 + d,
                                          signed_values, Projecting(config));
        const Problem grown = MakeProblem(n + 3, d, 200 + n * 7 + d,
                                          signed_values, Projecting(config));
        ReferenceSvm reference(config);
        LinearSvm model(config);
        reference.Fit(first.features, first.labels);
        model.Fit(first.features, first.labels);
        ASSERT_EQ(SerializeSvm(model), reference.Serialized());

        ASSERT_TRUE(reference.FitWarm(grown.features, grown.labels));
        ASSERT_TRUE(model.FitWarm(grown.features, grown.labels));
        ASSERT_EQ(SerializeSvm(model), reference.Serialized());
      }
    }
  }
}

// The projecting configuration really projects on most steps, so the
// AVX2 body's second pass is pinned above, not just reachable.
TEST(SvmReferenceTest, ProjectingConfigProjectsOften) {
  const Problem problem = MakeProblem(30, 189, 5, false, /*noisy=*/true);
  const LinearSvmConfig config = Configs()[2];
  ReferenceSvm reference(config);
  reference.Fit(problem.features, problem.labels);
  const size_t steps = static_cast<size_t>(config.epochs) * 30;
  EXPECT_GT(reference.projections, steps / 2);
  LinearSvm model(config);
  model.Fit(problem.features, problem.labels);
  EXPECT_EQ(SerializeSvm(model), reference.Serialized());
}

// ---- Committees: lane groups -------------------------------------------

// A bootstrap committee the way FitBootstrapCommittee draws one: member
// m resamples the labeled rows with replacement from its own stream.
std::vector<CommitteeSample> DrawCommittee(const Problem& pool,
                                           size_t members, uint64_t seed) {
  const size_t n = pool.labels.size();
  Rng rng(seed);
  std::vector<CommitteeSample> samples(members);
  for (CommitteeSample& sample : samples) {
    sample.rows = rng.SampleWithReplacement(n, n);
    for (const size_t row : sample.rows) {
      sample.labels.push_back(pool.labels[row]);
    }
    sample.seed = rng.Next();
  }
  return samples;
}

// Fits `samples` with SvmLearner's lane groups and checks every member
// against the reference fitted alone on its gathered rows.
void ExpectCommitteeMatchesReference(const Problem& pool,
                                     const LinearSvmConfig& config,
                                     const std::vector<CommitteeSample>&
                                         samples) {
  const SvmLearner learner(config);
  const size_t group = learner.CommitteeGroupSize();
  ASSERT_EQ(group, kernels::kSvmLanes);
  std::vector<std::unique_ptr<Learner>> committee(samples.size());
  for (size_t first = 0; first < samples.size(); first += group) {
    const size_t count = std::min(group, samples.size() - first);
    learner.FitCommitteeGroup(
        pool.features,
        std::span<const CommitteeSample>(samples).subspan(first, count),
        committee.data() + first);
  }
  for (size_t m = 0; m < samples.size(); ++m) {
    SCOPED_TRACE("member " + std::to_string(m));
    LinearSvmConfig member_config = config;
    member_config.seed = samples[m].seed;
    ReferenceSvm reference(member_config);
    reference.Fit(pool.features.Gather(samples[m].rows), samples[m].labels);
    ASSERT_NE(committee[m], nullptr);
    ASSERT_EQ(committee[m]->SaveModel(), reference.Serialized());
  }
}

// Committee sizes 1-9: full groups of four, every remainder, and groups
// of one (the scalar body), over every sample size and width.
TEST(SvmReferenceTest, CommitteeGroupsMatchReference) {
  const std::vector<LinearSvmConfig> configs = Configs();
  for (const size_t n : kRows) {
    for (const size_t d : kWidths) {
      const Problem pool = MakeProblem(n, d, 300 + n + d, d % 2 == 1);
      for (size_t members = 1; members <= 9; ++members) {
        const LinearSvmConfig& config = configs[members % 2];
        SCOPED_TRACE("n " + std::to_string(n) + " d " + std::to_string(d) +
                     " members " + std::to_string(members) + " backend " +
                     std::string(kernels::BackendName()));
        ExpectCommitteeMatchesReference(
            pool, config, DrawCommittee(pool, members, 7 * members + n));
      }
    }
  }
}

TEST(SvmReferenceTest, ProjectingCommitteeMatchesReference) {
  const Problem pool = MakeProblem(30, 189, 41, true, /*noisy=*/true);
  ExpectCommitteeMatchesReference(pool, Configs()[2],
                                  DrawCommittee(pool, 9, 43));
}

// One lane's bootstrap sample holds a single class, so only that lane
// samples unbalanced while its neighbours draw a class first.
TEST(SvmReferenceTest, OneClassLaneSamplesUnbalanced) {
  const Problem pool = MakeProblem(30, 189, 51, false);
  std::vector<CommitteeSample> samples = DrawCommittee(pool, 4, 53);
  std::vector<size_t> negatives;
  for (size_t row = 0; row < pool.labels.size(); ++row) {
    if (pool.labels[row] == 0) negatives.push_back(row);
  }
  ASSERT_FALSE(negatives.empty());
  CommitteeSample& lane = samples[2];
  for (size_t i = 0; i < lane.rows.size(); ++i) {
    lane.rows[i] = negatives[i % negatives.size()];
    lane.labels[i] = 0;
  }
  for (size_t m = 0; m < samples.size(); ++m) {
    const bool both = std::count(samples[m].labels.begin(),
                                 samples[m].labels.end(), 1) > 0 &&
                      std::count(samples[m].labels.begin(),
                                 samples[m].labels.end(), 0) > 0;
    EXPECT_EQ(both, m != 2) << "member " << m;
  }
  ExpectCommitteeMatchesReference(pool, Configs()[0], samples);
}

// Each member of a lane group is one fit in ml.fit_calls and
// ml.cold_fits, as it was when every member ran Learner::Fit.
TEST(SvmReferenceTest, CommitteeGroupCountsOneFitPerMember) {
  const Problem pool = MakeProblem(30, 5, 61, false);
  const std::vector<CommitteeSample> samples = DrawCommittee(pool, 3, 63);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::SetMetricsEnabled(true);
  const SvmLearner learner;
  std::vector<std::unique_ptr<Learner>> committee(samples.size());
  learner.FitCommitteeGroup(pool.features, samples, committee.data());
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(registry.GetCounter("ml.fit_calls").value(), 3u);
  EXPECT_EQ(registry.GetCounter("ml.cold_fits").value(), 3u);
  EXPECT_EQ(registry.GetCounter("ml.warm_fits").value(), 0u);
  registry.ResetAll();
}

}  // namespace
}  // namespace alem
