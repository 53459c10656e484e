#include "core/selector.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "obs/obs.h"
#include "parallel/pool.h"
#include "util/check.h"

namespace alem {
namespace {

// Rows per ParallelFor chunk when scoring the unlabeled pool. Small enough
// to load-balance across workers, large enough to amortize dispatch.
constexpr size_t kScoringGrain = 256;

// Scored candidate with a random key for tie-breaking; sorting is by
// (score, tie) so equal scores resolve uniformly at random.
struct ScoredRow {
  size_t row;
  double score;
  uint64_t tie;
};

// Picks the k candidates with the *largest* score.
std::vector<size_t> TopKLargest(std::vector<ScoredRow>& scored, size_t k) {
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), [](const ScoredRow& a, const ScoredRow& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.tie < b.tie;
                    });
  std::vector<size_t> rows(k);
  for (size_t i = 0; i < k; ++i) rows[i] = scored[i].row;
  return rows;
}

// Picks the k candidates with the *smallest* score.
std::vector<size_t> TopKSmallest(std::vector<ScoredRow>& scored, size_t k) {
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), [](const ScoredRow& a, const ScoredRow& b) {
                      if (a.score != b.score) return a.score < b.score;
                      return a.tie < b.tie;
                    });
  std::vector<size_t> rows(k);
  for (size_t i = 0; i < k; ++i) rows[i] = scored[i].row;
  return rows;
}

// Metrics shared by all selectors: #examples fully scored and #examples
// skipped by selection-time blocking (paper Section 5.1).
void CountScored(size_t scored) {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("selector.scored_examples");
  counter.Add(scored);
}

void CountPruned(size_t pruned) {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("blocking.pruned");
  counter.Add(pruned);
}

// Bootstrap-fits a committee of `committee_size` clones of `model`, one
// pool task per group of members. A group runs on one worker, so it holds
// at most model.CommitteeGroupSize() members and no more than it takes to
// hand every pool worker a task: a committee no larger than the pool fits
// one member per task. Each member's resample and learner seed come from
// MemberSeeds(round_seed, m), and no member's fit depends on its group, so
// the result is identical at every thread count.
std::vector<std::unique_ptr<Learner>> FitBootstrapCommittee(
    const Learner& model, const ActivePool& pool, int committee_size,
    uint64_t round_seed) {
  const std::vector<size_t> labeled_rows = pool.ActiveLabeledRows();
  const std::vector<int> labeled_labels = pool.ActiveLabeledLabels();
  ALEM_CHECK(!labeled_rows.empty());

  const size_t size = static_cast<size_t>(committee_size);
  const size_t workers = static_cast<size_t>(parallel::NumThreads());
  const size_t group = std::min(model.CommitteeGroupSize(),
                                (size + workers - 1) / workers);
  ALEM_CHECK_GE(group, 1u);
  std::vector<std::unique_ptr<Learner>> committee(size);
  parallel::ParallelFor(
      0, (size + group - 1) / group, 1,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        for (size_t g = begin; g < end; ++g) {
          const size_t first = g * group;
          std::vector<CommitteeSample> samples(std::min(group, size - first));
          for (size_t i = 0; i < samples.size(); ++i) {
            const CommitteeMemberSeeds seeds =
                MemberSeeds(round_seed, static_cast<int>(first + i));
            Rng member_rng(seeds.resample_seed);
            const std::vector<size_t> draws = member_rng.SampleWithReplacement(
                labeled_rows.size(), labeled_rows.size());
            CommitteeSample& sample = samples[i];
            sample.rows.resize(draws.size());
            sample.labels.resize(draws.size());
            for (size_t k = 0; k < draws.size(); ++k) {
              sample.rows[k] = labeled_rows[draws[k]];
              sample.labels[k] = labeled_labels[draws[k]];
            }
            sample.seed = seeds.learner_seed;
          }
          model.FitCommitteeGroup(pool.features(), samples,
                                  committee.data() + first);
        }
      },
      "selector.committee");
  return committee;
}

}  // namespace

CommitteeMemberSeeds MemberSeeds(uint64_t round_seed, int member) {
  std::seed_seq sequence{static_cast<uint32_t>(round_seed),
                         static_cast<uint32_t>(round_seed >> 32),
                         static_cast<uint32_t>(member)};
  uint32_t words[4];
  sequence.generate(words, words + 4);
  CommitteeMemberSeeds seeds;
  seeds.resample_seed = words[0] | (uint64_t{words[1]} << 32);
  seeds.learner_seed = words[2] | (uint64_t{words[3]} << 32);
  return seeds;
}

// ---- RandomSelector ----

std::vector<size_t> RandomSelector::Select(const Learner& model,
                                           const ActivePool& pool, size_t k,
                                           SelectionTiming* timing) {
  (void)model;
  obs::ObsSpan scoring_span("selector.scoring", "selector", "Random");
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  const size_t take = std::min(k, unlabeled.size());
  std::vector<size_t> picks =
      rng_.SampleWithoutReplacement(unlabeled.size(), take);
  std::vector<size_t> rows(take);
  for (size_t i = 0; i < take; ++i) rows[i] = unlabeled[picks[i]];
  const double scoring_seconds = scoring_span.Close();
  if (timing != nullptr) {
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = 0;
  }
  return rows;
}

bool RandomSelector::CompatibleWith(const Learner& model) const {
  (void)model;
  return true;
}

// ---- QbcSelector ----

QbcSelector::QbcSelector(int committee_size, uint64_t seed)
    : committee_size_(committee_size), rng_(seed) {
  ALEM_CHECK_GE(committee_size, 2);
  name_ = "QBC(" + std::to_string(committee_size) + ")";
}

std::vector<size_t> QbcSelector::Select(const Learner& model,
                                        const ActivePool& pool, size_t k,
                                        SelectionTiming* timing) {
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  if (unlabeled.empty()) return {};

  // Committee creation: bootstrap-resample the labeled data and train one
  // clone per member (one pool task each). This is the dominant cost of
  // learner-agnostic QBC (dashed lines in Fig. 10a-b).
  obs::ObsSpan committee_span("selector.committee", "selector", name_);
  const uint64_t round_seed = rng_.Next();
  const std::vector<std::unique_ptr<Learner>> committee =
      FitBootstrapCommittee(model, pool, committee_size_, round_seed);
  const double committee_seconds = committee_span.Close();

  // Example scoring: committee vote variance per unlabeled example. Each
  // member sweeps the whole pool through its batch kernel (the PredictBatch
  // fan-out runs under "ml.batch" inside this scoring span); integer votes
  // then accumulate member-by-member, so the variance is exactly the scalar
  // per-example committee vote. Tie keys are hashed from (tie_seed, row) so
  // they do not depend on scoring order.
  obs::ObsSpan scoring_span("selector.scoring", "selector", name_);
  const uint64_t tie_seed = rng_.Next();
  std::vector<int> votes(unlabeled.size(), 0);
  std::vector<int> member_votes(unlabeled.size());
  for (const auto& member : committee) {
    member->PredictBatch(pool.features(), unlabeled, member_votes.data());
    for (size_t i = 0; i < unlabeled.size(); ++i) votes[i] += member_votes[i];
  }
  std::vector<ScoredRow> scored(unlabeled.size());
  for (size_t i = 0; i < unlabeled.size(); ++i) {
    const size_t row = unlabeled[i];
    const double p = static_cast<double>(votes[i]) /
                     static_cast<double>(committee_size_);
    scored[i] =
        ScoredRow{row, p * (1.0 - p), parallel::TaskSeed(tie_seed, row)};
  }
  std::vector<size_t> rows = TopKLargest(scored, k);
  const double scoring_seconds = scoring_span.Close();
  CountScored(unlabeled.size());
  if (timing != nullptr) {
    timing->committee_seconds = committee_seconds;
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = unlabeled.size();
  }
  return rows;
}

bool QbcSelector::CompatibleWith(const Learner& model) const {
  (void)model;
  return true;  // Learner-agnostic by design.
}

// ---- ForestQbcSelector ----

std::vector<size_t> ForestQbcSelector::Select(const Learner& model,
                                              const ActivePool& pool, size_t k,
                                              SelectionTiming* timing) {
  const auto* forest = dynamic_cast<const ForestLearner*>(&model);
  ALEM_CHECK(forest != nullptr);
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  if (unlabeled.empty()) return {};

  // The committee already exists (it was trained as part of the forest), so
  // selection is scoring only: one ProbaBatch sweep yields every example's
  // positive tree fraction through the flattened-forest kernel
  // (all trees in one contiguous node array), fanned out under "ml.batch".
  obs::ObsSpan scoring_span("selector.scoring", "selector", "ForestQBC");
  const uint64_t tie_seed = rng_.Next();
  std::vector<double> fractions(unlabeled.size());
  forest->ProbaBatch(pool.features(), unlabeled, fractions.data());
  std::vector<ScoredRow> scored(unlabeled.size());
  for (size_t i = 0; i < unlabeled.size(); ++i) {
    const size_t row = unlabeled[i];
    const double p = fractions[i];
    scored[i] =
        ScoredRow{row, p * (1.0 - p), parallel::TaskSeed(tie_seed, row)};
  }
  std::vector<size_t> rows = TopKLargest(scored, k);
  const double scoring_seconds = scoring_span.Close();
  CountScored(unlabeled.size());
  if (timing != nullptr) {
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = unlabeled.size();
  }
  return rows;
}

bool ForestQbcSelector::CompatibleWith(const Learner& model) const {
  return dynamic_cast<const ForestLearner*>(&model) != nullptr;
}

// ---- MarginSelector ----

std::vector<size_t> MarginSelector::Select(const Learner& model,
                                           const ActivePool& pool, size_t k,
                                           SelectionTiming* timing) {
  const auto* margin_learner = dynamic_cast<const MarginLearner*>(&model);
  ALEM_CHECK(margin_learner != nullptr);
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  if (unlabeled.empty()) return {};

  // Blocking dimensions: the learner's top-K most discriminative features
  // (top |weight| for linear models, back-propagated weight products for
  // neural networks). When all blocking dimensions of an example are zero,
  // its margin reduces to a constant whose sign is an unambiguous
  // prediction — skip it.
  std::vector<size_t> blocking;
  if (blocking_dims_ > 0) {
    blocking = margin_learner->BlockingDimensions(blocking_dims_);
  }

  // Two passes. First a cheap blocking scan — the scalar early-exit path —
  // gathers survivors; blocking makes the per-chunk output variable-length,
  // so chunks fill private slots that are concatenated in chunk index order
  // afterwards (the merged order equals the serial scan order at any thread
  // count). Survivors then get their margins in one MarginBatch sweep
  // through the learner's vector kernel (fanned out under "ml.batch").
  obs::ObsSpan scoring_span("selector.scoring", "selector", "Margin");
  const size_t num_chunks =
      parallel::NumChunks(0, unlabeled.size(), kScoringGrain);
  std::vector<std::vector<size_t>> chunk_survivors(num_chunks);
  std::vector<size_t> chunk_pruned(num_chunks, 0);
  parallel::ParallelFor(
      0, unlabeled.size(), kScoringGrain,
      [&](size_t begin, size_t end, size_t chunk) {
        std::vector<size_t>& local = chunk_survivors[chunk];
        local.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          const size_t row = unlabeled[i];
          const float* x = pool.features().Row(row);
          if (!blocking.empty()) {
            bool all_zero = true;
            for (const size_t dim : blocking) {
              if (x[dim] != 0.0f) {
                all_zero = false;
                break;
              }
            }
            if (all_zero) {
              ++chunk_pruned[chunk];
              continue;
            }
          }
          local.push_back(row);
        }
      },
      "selector.scoring");
  std::vector<size_t> survivors;
  survivors.reserve(unlabeled.size());
  size_t pruned = 0;
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    survivors.insert(survivors.end(), chunk_survivors[chunk].begin(),
                     chunk_survivors[chunk].end());
    pruned += chunk_pruned[chunk];
  }
  std::vector<double> margins(survivors.size());
  margin_learner->MarginBatch(pool.features(), survivors, margins.data());
  std::vector<ScoredRow> scored(survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    scored[i] = ScoredRow{survivors[i], std::abs(margins[i]), 0};
  }
  std::vector<size_t> rows = TopKSmallest(scored, k);
  const double scoring_seconds = scoring_span.Close();
  CountScored(scored.size());
  CountPruned(pruned);
  if (timing != nullptr) {
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = scored.size();
    timing->pruned_examples = pruned;
  }
  return rows;
}

bool MarginSelector::CompatibleWith(const Learner& model) const {
  return dynamic_cast<const MarginLearner*>(&model) != nullptr;
}

// ---- IwalSelector ----

IwalSelector::IwalSelector(int committee_size, double min_probability,
                           uint64_t seed)
    : committee_size_(committee_size),
      min_probability_(min_probability),
      rng_(seed) {
  ALEM_CHECK_GE(committee_size, 2);
  ALEM_CHECK_GE(min_probability, 0.0);
  ALEM_CHECK_LE(min_probability, 1.0);
  name_ = "IWAL(" + std::to_string(committee_size) + ")";
}

std::vector<size_t> IwalSelector::Select(const Learner& model,
                                         const ActivePool& pool, size_t k,
                                         SelectionTiming* timing) {
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  if (unlabeled.empty()) return {};

  // Bootstrap committee, exactly as in QBC (one parallel task per member).
  obs::ObsSpan committee_span("selector.committee", "selector", name_);
  const uint64_t round_seed = rng_.Next();
  const std::vector<std::unique_ptr<Learner>> committee =
      FitBootstrapCommittee(model, pool, committee_size_, round_seed);
  const double committee_seconds = committee_span.Close();

  // Rejection sampling stays serial: each keep/skip decision consumes the
  // shared Bernoulli stream in visit order, so it is order-dependent by
  // construction. Visit unlabeled examples in random order and keep
  // each with probability p_min + (1 - p_min) * 4 * variance.
  obs::ObsSpan scoring_span("selector.scoring", "selector", name_);
  std::vector<size_t> visit(unlabeled);
  rng_.Shuffle(visit);
  std::vector<size_t> rows;
  rows.reserve(k);
  size_t scored = 0;
  for (const size_t row : visit) {
    if (rows.size() >= k) break;
    const float* x = pool.features().Row(row);
    int positive_votes = 0;
    for (const auto& member : committee) positive_votes += member->Predict(x);
    ++scored;
    const double p = static_cast<double>(positive_votes) /
                     static_cast<double>(committee_size_);
    const double variance = p * (1.0 - p);
    const double keep =
        min_probability_ + (1.0 - min_probability_) * 4.0 * variance;
    if (rng_.NextBernoulli(keep)) rows.push_back(row);
  }
  // If rejection sampling under-fills the batch, top up with the most
  // recently skipped examples (rare once the pool has ambiguity).
  for (size_t i = 0; rows.size() < k && i < visit.size(); ++i) {
    bool already = false;
    for (const size_t row : rows) already |= row == visit[i];
    if (!already) rows.push_back(visit[i]);
  }
  const double scoring_seconds = scoring_span.Close();
  CountScored(scored);
  if (timing != nullptr) {
    timing->committee_seconds = committee_seconds;
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = scored;
  }
  return rows;
}

bool IwalSelector::CompatibleWith(const Learner& model) const {
  (void)model;
  return true;  // Learner-agnostic, like QBC.
}

// ---- DensityWeightedSelector ----

DensityWeightedSelector::DensityWeightedSelector(double beta, uint64_t seed)
    : beta_(beta), rng_(seed) {}

std::vector<size_t> DensityWeightedSelector::Select(const Learner& model,
                                                    const ActivePool& pool,
                                                    size_t k,
                                                    SelectionTiming* timing) {
  const auto* margin_learner = dynamic_cast<const MarginLearner*>(&model);
  ALEM_CHECK(margin_learner != nullptr);
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  if (unlabeled.empty()) return {};

  obs::ObsSpan scoring_span("selector.scoring", "selector", "DensityMargin");
  const size_t dims = pool.features().dims();

  // Density reference: a fixed random sample of the unlabeled pool.
  constexpr size_t kDensitySample = 64;
  const size_t sample_size = std::min(kDensitySample, unlabeled.size());
  const std::vector<size_t> picks =
      rng_.SampleWithoutReplacement(unlabeled.size(), sample_size);
  std::vector<const float*> reference(sample_size);
  std::vector<double> reference_norms(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    reference[i] = pool.features().Row(unlabeled[picks[i]]);
    double norm = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      norm += static_cast<double>(reference[i][d]) * reference[i][d];
    }
    reference_norms[i] = std::sqrt(norm);
  }

  // Margins for the whole pool come from one MarginBatch sweep up front
  // (bitwise-identical to per-row Margin); the density pass below then only
  // computes cosine similarities against the reference sample.
  std::vector<double> margins(unlabeled.size());
  margin_learner->MarginBatch(pool.features(), unlabeled, margins.data());

  std::vector<ScoredRow> scored(unlabeled.size());
  parallel::ParallelFor(
      0, unlabeled.size(), kScoringGrain,
      [&](size_t chunk_begin, size_t chunk_end, size_t chunk) {
        (void)chunk;
        for (size_t index = chunk_begin; index < chunk_end; ++index) {
          const size_t row = unlabeled[index];
          const float* x = pool.features().Row(row);
          double x_norm = 0.0;
          for (size_t d = 0; d < dims; ++d) {
            x_norm += static_cast<double>(x[d]) * x[d];
          }
          x_norm = std::sqrt(x_norm);

          double density = 0.0;
          for (size_t i = 0; i < sample_size; ++i) {
            double dot = 0.0;
            for (size_t d = 0; d < dims; ++d) {
              dot += static_cast<double>(x[d]) * reference[i][d];
            }
            const double denom = x_norm * reference_norms[i];
            density += denom > 0.0 ? dot / denom : 0.0;
          }
          density /= static_cast<double>(sample_size);

          const double uncertainty = 1.0 / (std::abs(margins[index]) + 1e-6);
          scored[index] =
              ScoredRow{row, uncertainty * std::pow(density, beta_), 0};
        }
      },
      "selector.scoring");
  std::vector<size_t> rows = TopKLargest(scored, k);
  const double scoring_seconds = scoring_span.Close();
  CountScored(unlabeled.size());
  if (timing != nullptr) {
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = unlabeled.size();
  }
  return rows;
}

bool DensityWeightedSelector::CompatibleWith(const Learner& model) const {
  return dynamic_cast<const MarginLearner*>(&model) != nullptr;
}

// ---- LfpLfnSelector ----

std::vector<size_t> LfpLfnSelector::Select(const Learner& model,
                                           const ActivePool& pool, size_t k,
                                           SelectionTiming* timing) {
  const auto* rules = dynamic_cast<const RuleLearner*>(&model);
  ALEM_CHECK(rules != nullptr);
  const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
  if (unlabeled.empty()) return {};

  obs::ObsSpan scoring_span("selector.scoring", "selector", "LFP/LFN");
  const Dnf& dnf = rules->dnf();
  const std::vector<Conjunction> relaxed = dnf.RuleMinusVariants();
  const size_t num_atoms = pool.features().dims();

  // Proxy similarity: fraction of satisfied atoms. Low values among
  // predicted matches flag likely false positives; high values among
  // predicted non-matches flag likely false negatives.
  auto proxy = [&](const float* x) {
    double satisfied = 0.0;
    for (size_t a = 0; a < num_atoms; ++a) satisfied += x[a];
    return satisfied / static_cast<double>(num_atoms);
  };

  std::vector<ScoredRow> lfp;  // Predicted positive, ascending proxy.
  std::vector<ScoredRow> lfn;  // Rule-minus positive, descending proxy.
  for (const size_t row : unlabeled) {
    const float* x = pool.features().Row(row);
    if (!dnf.conjunctions.empty() && dnf.Matches(x)) {
      lfp.push_back(ScoredRow{row, proxy(x), 0});
      continue;
    }
    if (dnf.conjunctions.empty()) {
      // Bootstrap mode: before any rule exists there are no LFPs/LFNs in the
      // strict sense; treat the most similar-looking unlabeled examples as
      // likely (false) negatives so rule learning can get off the ground.
      lfn.push_back(ScoredRow{row, proxy(x), 0});
      continue;
    }
    for (const Conjunction& variant : relaxed) {
      if (variant.Matches(x)) {
        lfn.push_back(ScoredRow{row, proxy(x), 0});
        break;
      }
    }
  }

  std::vector<size_t> lfp_rows = TopKSmallest(lfp, k);
  std::vector<size_t> lfn_rows = TopKLargest(lfn, k);

  // Interleave LFPs and LFNs up to the batch size.
  std::vector<size_t> rows;
  rows.reserve(k);
  size_t i = 0, j = 0;
  while (rows.size() < k && (i < lfp_rows.size() || j < lfn_rows.size())) {
    if (i < lfp_rows.size()) rows.push_back(lfp_rows[i++]);
    if (rows.size() < k && j < lfn_rows.size()) rows.push_back(lfn_rows[j++]);
  }
  const double scoring_seconds = scoring_span.Close();
  CountScored(unlabeled.size());
  if (timing != nullptr) {
    timing->scoring_seconds = scoring_seconds;
    timing->scored_examples = unlabeled.size();
  }
  return rows;
}

bool LfpLfnSelector::CompatibleWith(const Learner& model) const {
  return dynamic_cast<const RuleLearner*>(&model) != nullptr;
}

}  // namespace alem
