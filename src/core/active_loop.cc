#include "core/active_loop.h"

#include <algorithm>

#include "core/session.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {

std::string_view WarmStartModeName(WarmStartMode mode) {
  return mode == WarmStartMode::kOn ? "on" : "off";
}

bool ParseWarmStartMode(std::string_view name, WarmStartMode* mode) {
  if (name == "off") {
    *mode = WarmStartMode::kOff;
  } else if (name == "on") {
    *mode = WarmStartMode::kOn;
  } else {
    return false;
  }
  return true;
}

SeedResult SeedPool(ActivePool& pool, Oracle& oracle, size_t seed_size,
                    uint64_t seed) {
  Rng rng(seed);
  SeedResult result;
  bool has_positive = false;
  bool has_negative = false;

  auto label_random_batch = [&](size_t count) {
    const std::vector<size_t>& unlabeled = pool.unlabeled_rows();
    if (unlabeled.empty()) return;
    const size_t take = std::min(count, unlabeled.size());
    const std::vector<size_t> picks =
        rng.SampleWithoutReplacement(unlabeled.size(), take);
    // Materialize rows first: labeling invalidates `unlabeled`.
    std::vector<size_t> rows(take);
    for (size_t i = 0; i < take; ++i) rows[i] = unlabeled[picks[i]];
    for (const size_t row : rows) {
      const int label = oracle.Label(row);
      pool.AddLabel(row, label);
      ++result.labeled;
      (label == 1 ? has_positive : has_negative) = true;
    }
  };

  label_random_batch(seed_size);
  // Both classes are required to train any of the learners. Under heavy
  // class skew a 30-example seed occasionally misses the minority class;
  // keep labeling small random batches until it shows up. Pool exhaustion
  // bounds the retry — a single-class pool terminates with the whole pool
  // labeled and has_both_classes = false, never an unbounded spin.
  while ((!has_positive || !has_negative) && !pool.unlabeled_rows().empty()) {
    label_random_batch(10);
  }
  result.has_both_classes = has_positive && has_negative;
  return result;
}

void CollectInterpretability(const Learner& learner, IterationStats* stats) {
  if (const auto* forest = dynamic_cast<const ForestLearner*>(&learner)) {
    stats->dnf_atoms = forest->model().TotalDnfAtoms();
    stats->tree_depth = forest->model().MaxDepth();
  } else if (const auto* rules = dynamic_cast<const RuleLearner*>(&learner)) {
    stats->dnf_atoms = rules->dnf().NumAtoms();
  }
}

ActiveLearningLoop::ActiveLearningLoop(Learner& learner,
                                       ExampleSelector& selector,
                                       Oracle& oracle,
                                       const Evaluator& evaluator,
                                       const ActiveLearningConfig& config)
    : learner_(learner),
      selector_(selector),
      oracle_(oracle),
      evaluator_(evaluator),
      config_(config) {
  ALEM_CHECK(selector.CompatibleWith(learner));
  ALEM_CHECK_GT(config.batch_size, 0u);
}

std::vector<IterationStats> ActiveLearningLoop::Run(ActivePool& pool) {
  LabelingSession session(learner_, selector_, oracle_, evaluator_, pool,
                          config_);
  session.Run();
  return std::move(session).TakeCurve();
}

}  // namespace alem
