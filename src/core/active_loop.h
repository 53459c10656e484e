// The active-learning driver (Fig. 1a of the paper).
//
// Starting from a small labeled seed (~30 examples), each iteration:
//   1. trains the learner on the cumulative labeled data,
//   2. evaluates it (progressive or holdout F1),
//   3. asks the example selector for the next batch of ambiguous examples,
//   4. queries the Oracle for their labels and adds them to the pool.
// Per-iteration statistics capture every metric the paper plots: quality
// (P/R/F1), latency (training, committee-creation, example-scoring, user
// wait time), #labels, and interpretability (#DNF atoms, tree depth).

#ifndef ALEM_CORE_ACTIVE_LOOP_H_
#define ALEM_CORE_ACTIVE_LOOP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "ml/metrics.h"

namespace alem {

// The label-budget knobs shared by every driver of the loop: the harness's
// RunConfig and the loop's ActiveLearningConfig both inherit this one struct
// (they used to duplicate the four fields, which invited drift), and the
// session snapshot serializes exactly these. budget() gives copy-across
// assignment between the two configs without naming each field.
struct LoopBudget {
  // Initial random labeled seed (the paper uses ~30).
  size_t seed_size = 30;
  // Examples labeled per iteration (the paper uses 10).
  size_t batch_size = 10;
  // Hard label budget (counts the seed).
  size_t max_labels = 400;
  // Early stop once progressive F1 reaches this value; 0 disables. The
  // paper stops perfect-oracle runs when an approach nears F1 = 1.0.
  double target_f1 = 0.0;

  LoopBudget& budget() { return *this; }
  const LoopBudget& budget() const { return *this; }
};

// Warm-start mode (docs/training.md; --warm-start CLI knob):
//   kOff  — every iteration refits cold; the exact-replay path the golden
//           baselines are pinned on (default).
//   kOn   — refits warm-start from the previous model (FitHint::kWarm).
//           Curves are gated against cold baselines by F1 tolerance, not
//           bitwise.
// Progressive F1 is evaluated incrementally in both modes: the delta tally
// is exact, so it never moves a curve.
enum class WarmStartMode { kOff, kOn };

// "off" / "on".
std::string_view WarmStartModeName(WarmStartMode mode);
// Parses a mode name; returns false on anything else (*mode untouched).
bool ParseWarmStartMode(std::string_view name, WarmStartMode* mode);

struct ActiveLearningConfig : LoopBudget {
  // Seed for the initial sample (selectors carry their own RNGs).
  uint64_t seed = 1;
  // Ground-truth-free termination: stop once the model's predictions over
  // the evaluation rows are unchanged for this many consecutive iterations
  // (0 disables). Section 6.3 of the paper motivates termination criteria
  // that do not require ground truth.
  size_t plateau_window = 0;
  // Warm-start refits (see above).
  WarmStartMode warm_start = WarmStartMode::kOff;
  // Active ensemble of high-precision classifiers (paper §5.2) when > 0:
  // the precision threshold tau a candidate must clear on its labeled
  // predicted positives to be accepted. 0 means a plain run.
  double ensemble_precision = 0.0;
};

struct IterationStats {
  size_t iteration = 0;
  // Cumulative #labels consumed (including the seed).
  size_t labels_used = 0;
  BinaryMetrics metrics;

  // Phase latencies, each derived from the phase's trace span (obs::ObsSpan)
  // so the recorded trace and the stats can never disagree.
  double train_seconds = 0.0;
  // Full example-selection span; committee + scoring below are the
  // selector-reported breakdown of it (Fig. 10).
  double select_seconds = 0.0;
  double committee_seconds = 0.0;
  double scoring_seconds = 0.0;
  // Evaluation and Oracle-labeling time, excluded from user wait time: the
  // paper's wait metric (Fig. 13) covers only what blocks the user between
  // submitting labels and receiving the next batch.
  double evaluate_seconds = 0.0;
  double label_seconds = 0.0;
  // train_seconds + select_seconds, summed from the phase spans rather than
  // read from an independently restarted wall clock.
  double wait_seconds = 0.0;

  // Interpretability (0 when not applicable to the learner).
  size_t dnf_atoms = 0;
  int tree_depth = 0;

  // Selection-time blocking counters (margin selector only).
  size_t scored_examples = 0;
  size_t pruned_examples = 0;

  // #accepted classifiers (active-ensemble runs only).
  size_t ensemble_size = 0;
};

struct SeedResult {
  // #examples labeled while seeding (counts toward the budget).
  size_t labeled = 0;
  // False when the pool ran out of unlabeled examples before both classes
  // appeared. Callers that need a trainable seed should surface this as a
  // diagnosable condition (a single-class pool, e.g. an all-negative
  // candidate set, makes every learner degenerate).
  bool has_both_classes = false;
};

// Labels a random seed batch, retrying with extra random examples until both
// classes are present (a learner cannot be trained otherwise). Retrying is
// bounded by pool exhaustion: on a single-class pool the loop stops when no
// unlabeled examples remain and reports has_both_classes = false rather than
// labeling forever.
SeedResult SeedPool(ActivePool& pool, Oracle& oracle, size_t seed_size,
                    uint64_t seed);

// Collects interpretability statistics from learners that support them.
void CollectInterpretability(const Learner& learner, IterationStats* stats);

// One-shot wrapper over the step-wise LabelingSession (core/session.h): Run
// seeds the pool and runs the session to termination. Code that needs to
// pause, snapshot, or feed labels from elsewhere uses LabelingSession
// directly.
class ActiveLearningLoop {
 public:
  // All references must outlive the loop. The learner is retrained in place
  // each iteration.
  ActiveLearningLoop(Learner& learner, ExampleSelector& selector,
                     Oracle& oracle, const Evaluator& evaluator,
                     const ActiveLearningConfig& config);

  // Runs to termination (label budget, selector exhaustion, or target F1)
  // and returns the per-iteration statistics curve.
  std::vector<IterationStats> Run(ActivePool& pool);

 private:
  Learner& learner_;
  ExampleSelector& selector_;
  Oracle& oracle_;
  const Evaluator& evaluator_;
  ActiveLearningConfig config_;
};

}  // namespace alem

#endif  // ALEM_CORE_ACTIVE_LOOP_H_
