// LabelingSession: the active-learning loop (Fig. 1a of the paper) as a
// step-wise, resumable state machine (docs/sessions.md).
//
// Starting from a small labeled seed (~30 examples), each iteration:
//   1. trains the learner on the cumulative labeled data,
//   2. evaluates it (progressive or holdout F1),
//   3. asks the example selector for the next batch of ambiguous examples,
//   4. queries the Oracle for their labels and adds them to the pool.
// Per-iteration statistics capture every metric the paper plots: quality
// (P/R/F1), latency (training, committee-creation, example-scoring, user
// wait time), #labels, and interpretability (#DNF atoms, tree depth).
//
// A one-shot run constructs a session, calls Run() and takes the curve with
// TakeCurve(). Code that pauses, snapshots, or feeds labels from an external
// UI drives the phases itself:
//
//     Step()          train + evaluate the current labeled data
//     NextBatch()     select the next examples to label
//     SubmitLabels()  add the labels (from the Oracle or supplied directly)
//
// and termination is a queryable state instead of a loop exit:
//
//     kNeedsStep --Step()--> kBatchReady --NextBatch()--+
//         ^                                             | batch non-empty
//         |                                             v
//         +------SubmitLabels()------------------ kAwaitingLabels
//
//     NextBatch() with an empty batch  -> kFinished  (stop_reason() says why)
//     invalid transition / bad input   -> recoverable error (state unchanged)
//
// With config.ensemble_precision > 0 the session runs an active ensemble of
// high-precision classifiers (paper §5.2): the learner is a *candidate*
// retrained on the uncovered labeled rows; once its precision on the labeled
// rows it predicts positive clears the threshold, it is accepted, every row
// it predicts positive is covered (excluded from training and selection),
// and the next candidate learns the remainder. The ensemble predicts the
// union of its accepted members' positives, plus the candidate's while it
// looks precise.
//
// At any iteration boundary (kNeedsStep or kFinished) the session can be
// serialized with SaveTo() and reconstructed in a fresh process with
// Restore(): learner model, labeled-pool contents, selector + oracle RNG
// streams, the cumulative IterationStats curve, the evaluation cache (with
// its plateau count), ensemble coverage, and config all round-trip, so the
// resumed run's curve and RunReport are bitwise-identical to the
// uninterrupted run at any thread count.
//
// Snapshots use the checksummed binary-container conventions of the ALFM
// feature-cache format: "ALSS" magic, u32 version, u64 payload size, u64
// FNV-1a checksum, then tagged sections ([4-char tag][u64 length][bytes]).
// Corrupt, truncated, or version-skewed files fail Read() with a clean
// error. Harness-level callers (SessionRunner, alem_cli) add their own
// sections — dataset provenance, run config, metric counters — alongside
// the session's; unknown tags are preserved and ignored.

#ifndef ALEM_CORE_SESSION_H_
#define ALEM_CORE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "ml/metrics.h"
#include "obs/obs.h"

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

enum class SessionState {
  kNeedsStep,       // Ready to train/evaluate the next iteration.
  kBatchReady,      // Step done; call NextBatch().
  kAwaitingLabels,  // A batch is pending; call SubmitLabels().
  kFinished,        // Terminated; stop_reason() says why.
  kFailed,          // Unrecoverable (restore mismatch); error() says why.
};

enum class StopReason {
  kRunning,           // Not terminated yet.
  kBudgetExhausted,   // Label budget consumed.
  kTargetReached,     // Progressive F1 reached target_f1.
  kPlateaued,         // Predictions stable for plateau_window iterations.
  kSelectorExhausted  // Empty pool or the selector found nothing to label.
};

std::string_view SessionStateName(SessionState state);
std::string_view StopReasonName(StopReason reason);

// A validated ALSS snapshot container: 4-char tag -> payload bytes. The
// container layer owns magic/version/checksum handling; section payloads
// are opaque here and interpreted by their writers.
struct SessionSnapshot {
  std::map<std::string, std::string> sections;

  bool has(std::string_view tag) const;
  // Payload of `tag`, or empty when absent.
  const std::string& section(std::string_view tag) const;
  void set(std::string_view tag, std::string payload);

  // Serializes/parses the checksummed container. ReadFile/Parse fail (with
  // a human-readable *error) on bad magic, unsupported version, truncated
  // or oversized payload, checksum mismatch, or malformed section framing.
  std::string Serialize() const;
  static bool Parse(std::string_view blob, SessionSnapshot* out,
                    std::string* error);
  bool WriteFile(const std::string& path, std::string* error) const;
  static bool ReadFile(const std::string& path, SessionSnapshot* out,
                       std::string* error);
};

// Decodes the session's own loop-config section out of a snapshot (the
// harness rebuilds its RunConfig budget from it before re-constructing the
// environment and restoring the session).
bool DecodeSessionLoopConfig(const SessionSnapshot& snapshot,
                             ActiveLearningConfig* config);

class LabelingSession {
 public:
  // Construction seeds the pool (SeedPool) and opens the run: the session
  // starts in kNeedsStep. All references must outlive the session; the
  // learner is retrained in place each Step.
  LabelingSession(Learner& learner, ExampleSelector& selector, Oracle& oracle,
                  const Evaluator& evaluator, ActivePool& pool,
                  const ActiveLearningConfig& config);

  // Reconstructs a mid-run session from a snapshot. The pool must be
  // freshly constructed (no labels) over the same dataset, with the same
  // exclusions applied, and learner/selector/oracle/evaluator must match
  // the original run's construction — the snapshot re-labels the pool and
  // restores model, RNG streams, curve, and evaluation cache. Returns null
  // with *error set when the snapshot is incomplete or inconsistent.
  static std::unique_ptr<LabelingSession> Restore(
      Learner& learner, ExampleSelector& selector, Oracle& oracle,
      const Evaluator& evaluator, ActivePool& pool,
      const SessionSnapshot& snapshot, std::string* error);

  ~LabelingSession();

  LabelingSession(const LabelingSession&) = delete;
  LabelingSession& operator=(const LabelingSession&) = delete;

  // --- Stepping ---

  // Trains on the cumulative labeled data and evaluates (one iteration's
  // phases 1-2). Valid only in kNeedsStep; returns false (state unchanged,
  // error() set) otherwise.
  bool Step();

  // Selects the next batch (phase 3). Valid only in kBatchReady. An empty
  // batch terminates the session (kFinished); otherwise the returned rows
  // await labels (kAwaitingLabels).
  std::vector<size_t> NextBatch();

  // Labels the pending batch by querying the session's Oracle (phase 4).
  // Valid only in kAwaitingLabels; double submission or submission without
  // a pending batch returns false with error() set, state unchanged.
  bool SubmitLabels();

  // Labels the pending batch with caller-provided labels (an external
  // labeling UI standing in for the Oracle). `labels[i]` applies to
  // `pending_batch()[i]` and must be 0 or 1; a size mismatch or an invalid
  // label is rejected recoverably (false, state unchanged).
  bool SubmitLabels(std::span<const int> labels);

  // Drives Step / NextBatch / SubmitLabels (Oracle labels) until the
  // session finishes or — when stop_after > 0 — until `stop_after`
  // iterations have completed, pausing at the iteration boundary where
  // SaveTo() is valid.
  void Run(size_t stop_after = 0);

  // --- Introspection ---

  SessionState state() const { return state_; }
  StopReason stop_reason() const { return stop_reason_; }
  bool finished() const {
    return state_ == SessionState::kFinished || state_ == SessionState::kFailed;
  }
  // Last recoverable-rejection or failure message; empty when none.
  const std::string& error() const { return error_; }

  // Completed + in-flight iteration count (0 until the first Step).
  size_t iteration() const { return iteration_; }
  // #times this session has been restored from a snapshot (provenance).
  uint32_t resume_count() const { return resume_count_; }
  const SeedResult& seed_result() const { return seed_result_; }
  const std::vector<size_t>& pending_batch() const { return pending_batch_; }
  const ActiveLearningConfig& config() const { return config_; }

  // Per-iteration statistics recorded so far (one entry per completed
  // iteration; the terminating no-op iteration included once finished).
  const std::vector<IterationStats>& curve() const { return curve_; }
  std::vector<IterationStats> TakeCurve() && { return std::move(curve_); }

  // --- Snapshotting ---

  // Serializes the session's sections into `snapshot` (merging with any
  // sections already present, e.g. harness provenance). Valid only at an
  // iteration boundary — kNeedsStep or kFinished; mid-iteration saves are
  // rejected (false, *error set) because the determinism contract is
  // defined at boundaries.
  bool SaveTo(SessionSnapshot* snapshot, std::string* error) const;

 private:
  LabelingSession(Learner& learner, ExampleSelector& selector, Oracle& oracle,
                  const Evaluator& evaluator, ActivePool& pool,
                  const ActiveLearningConfig& config, bool seed_pool);

  // Phases 3b/4 bookkeeping shared by SubmitLabels and the terminating
  // NextBatch: wait time, metrics, curve push, iteration span close.
  void FinishIteration();
  void Finish(StopReason reason);
  bool Reject(std::string message);

  // Delta-based progressive F1 (docs/training.md): updates the TP/FP/FN/TN
  // tally for only the rows whose prediction changed since the cached
  // previous iteration, falling back to a full ComputeBinaryMetrics rescore
  // when the cache is cold (the first Step) and auditing against one
  // periodically. Counts updated rows into eval.rows_rescored, and counts
  // the Step as stable when the cache was warm and no prediction changed.
  // Bitwise-equal doubles to a full rescore: both funnel through
  // MetricsFromCounts.
  BinaryMetrics EvaluateIncremental(const std::vector<int>& predictions);

  bool ensemble() const { return config_.ensemble_precision > 0.0; }
  // The ensemble's prediction for `rows`: 1 where an accepted member covers
  // the row, else the candidate's prediction when `with_candidate`, else 0.
  void PredictEnsemble(const std::vector<size_t>& rows, bool with_candidate,
                       int* out) const;
  // Accepts the candidate: covers (and excludes from the pool) every
  // not-yet-covered row it predicts positive.
  void AcceptCandidate();

  Learner& learner_;
  ExampleSelector& selector_;
  Oracle& oracle_;
  const Evaluator& evaluator_;
  ActivePool& pool_;
  ActiveLearningConfig config_;

  SessionState state_ = SessionState::kNeedsStep;
  StopReason stop_reason_ = StopReason::kRunning;
  std::string error_;

  size_t iteration_ = 0;
  uint32_t resume_count_ = 0;
  SeedResult seed_result_;
  std::vector<IterationStats> curve_;
  IterationStats stats_;  // The in-flight iteration's record.
  std::vector<size_t> pending_batch_;

  // Whether this iteration's candidate was fit (always true for a plain
  // run; an ensemble fits only while its uncovered labeled rows hold both
  // classes). NextBatch selects only for a trainable candidate.
  bool trainable_ = true;
  // Active-ensemble state (ensemble() only), snapshotted as "ENSM": the
  // accepted-member count and the per-pool-row coverage mask (1 = some
  // accepted member predicts the row positive; such rows are excluded).
  size_t ensemble_accepted_ = 0;
  std::vector<uint8_t> ensemble_covered_;

  // Incremental-evaluation cache: the previous iteration's predictions
  // aligned with evaluator_.eval_rows(), the confusion tally they imply,
  // the countdown to the next full-rescore audit (0 = cold, full rescore
  // next Step), and the number of consecutive Steps whose predictions all
  // matched the cache, which plateau termination reads. Snapshotted as the
  // "IEVL" section, which every snapshot past iteration 0 carries: the
  // stable count decides when a plateaued run stops, and eval.rows_rescored
  // stitches exactly across save/resume only from a warm cache.
  std::vector<uint8_t> eval_cache_;
  uint64_t eval_tp_ = 0;
  uint64_t eval_fp_ = 0;
  uint64_t eval_fn_ = 0;
  uint64_t eval_tn_ = 0;
  uint32_t eval_audit_countdown_ = 0;
  uint64_t stable_iterations_ = 0;

  // The loop.run / loop.iteration trace spans outlive single calls, so the
  // session holds them open across the step-wise API (ObsSpan is
  // intentionally pinned — neither copyable nor movable).
  std::unique_ptr<obs::ObsSpan> run_span_;
  std::unique_ptr<obs::ObsSpan> iteration_span_;
};

}  // namespace alem

#endif  // ALEM_CORE_SESSION_H_
