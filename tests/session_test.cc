// LabelingSession: the step-wise state machine, recoverable rejections,
// and the ALSS snapshot/restore determinism contract (docs/sessions.md),
// for the session alone and through SessionRunner's run-level sections:
// a run paused at ANY iteration boundary and restored into a freshly
// constructed environment must finish with a curve whose deterministic
// fields are bitwise-identical to the uninterrupted run's, at any thread
// count — active-ensemble and plateau-terminated sessions included. The
// plateau stop is checked against the rule it implements, recomputed from
// the learner's predictions. Corrupt, truncated, and version-skewed
// snapshots must fail with clean errors, never crashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/approaches.h"
#include "core/evaluator.h"
#include "core/harness.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "parallel/pool.h"
#include "synth/profiles.h"
#include "util/byte_codec.h"
#include "util/rng.h"

namespace alem {
namespace {

struct Problem {
  FeatureMatrix features;
  std::vector<int> truth;
};

// 2-D blobs: every `stride`-th row is a positive around (high, high), the
// rest negatives around (low, low), each coordinate with Gaussian noise of
// standard deviation `spread`.
Problem MakeBlobProblem(size_t n, uint64_t seed, size_t stride, double low,
                        double high, double spread) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % stride == 0;
    const double center = positive ? high : low;
    problem.features.Set(
        i, 0, static_cast<float>(center + rng.NextGaussian() * spread));
    problem.features.Set(
        i, 1, static_cast<float>(center + rng.NextGaussian() * spread));
    problem.truth[i] = positive ? 1 : 0;
  }
  return problem;
}

// A 2-D, mostly separable problem with 10% class skew (like EM pairs).
Problem MakeProblem(size_t n, uint64_t seed) {
  return MakeBlobProblem(n, seed, 10, 0.3, 0.75, 0.07);
}

// Two positive clusters around (0.85, 0.15) and (0.15, 0.85) with negatives
// in between (core_ensemble_test's problem): no single linear classifier
// covers both at high precision, so an active ensemble accepts members.
Problem MakeTwoClusterProblem(size_t n, uint64_t seed) {
  const double x[] = {0.85, 0.15, 0.45};
  const double y[] = {0.15, 0.85, 0.45};
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t kind = std::min<size_t>(i % 10, 2);  // A, B, negative.
    problem.features.Set(
        i, 0, static_cast<float>(x[kind] + rng.NextGaussian() * 0.04));
    problem.features.Set(
        i, 1, static_cast<float>(y[kind] + rng.NextGaussian() * 0.04));
    problem.truth[i] = kind < 2 ? 1 : 0;
  }
  return problem;
}

// One run's worth of components, constructed identically every time — the
// restore contract requires the caller to rebuild the same environment a
// fresh run would get. NoisyOracle + QBC give both an oracle and a selector
// RNG stream for the snapshot to carry.
struct Env {
  ActivePool pool;
  NoisyOracle oracle;
  ProgressiveEvaluator evaluator;
  SvmLearner learner;
  QbcSelector selector;

  explicit Env(const Problem& problem)
      : pool(problem.features),
        oracle(problem.truth, 0.05, 99),
        evaluator(problem.truth),
        learner{LinearSvmConfig{}},
        selector(3, 7) {}
};

ActiveLearningConfig TestConfig() {
  ActiveLearningConfig config;
  config.seed_size = 30;
  config.batch_size = 10;
  config.max_labels = 100;
  return config;
}

ActiveLearningConfig EnsembleTestConfig() {
  ActiveLearningConfig config = TestConfig();
  config.ensemble_precision = 0.85;
  return config;
}

// Ends kPlateaued at iteration 9 on PlateauProblem(), well inside the
// label budget; the streak that stops it starts at Step 7.
Problem PlateauProblem() {
  return MakeBlobProblem(600, 13, 10, 0.3, 0.75, 0.09);
}

ActiveLearningConfig PlateauTestConfig() {
  ActiveLearningConfig config = TestConfig();
  config.max_labels = 300;
  config.plateau_window = 3;
  return config;
}

// Bitwise equality on the deterministic curve fields. Timing fields
// (train/select/wait seconds) are wall-clock and deliberately excluded —
// the determinism contract covers what the run computed, not how long it
// took.
void ExpectCurvesIdentical(const std::vector<IterationStats>& expected,
                           const std::vector<IterationStats>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const IterationStats& a = expected[i];
    const IterationStats& b = actual[i];
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.labels_used, b.labels_used);
    EXPECT_EQ(a.metrics.true_positives, b.metrics.true_positives);
    EXPECT_EQ(a.metrics.false_positives, b.metrics.false_positives);
    EXPECT_EQ(a.metrics.false_negatives, b.metrics.false_negatives);
    EXPECT_EQ(a.metrics.true_negatives, b.metrics.true_negatives);
    EXPECT_EQ(a.metrics.precision, b.metrics.precision);  // bitwise doubles
    EXPECT_EQ(a.metrics.recall, b.metrics.recall);
    EXPECT_EQ(a.metrics.f1, b.metrics.f1);
    EXPECT_EQ(a.scored_examples, b.scored_examples);
    EXPECT_EQ(a.pruned_examples, b.pruned_examples);
    EXPECT_EQ(a.dnf_atoms, b.dnf_atoms);
    EXPECT_EQ(a.tree_depth, b.tree_depth);
    EXPECT_EQ(a.ensemble_size, b.ensemble_size);
  }
}

// The tentpole contract: pause at EVERY iteration boundary, round-trip the
// snapshot through the serialized container, restore into a fresh
// environment, and finish — the stitched curve and stop reason must match
// the uninterrupted run bitwise. Verified at 1 and 4 threads, for a plain
// run, for an active ensemble (whose later boundaries carry a non-empty
// coverage mask) and for a plateau-terminated run (whose last
// plateau_window - 1 boundaries fall inside the stable streak that stops
// it).
void SaveRestoreAtEveryBoundary(const Problem& problem,
                                const ActiveLearningConfig& config,
                                int threads) {
  parallel::SetNumThreads(threads);

  Env golden_env(problem);
  LabelingSession golden(golden_env.learner, golden_env.selector,
                         golden_env.oracle, golden_env.evaluator,
                         golden_env.pool, config);
  golden.Run();
  ASSERT_EQ(golden.state(), SessionState::kFinished);
  const StopReason golden_stop = golden.stop_reason();
  ASSERT_EQ(golden_stop, config.plateau_window > 0
                             ? StopReason::kPlateaued
                             : StopReason::kBudgetExhausted);
  ASSERT_NE(config.plateau_window, 1u);  // A window of 1 has no streak.
  const std::vector<IterationStats> golden_curve =
      std::move(golden).TakeCurve();
  ASSERT_GE(golden_curve.size(), 3u);
  if (config.ensemble_precision > 0.0) {
    // Some boundary before the last must follow an acceptance.
    ASSERT_GE(golden_curve[golden_curve.size() - 2].ensemble_size, 1u);
  }

  for (size_t boundary = 1; boundary < golden_curve.size(); ++boundary) {
    SCOPED_TRACE("boundary " + std::to_string(boundary) + ", threads " +
                 std::to_string(threads));
    Env first_env(problem);
    LabelingSession first(first_env.learner, first_env.selector,
                          first_env.oracle, first_env.evaluator,
                          first_env.pool, config);
    first.Run(boundary);
    ASSERT_EQ(first.state(), SessionState::kNeedsStep);
    ASSERT_EQ(first.curve().size(), boundary);

    SessionSnapshot saved;
    std::string error;
    ASSERT_TRUE(first.SaveTo(&saved, &error)) << error;

    // Round-trip through the serialized container, as a real pause does.
    SessionSnapshot loaded;
    ASSERT_TRUE(SessionSnapshot::Parse(saved.Serialize(), &loaded, &error))
        << error;

    Env second_env(problem);
    std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
        second_env.learner, second_env.selector, second_env.oracle,
        second_env.evaluator, second_env.pool, loaded, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->iteration(), boundary);
    EXPECT_EQ(resumed->resume_count(), 1u);

    resumed->Run();
    ASSERT_EQ(resumed->state(), SessionState::kFinished);
    EXPECT_EQ(resumed->stop_reason(), golden_stop);
    ExpectCurvesIdentical(golden_curve, std::move(*resumed).TakeCurve());
  }
  parallel::SetNumThreads(1);
}

TEST(SessionSnapshotTest, SaveRestoreBitwiseEveryBoundarySingleThread) {
  SaveRestoreAtEveryBoundary(MakeProblem(600, 11), TestConfig(), 1);
}

TEST(SessionSnapshotTest, SaveRestoreBitwiseEveryBoundaryFourThreads) {
  SaveRestoreAtEveryBoundary(MakeProblem(600, 11), TestConfig(), 4);
}

TEST(SessionSnapshotTest, EnsembleSaveRestoreBitwiseEveryBoundarySingleThread) {
  SaveRestoreAtEveryBoundary(MakeTwoClusterProblem(600, 1),
                             EnsembleTestConfig(), 1);
}

TEST(SessionSnapshotTest, EnsembleSaveRestoreBitwiseEveryBoundaryFourThreads) {
  SaveRestoreAtEveryBoundary(MakeTwoClusterProblem(600, 1),
                             EnsembleTestConfig(), 4);
}

TEST(SessionSnapshotTest, PlateauSaveRestoreBitwiseEveryBoundarySingleThread) {
  SaveRestoreAtEveryBoundary(PlateauProblem(), PlateauTestConfig(), 1);
}

TEST(SessionSnapshotTest, PlateauSaveRestoreBitwiseEveryBoundaryFourThreads) {
  SaveRestoreAtEveryBoundary(PlateauProblem(), PlateauTestConfig(), 4);
}

// ---- Plateau termination ------------------------------------------------

// Runs a plateau_window = 3 session one Step at a time, recomputing the
// plateau rule outside it after every Step: the learner's predictions over
// the evaluator's rows are compared with the previous Step's, and the run
// must stop kPlateaued exactly when three consecutive Steps matched (the
// session derives the same count from its evaluation cache). *stopped_at
// receives the iteration it stopped at.
void ExpectPlateauWhereReferenceRuleStops(const Problem& problem,
                                          size_t* stopped_at) {
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.max_labels = 490;
  config.plateau_window = 3;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);

  std::vector<int> previous;
  size_t stable = 0;
  while (true) {
    ASSERT_TRUE(session.Step());
    SCOPED_TRACE("iteration " + std::to_string(session.iteration()));
    const std::vector<size_t>& rows = evaluator.eval_rows();
    std::vector<int> predictions(rows.size());
    learner.PredictBatch(pool.features(), rows, predictions.data());
    stable = predictions == previous ? stable + 1 : 0;
    previous = std::move(predictions);
    const bool plateaued = stable >= config.plateau_window;
    if (session.NextBatch().empty()) {
      ASSERT_TRUE(plateaued);
      ASSERT_EQ(session.stop_reason(), StopReason::kPlateaued);
      *stopped_at = session.iteration();
      return;
    }
    ASSERT_FALSE(plateaued);
    ASSERT_TRUE(session.SubmitLabels());
  }
}

TEST(PlateauTest, StopsWhereTheReferenceRuleStops) {
  // core_extensions_test's separable problem, and a noisier one whose
  // predictions keep changing for longer.
  size_t separable = 0;
  ExpectPlateauWhereReferenceRuleStops(
      MakeBlobProblem(500, 8, 5, 0.2, 0.8, 0.03), &separable);
  size_t noisy = 0;
  ExpectPlateauWhereReferenceRuleStops(
      MakeBlobProblem(500, 8, 5, 0.35, 0.65, 0.1), &noisy);
  EXPECT_GT(noisy, separable);
}

// A finished session snapshots and restores too (kFinished is an iteration
// boundary); the restored session is immediately finished with the same
// curve and stop reason.
TEST(SessionSnapshotTest, FinishedSessionRoundTrips) {
  const Problem problem = MakeProblem(500, 4);
  const ActiveLearningConfig config = TestConfig();

  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, config);
  session.Run();
  ASSERT_EQ(session.state(), SessionState::kFinished);

  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;

  Env env2(problem);
  std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
      env2.learner, env2.selector, env2.oracle, env2.evaluator, env2.pool,
      snapshot, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->state(), SessionState::kFinished);
  EXPECT_EQ(resumed->stop_reason(), session.stop_reason());
  ExpectCurvesIdentical(session.curve(), resumed->curve());
}

// ---- Container robustness ---------------------------------------------

std::string SerializedSnapshot() {
  const Problem problem = MakeProblem(400, 5);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  session.Run(1);
  SessionSnapshot snapshot;
  std::string error;
  EXPECT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  return snapshot.Serialize();
}

TEST(SessionSnapshotTest, CorruptPayloadFailsChecksum) {
  std::string blob = SerializedSnapshot();
  blob[blob.size() / 2] ^= 0x5a;  // Flip bits mid-payload.
  SessionSnapshot out;
  std::string error;
  EXPECT_FALSE(SessionSnapshot::Parse(blob, &out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(SessionSnapshotTest, TruncatedFileFailsCleanly) {
  const std::string blob = SerializedSnapshot();
  SessionSnapshot out;
  std::string error;
  // Truncated mid-payload: size mismatch. Truncated mid-header: header
  // error. Every prefix length must fail cleanly, never crash.
  EXPECT_FALSE(
      SessionSnapshot::Parse(blob.substr(0, blob.size() - 7), &out, &error));
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
  EXPECT_FALSE(SessionSnapshot::Parse(blob.substr(0, 10), &out, &error));
  EXPECT_NE(error.find("truncated header"), std::string::npos) << error;
  EXPECT_FALSE(SessionSnapshot::Parse("", &out, &error));
}

TEST(SessionSnapshotTest, VersionSkewFailsCleanly) {
  std::string blob = SerializedSnapshot();
  // The format version lives at bytes 4..7. Version 1 snapshots carry the
  // plateau state in a section of their own, which version 2 dropped;
  // version 2 snapshots carry the harness sections, the oracle state and
  // the RNG streams as text.
  for (const uint32_t version : {1u, 2u, 99u}) {
    std::memcpy(blob.data() + 4, &version, sizeof(version));
    SessionSnapshot out;
    std::string error;
    EXPECT_FALSE(SessionSnapshot::Parse(blob, &out, &error));
    EXPECT_NE(error.find("unsupported format version " +
                         std::to_string(version)),
              std::string::npos)
        << error;
  }
}

TEST(SessionSnapshotTest, BadMagicFailsCleanly) {
  std::string blob = SerializedSnapshot();
  blob[0] = 'X';
  SessionSnapshot out;
  std::string error;
  EXPECT_FALSE(SessionSnapshot::Parse(blob, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(SessionSnapshotTest, MissingSectionFailsRestore) {
  const Problem problem = MakeProblem(400, 5);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  session.Run(1);
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  snapshot.sections.erase("CRVE");

  Env env2(problem);
  EXPECT_EQ(LabelingSession::Restore(env2.learner, env2.selector, env2.oracle,
                                     env2.evaluator, env2.pool, snapshot,
                                     &error),
            nullptr);
  EXPECT_NE(error.find("CRVE"), std::string::npos) << error;
}

TEST(SessionSnapshotTest, RestoreRequiresLabelFreePool) {
  const Problem problem = MakeProblem(400, 5);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  session.Run(1);
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;

  Env env2(problem);
  env2.pool.AddLabel(0, problem.truth[0]);  // Not freshly constructed.
  EXPECT_EQ(LabelingSession::Restore(env2.learner, env2.selector, env2.oracle,
                                     env2.evaluator, env2.pool, snapshot,
                                     &error),
            nullptr);
  EXPECT_NE(error.find("label-free"), std::string::npos) << error;
}

// A malformed "ENSM" section fails the restore with a specific error, never
// a crash. Layout: f64 tau, u64 accepted, u64 mask rows, one byte per row.
TEST(SessionSnapshotTest, MalformedEnsembleSectionFailsRestore) {
  const Problem problem = MakeTwoClusterProblem(600, 1);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, EnsembleTestConfig());
  while (session.curve().empty() || session.curve().back().ensemble_size == 0) {
    ASSERT_FALSE(session.finished());
    session.Run(session.curve().size() + 1);
  }
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  const std::string ensm = snapshot.section("ENSM");
  ASSERT_EQ(ensm.size(), 24 + problem.truth.size());

  // Restores with `payload` as the ENSM section; the error, "" on success.
  auto restore_error = [&](const std::string& payload) {
    SessionSnapshot bad = snapshot;
    bad.set("ENSM", payload);
    Env fresh(problem);
    std::string message;
    LabelingSession::Restore(fresh.learner, fresh.selector, fresh.oracle,
                             fresh.evaluator, fresh.pool, bad, &message);
    return message;
  };

  // Wrong mask length: the row count disagrees with the pool.
  std::string bad = ensm;
  const uint64_t rows = problem.truth.size() + 1;
  std::memcpy(bad.data() + 16, &rows, sizeof(rows));
  EXPECT_NE(restore_error(bad).find("coverage mask has 601 rows"),
            std::string::npos);
  // A mask byte other than 0/1.
  bad = ensm;
  bad[24] = 2;
  EXPECT_NE(restore_error(bad).find("mask byte out of range"),
            std::string::npos);
  // Truncation, inside the header and inside the mask.
  for (const size_t length : {size_t{12}, ensm.size() - 1}) {
    EXPECT_NE(restore_error(ensm.substr(0, length))
                  .find("truncated ensemble section"),
              std::string::npos);
  }
  // tau <= 0 or NaN.
  for (const double tau : {0.0, -0.5, std::nan("")}) {
    bad = ensm;
    std::memcpy(bad.data(), &tau, sizeof(tau));
    EXPECT_NE(restore_error(bad).find("precision threshold must be > 0"),
              std::string::npos);
  }
  // The untouched section still restores.
  EXPECT_EQ(restore_error(ensm), "");
}

// ---- Learner width against the pool ------------------------------------
//
// A learner section holding a valid model of another width, swapped into a
// paused session's snapshot whose bytes are then rewritten (so the
// container checksum holds), must fail the restore with an error naming
// both widths, for every learner; the session's own model still restores.

// Saves `problem`'s session of make_learner() after one iteration, replaces
// its learner section with `blob` (keeps its own when empty), round-trips
// the snapshot through its serialized bytes and restores it into a fresh
// environment. Returns the restore error, "" when it restored.
template <typename MakeLearner>
std::string RestoreWithLearnerBlob(const Problem& problem,
                                   MakeLearner make_learner,
                                   const std::string& blob) {
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  RandomSelector selector(3);
  std::unique_ptr<Learner> learner = make_learner();
  LabelingSession session(*learner, selector, oracle, evaluator, pool,
                          TestConfig());
  session.Run(1);
  SessionSnapshot snapshot;
  std::string error;
  EXPECT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  EXPECT_FALSE(snapshot.section("LRNR").empty());
  if (!blob.empty()) snapshot.set("LRNR", blob);
  SessionSnapshot reparsed;
  EXPECT_TRUE(SessionSnapshot::Parse(snapshot.Serialize(), &reparsed, &error))
      << error;

  ActivePool fresh_pool(problem.features);
  PerfectOracle fresh_oracle(problem.truth);
  ProgressiveEvaluator fresh_evaluator(problem.truth);
  RandomSelector fresh_selector(3);
  std::unique_ptr<Learner> fresh = make_learner();
  error.clear();
  const std::unique_ptr<LabelingSession> restored =
      LabelingSession::Restore(*fresh, fresh_selector, fresh_oracle,
                               fresh_evaluator, fresh_pool, reparsed, &error);
  EXPECT_EQ(restored == nullptr, !error.empty()) << error;
  return error;
}

// `width` columns; column `informative` equals the label, the others are 0.
Problem MakeOneColumnProblem(size_t n, size_t width, size_t informative) {
  Problem problem;
  problem.features = FeatureMatrix(n, width);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    problem.truth[i] = i % 4 == 0 ? 1 : 0;
    problem.features.Set(i, informative,
                         static_cast<float>(problem.truth[i]));
  }
  return problem;
}

TEST(SessionSnapshotTest, SvmWiderThanPoolFailsRestore) {
  const Problem problem = MakeProblem(400, 5);
  const auto make = [] { return std::make_unique<SvmLearner>(); };
  EXPECT_EQ(RestoreWithLearnerBlob(problem, make, ""), "");
  const Problem wide = MakeOneColumnProblem(40, 3, 2);
  SvmLearner other;
  other.Fit(wide.features, wide.truth);
  EXPECT_NE(RestoreWithLearnerBlob(problem, make, other.SaveModel())
                .find("reads exactly 3 input features but the pool has 2"),
            std::string::npos);
}

TEST(SessionSnapshotTest, NeuralNetWiderThanPoolFailsRestore) {
  const Problem problem = MakeProblem(400, 5);
  const auto make = [] { return std::make_unique<NeuralNetLearner>(); };
  EXPECT_EQ(RestoreWithLearnerBlob(problem, make, ""), "");
  const Problem wide = MakeOneColumnProblem(40, 3, 2);
  NeuralNetLearner other;
  other.Fit(wide.features, wide.truth);
  EXPECT_NE(RestoreWithLearnerBlob(problem, make, other.SaveModel())
                .find("reads exactly 3 input features but the pool has 2"),
            std::string::npos);
}

// The index past which one past it wraps to 0, written as the largest
// size_t and as "-1" (which a size_t field also reads as that value).
const char* const kWrappingIndices[] = {"18446744073709551615", "-1"};

// A forest blob with the feature index of every split node (a tree node
// row "is_leaf label dim threshold left right" with is_leaf 0) replaced
// by `dim`, as written.
std::string WithSplitDims(const std::string& blob, const std::string& dim) {
  std::istringstream in(blob);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.size() == 6 && tokens[0] == "0") {
      tokens[2] = dim;
      line = tokens[0];
      for (size_t i = 1; i < tokens.size(); ++i) line += " " + tokens[i];
    }
    out += line + "\n";
  }
  return out;
}

// A split on feature 4 of a two-feature pool: the warm path would keep
// such a tree untouched and read past every row. So would a split on the
// largest index, whose width must not wrap to 0.
TEST(SessionSnapshotTest, ForestSplitPastPoolFailsRestore) {
  const Problem problem = MakeProblem(400, 5);
  const auto make = [] { return std::make_unique<ForestLearner>(); };
  EXPECT_EQ(RestoreWithLearnerBlob(problem, make, ""), "");
  const Problem wide = MakeOneColumnProblem(40, 5, 4);
  ForestLearner other;
  other.Fit(wide.features, wide.truth);
  ASSERT_EQ(other.ModelInputWidth().width, 5u);
  EXPECT_NE(RestoreWithLearnerBlob(problem, make, other.SaveModel())
                .find("reads at least 5 input features but the pool has 2"),
            std::string::npos);
  for (const char* const dim : kWrappingIndices) {
    const std::string blob = WithSplitDims(other.SaveModel(), dim);
    ASSERT_NE(blob, other.SaveModel()) << dim;
    EXPECT_NE(RestoreWithLearnerBlob(problem, make, blob)
                  .find("reads at least 18446744073709551615 input features "
                        "but the pool has 2"),
              std::string::npos)
        << dim;
  }
}

TEST(SessionSnapshotTest, RuleAtomPastPoolFailsRestore) {
  // Rules read a 0/1 matrix: column 0 is the label.
  const Problem problem = MakeOneColumnProblem(400, 2, 0);
  const auto make = [] { return std::make_unique<RuleLearner>(); };
  EXPECT_EQ(RestoreWithLearnerBlob(problem, make, ""), "");
  const Problem wide = MakeOneColumnProblem(40, 5, 4);
  RuleLearner other;
  other.Fit(wide.features, wide.truth);
  ASSERT_EQ(other.ModelInputWidth().width, 5u);
  EXPECT_NE(RestoreWithLearnerBlob(problem, make, other.SaveModel())
                .find("reads at least 5 input features but the pool has 2"),
            std::string::npos);
  // One conjunction of one atom on the largest index.
  for (const char* const atom : kWrappingIndices) {
    const std::string blob = std::string("alem-dnf\n1\n1\n1 ") + atom + "\n";
    EXPECT_NE(RestoreWithLearnerBlob(problem, make, blob)
                  .find("reads at least 18446744073709551615 input features "
                        "but the pool has 2"),
              std::string::npos)
        << atom;
  }
}

// ---- SessionRunner snapshots -------------------------------------------
//
// The run-level layer end to end, as `alem_cli session` and the cold-pause
// benchmark drive it: SessionRunner::Save -> SessionSnapshot::ReadFile ->
// ReadSessionRunInfo -> SessionRunner::Restore.

// Prepared once, without the feature cache: preparation is the expensive
// part of these tests.
const PreparedDataset& SmallAbtBuy() {
  static const PreparedDataset& data = *[] {
    PrepareOptions options;
    options.profile = AbtBuyProfile();
    options.data_seed = 7;
    options.scale = 0.25;
    options.use_cache = false;
    return new PreparedDataset(PrepareDataset(options));
  }();
  return data;
}

SessionRunInfo RunInfoOf(const PreparedDataset& data,
                         const RunConfig& config) {
  return {.dataset = data.name,
          .data_seed = data.data_seed,
          .scale = data.scale,
          .feature_cache = data.feature_cache,
          .config = config};
}

void ExpectSameRunInfo(const SessionRunInfo& expected,
                       const SessionRunInfo& actual) {
  EXPECT_EQ(expected.dataset, actual.dataset);
  EXPECT_EQ(expected.data_seed, actual.data_seed);
  EXPECT_EQ(expected.scale, actual.scale);  // bitwise doubles
  EXPECT_EQ(expected.feature_cache, actual.feature_cache);
  const RunConfig& a = expected.config;
  const RunConfig& b = actual.config;
  EXPECT_EQ(a.seed_size, b.seed_size);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.max_labels, b.max_labels);
  EXPECT_EQ(a.target_f1, b.target_f1);
  EXPECT_EQ(a.approach.learner, b.approach.learner);
  EXPECT_EQ(a.approach.selector, b.approach.selector);
  EXPECT_EQ(a.approach.committee_size, b.approach.committee_size);
  EXPECT_EQ(a.approach.num_trees, b.approach.num_trees);
  EXPECT_EQ(a.approach.blocking_dims, b.approach.blocking_dims);
  EXPECT_EQ(a.approach.active_ensemble, b.approach.active_ensemble);
  EXPECT_EQ(a.approach.ensemble_precision, b.approach.ensemble_precision);
  EXPECT_EQ(a.oracle_noise, b.oracle_noise);
  EXPECT_EQ(a.holdout, b.holdout);
  EXPECT_EQ(a.run_seed, b.run_seed);
  EXPECT_EQ(a.warm_start, b.warm_start);
}

std::string SnapshotPath() {
  return ::testing::TempDir() + "/session_runner_test.alss";
}

// Pauses `config`'s run at every iteration boundary, saves it to a file,
// reads it back and resumes it: every decoded run field must equal the
// saved one, and the stitched curve the uninterrupted run's.
void RunnerSaveRestoreAtEveryBoundary(const RunConfig& config) {
  const PreparedDataset& data = SmallAbtBuy();
  SessionRunner golden(data, config);
  golden.Run();
  const StopReason golden_stop = golden.session().stop_reason();
  const std::vector<IterationStats> golden_curve = golden.session().curve();
  ASSERT_GE(golden_curve.size(), 3u);
  if (config.approach.active_ensemble) {
    // Some boundary before the last must follow an acceptance.
    ASSERT_GE(golden_curve[golden_curve.size() - 2].ensemble_size, 1u);
  }

  for (size_t boundary = 1; boundary < golden_curve.size(); ++boundary) {
    SCOPED_TRACE("boundary " + std::to_string(boundary));
    std::string error;
    {
      SessionRunner first(data, config);
      first.Run(boundary);
      ASSERT_EQ(first.session().curve().size(), boundary);
      ASSERT_TRUE(first.Save(SnapshotPath(), &error)) << error;
    }
    SessionSnapshot snapshot;
    ASSERT_TRUE(SessionSnapshot::ReadFile(SnapshotPath(), &snapshot, &error))
        << error;
    SessionRunInfo info;
    ASSERT_TRUE(ReadSessionRunInfo(snapshot, &info, &error)) << error;
    ExpectSameRunInfo(RunInfoOf(data, config), info);
    const std::unique_ptr<SessionRunner> resumed =
        SessionRunner::Restore(data, info.config, snapshot, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->session().resume_count(), 1u);
    resumed->Run();
    EXPECT_EQ(resumed->session().stop_reason(), golden_stop);
    ExpectCurvesIdentical(golden_curve, resumed->session().curve());
  }
}

TEST(SessionRunnerTest, NoisyHoldoutQbcRoundTripsEveryBoundary) {
  RunConfig config;
  config.approach = LinearQbcSpec(4);
  config.oracle_noise = 0.1;
  config.holdout = true;
  config.max_labels = 80;
  config.run_seed = 3;
  RunnerSaveRestoreAtEveryBoundary(config);
}

TEST(SessionRunnerTest, ActiveEnsembleRoundTripsEveryBoundary) {
  RunConfig config;
  config.approach = LinearMarginEnsembleSpec();
  config.max_labels = 60;
  RunnerSaveRestoreAtEveryBoundary(config);
}

// A run section ("HRUN") in its documented layout (docs/sessions.md):
// dataset (string), data seed (u64), scale (f64), cache outcome (u8: off,
// miss, hit), oracle noise (f64), holdout (u8), learner and selector codes
// (u8 each), committee size and tree count (i64 each), blocking dims (u64),
// active ensemble (u8), ensemble precision (f64).
std::string RunSection(const SessionRunInfo& info, uint8_t cache_code) {
  const ApproachSpec& spec = info.config.approach;
  ByteWriter w;
  w.Str(info.dataset);
  w.U64(info.data_seed);
  w.F64(info.scale);
  w.U8(cache_code);
  w.F64(info.config.oracle_noise);
  w.U8(info.config.holdout ? 1 : 0);
  w.U8(static_cast<uint8_t>(spec.learner));
  w.U8(static_cast<uint8_t>(spec.selector));
  w.I64(spec.committee_size);
  w.I64(spec.num_trees);
  w.U64(spec.blocking_dims);
  w.U8(spec.active_ensemble ? 1 : 0);
  w.F64(spec.ensemble_precision);
  return w.Take();
}

// A noisy Linear-QBC(4) run paused after one iteration, as saved.
struct SavedRun {
  SessionRunInfo info;
  SessionSnapshot snapshot;
};

const SavedRun& SavedQbcRun() {
  static const SavedRun& saved = *[] {
    RunConfig config;
    config.approach = LinearQbcSpec(4);
    config.oracle_noise = 0.1;
    config.max_labels = 60;
    SessionRunner runner(SmallAbtBuy(), config);
    runner.Run(1);
    std::string error;
    auto* run = new SavedRun{RunInfoOf(SmallAbtBuy(), config), {}};
    EXPECT_TRUE(runner.Save(SnapshotPath(), &error)) << error;
    EXPECT_TRUE(SessionSnapshot::ReadFile(SnapshotPath(), &run->snapshot,
                                          &error))
        << error;
    return run;
  }();
  return saved;
}

TEST(SessionRunnerTest, RunSectionHasTheDocumentedLayout) {
  const SavedRun& saved = SavedQbcRun();
  EXPECT_EQ(saved.snapshot.section("HRUN"), RunSection(saved.info, 0));
}

// One row per run field a snapshot can name a run with that no environment
// can be built for: each fails ReadSessionRunInfo with an error naming the
// field, where the text format aborted the resume.
TEST(SessionRunnerTest, HostileRunFieldsFailNamingTheField) {
  const SavedRun& saved = SavedQbcRun();
  using Edit = void (*)(SessionRunInfo*);
  const struct {
    const char* field;
    Edit edit;
  } rows[] = {
      {"dataset", [](SessionRunInfo* i) { i->dataset = "Bogus"; }},
      {"scale", [](SessionRunInfo* i) { i->scale = 0.0; }},
      {"scale", [](SessionRunInfo* i) { i->scale = std::nan(""); }},
      {"scale", [](SessionRunInfo* i) { i->scale = 1e300; }},
      {"oracle_noise", [](SessionRunInfo* i) { i->config.oracle_noise = 2; }},
      {"oracle_noise",
       [](SessionRunInfo* i) { i->config.oracle_noise = std::nan(""); }},
      {"committee_size",
       [](SessionRunInfo* i) { i->config.approach.committee_size = 1; }},
      {"committee_size",
       [](SessionRunInfo* i) { i->config.approach.committee_size = -3; }},
      {"num_trees",
       [](SessionRunInfo* i) { i->config.approach = TreesSpec(0); }},
      {"selector",  // Forest-QBC on the SVM (Fig. 2).
       [](SessionRunInfo* i) {
         i->config.approach.selector = SelectorKind::kForestQbc;
       }},
      {"active_ensemble",
       [](SessionRunInfo* i) {
         i->config.approach = TreesSpec(5);
         i->config.approach.active_ensemble = true;
       }},
      {"ensemble_precision",
       [](SessionRunInfo* i) {
         i->config.approach = LinearMarginEnsembleSpec(0.0);
       }},
  };
  for (const auto& row : rows) {
    SessionRunInfo info = saved.info;
    row.edit(&info);
    SessionSnapshot bad = saved.snapshot;
    bad.set("HRUN", RunSection(info, 0));
    SessionRunInfo decoded;
    std::string error;
    EXPECT_FALSE(ReadSessionRunInfo(bad, &decoded, &error)) << row.field;
    EXPECT_NE(error.find(row.field), std::string::npos)
        << row.field << ": " << error;
  }
}

// Malformed harness sections fail with an error naming the section.
TEST(SessionRunnerTest, MalformedHarnessSectionsFail) {
  const SavedRun& saved = SavedQbcRun();
  const std::string run = saved.snapshot.section("HRUN");
  // The learner code follows the dataset string, the data seed, the scale,
  // the cache code, the oracle noise and the holdout byte.
  std::string bad_learner = run;
  bad_learner[8 + saved.info.dataset.size() + 8 + 8 + 1 + 8 + 1] = 9;
  ByteWriter huge_count;
  huge_count.U64(~uint64_t{0});
  const struct {
    const char* name;
    const char* tag;
    std::string payload;  // "" removes the section.
    const char* expected;
  } rows[] = {
      {"missing run section", "HRUN", "", "missing section 'HRUN'"},
      {"truncated run section", "HRUN", run.substr(0, run.size() - 1),
       "malformed run section 'HRUN'"},
      {"trailing byte", "HRUN", run + "x", "malformed run section 'HRUN'"},
      {"dataset length past the bytes", "HRUN", huge_count.Take() + run,
       "malformed run section 'HRUN'"},
      {"cache code 3", "HRUN", RunSection(saved.info, 3),
       "malformed run section 'HRUN'"},
      {"learner code 9", "HRUN", bad_learner,
       "malformed run section 'HRUN'"},
      {"missing metrics section", "HMET", "", "missing harness section 'HMET'"},
      {"metric count past the bytes", "HMET",
       std::string("\xff\xff\xff\xff\xff\xff\xff\x7f", 8),
       "malformed metrics section 'HMET'"},
      {"trailing metrics byte", "HMET", saved.snapshot.section("HMET") + "x",
       "malformed metrics section 'HMET'"},
  };
  for (const auto& row : rows) {
    SessionSnapshot bad = saved.snapshot;
    if (row.payload.empty()) {
      bad.sections.erase(row.tag);
    } else {
      bad.set(row.tag, row.payload);
    }
    std::string error;
    SessionRunInfo info;
    if (ReadSessionRunInfo(bad, &info, &error)) {
      EXPECT_EQ(SessionRunner::Restore(SmallAbtBuy(), info.config, bad,
                                       &error),
                nullptr)
          << row.name;
    }
    EXPECT_NE(error.find(row.expected), std::string::npos)
        << row.name << ": " << error;
  }
  // The untouched snapshot restores.
  std::string error;
  SessionRunInfo info;
  ASSERT_TRUE(ReadSessionRunInfo(saved.snapshot, &info, &error)) << error;
  EXPECT_NE(SessionRunner::Restore(SmallAbtBuy(), info.config,
                                   saved.snapshot, &error),
            nullptr)
      << error;
}

// ---- State-machine rejections -----------------------------------------

TEST(LabelingSessionTest, InvalidTransitionsAreRecoverable) {
  const Problem problem = MakeProblem(400, 6);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());

  // kNeedsStep: only Step() is valid.
  EXPECT_FALSE(session.SubmitLabels());
  EXPECT_FALSE(session.error().empty());
  EXPECT_TRUE(session.NextBatch().empty());
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);

  ASSERT_TRUE(session.Step());
  EXPECT_EQ(session.state(), SessionState::kBatchReady);
  // kBatchReady: only NextBatch() is valid.
  EXPECT_FALSE(session.Step());
  EXPECT_FALSE(session.SubmitLabels());
  EXPECT_EQ(session.state(), SessionState::kBatchReady);

  const std::vector<size_t> batch = session.NextBatch();
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(session.state(), SessionState::kAwaitingLabels);
  EXPECT_EQ(session.pending_batch(), batch);

  ASSERT_TRUE(session.SubmitLabels());
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);
  // Double submission is rejected, state unchanged.
  EXPECT_FALSE(session.SubmitLabels());
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);

  // The session still works after every rejection above.
  session.Run();
  EXPECT_EQ(session.state(), SessionState::kFinished);
}

TEST(LabelingSessionTest, RejectsBadExternalLabels) {
  const Problem problem = MakeProblem(400, 7);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  ASSERT_TRUE(session.Step());
  const std::vector<size_t> batch = session.NextBatch();
  ASSERT_FALSE(batch.empty());

  // Wrong batch size: rejected, batch still pending.
  const std::vector<int> short_labels(batch.size() - 1, 0);
  EXPECT_FALSE(session.SubmitLabels(short_labels));
  EXPECT_EQ(session.state(), SessionState::kAwaitingLabels);
  EXPECT_NE(session.error().find("batch"), std::string::npos);

  // Invalid label value: rejected.
  std::vector<int> bad_labels(batch.size(), 0);
  bad_labels[0] = 2;
  EXPECT_FALSE(session.SubmitLabels(bad_labels));
  EXPECT_EQ(session.state(), SessionState::kAwaitingLabels);

  // Valid external labels are accepted and advance the state machine.
  std::vector<int> labels;
  for (const size_t row : batch) labels.push_back(problem.truth[row]);
  EXPECT_TRUE(session.SubmitLabels(labels));
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);
}

TEST(LabelingSessionTest, MidIterationSaveRejected) {
  const Problem problem = MakeProblem(400, 8);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  ASSERT_TRUE(session.Step());

  SessionSnapshot snapshot;
  std::string error;
  EXPECT_FALSE(session.SaveTo(&snapshot, &error));  // kBatchReady
  EXPECT_NE(error.find("boundary"), std::string::npos) << error;

  ASSERT_FALSE(session.NextBatch().empty());
  EXPECT_FALSE(session.SaveTo(&snapshot, &error));  // kAwaitingLabels
}

}  // namespace
}  // namespace alem
