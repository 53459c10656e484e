#include "core/session.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/byte_codec.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {
namespace {

// Snapshot container (all fields little-endian host layout, through the
// byte codec of util/byte_codec.h), following the ALFM feature-cache
// conventions (features/feature_matrix.cc):
//   bytes 0..3   magic "ALSS"
//   bytes 4..7   uint32 format version (kSessionFormatVersion)
//   bytes 8..15  uint64 payload size
//   bytes 16..23 uint64 FNV-1a hash of the payload
//   bytes 24..   payload: sections, each [4-char tag][uint64 length][bytes]
constexpr char kSessionMagic[4] = {'A', 'L', 'S', 'S'};
constexpr uint32_t kSessionFormatVersion = 3;
constexpr size_t kSessionHeaderSize = 4 + 4 + 8 + 8;
constexpr size_t kTagSize = 4;

// ---- Section encodings -------------------------------------------------

// "BCFG": the ActiveLearningConfig (LoopBudget + seed + plateau +
// warm-start mode; the ensemble threshold travels in "ENSM"). The
// warm-start byte is a config knob that changes the result stream (like the
// seed), so it travels with the session and a resumed run continues in the
// saved mode.
std::string EncodeConfig(const ActiveLearningConfig& config) {
  ByteWriter w;
  w.U64(config.seed_size);
  w.U64(config.batch_size);
  w.U64(config.max_labels);
  w.F64(config.target_f1);
  w.U64(config.seed);
  w.U64(config.plateau_window);
  w.U8(static_cast<uint8_t>(config.warm_start));
  return w.Take();
}

bool DecodeConfig(std::string_view blob, ActiveLearningConfig* config) {
  ByteReader r(blob);
  uint64_t seed_size = 0;
  uint64_t batch_size = 0;
  uint64_t max_labels = 0;
  uint64_t plateau_window = 0;
  uint8_t warm = 0;
  if (!r.U64(&seed_size) || !r.U64(&batch_size) || !r.U64(&max_labels) ||
      !r.F64(&config->target_f1) || !r.U64(&config->seed) ||
      !r.U64(&plateau_window) || !r.U8(&warm) || !r.AtEnd()) {
    return false;
  }
  if (batch_size == 0 || warm > 1) return false;
  config->seed_size = static_cast<size_t>(seed_size);
  config->batch_size = static_cast<size_t>(batch_size);
  config->max_labels = static_cast<size_t>(max_labels);
  config->plateau_window = static_cast<size_t>(plateau_window);
  config->warm_start = static_cast<WarmStartMode>(warm);
  return true;
}

// "POOL": labeled rows in labeling order, so a replay reproduces the pool's
// internal ordering (and thus unlabeled_rows()) exactly.
std::string EncodePool(const ActivePool& pool) {
  ByteWriter w;
  const std::vector<size_t>& rows = pool.labeled_rows();
  w.U64(rows.size());
  for (const size_t row : rows) {
    w.U64(row);
    w.U8(static_cast<uint8_t>(pool.LabelOf(row)));
  }
  return w.Take();
}

bool ReplayPool(std::string_view blob, ActivePool* pool, std::string* error) {
  ByteReader r(blob);
  uint64_t count = 0;
  if (!r.U64(&count)) {
    *error = "session snapshot: truncated pool section";
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t row = 0;
    uint8_t label = 0;
    if (!r.U64(&row) || !r.U8(&label)) {
      *error = "session snapshot: truncated pool section";
      return false;
    }
    if (row >= pool->size() || (label != 0 && label != 1) ||
        pool->IsLabeled(static_cast<size_t>(row))) {
      *error = "session snapshot: invalid pool entry";
      return false;
    }
    pool->AddLabel(static_cast<size_t>(row), static_cast<int>(label));
  }
  if (!r.AtEnd()) {
    *error = "session snapshot: trailing bytes in pool section";
    return false;
  }
  return true;
}

// "CRVE": the cumulative IterationStats curve, every field, doubles as bit
// patterns — a resumed run's stitched curve is byte-for-byte the original's
// prefix plus its own iterations.
std::string EncodeCurve(const std::vector<IterationStats>& curve) {
  ByteWriter w;
  w.U64(curve.size());
  for (const IterationStats& s : curve) {
    w.U64(s.iteration);
    w.U64(s.labels_used);
    w.U64(s.metrics.true_positives);
    w.U64(s.metrics.false_positives);
    w.U64(s.metrics.false_negatives);
    w.U64(s.metrics.true_negatives);
    w.F64(s.metrics.precision);
    w.F64(s.metrics.recall);
    w.F64(s.metrics.f1);
    w.F64(s.train_seconds);
    w.F64(s.select_seconds);
    w.F64(s.committee_seconds);
    w.F64(s.scoring_seconds);
    w.F64(s.evaluate_seconds);
    w.F64(s.label_seconds);
    w.F64(s.wait_seconds);
    w.U64(s.dnf_atoms);
    w.I64(s.tree_depth);
    w.U64(s.scored_examples);
    w.U64(s.pruned_examples);
    w.U64(s.ensemble_size);
  }
  return w.Take();
}

// Bytes per CRVE entry: 21 fields of 8 bytes each.
constexpr size_t kCurveEntryBytes = 21 * 8;

bool DecodeCurve(std::string_view blob, std::vector<IterationStats>* curve) {
  ByteReader r(blob);
  uint64_t count = 0;
  if (!r.Count(&count, kCurveEntryBytes)) return false;
  std::vector<IterationStats> parsed;
  parsed.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    IterationStats s;
    uint64_t iteration = 0;
    uint64_t labels_used = 0;
    uint64_t tp = 0;
    uint64_t fp = 0;
    uint64_t fn = 0;
    uint64_t tn = 0;
    uint64_t dnf_atoms = 0;
    int64_t tree_depth = 0;
    uint64_t scored = 0;
    uint64_t pruned = 0;
    uint64_t ensemble = 0;
    if (!r.U64(&iteration) || !r.U64(&labels_used) || !r.U64(&tp) ||
        !r.U64(&fp) || !r.U64(&fn) || !r.U64(&tn) ||
        !r.F64(&s.metrics.precision) || !r.F64(&s.metrics.recall) ||
        !r.F64(&s.metrics.f1) || !r.F64(&s.train_seconds) ||
        !r.F64(&s.select_seconds) || !r.F64(&s.committee_seconds) ||
        !r.F64(&s.scoring_seconds) || !r.F64(&s.evaluate_seconds) ||
        !r.F64(&s.label_seconds) || !r.F64(&s.wait_seconds) ||
        !r.U64(&dnf_atoms) || !r.I64(&tree_depth) || !r.U64(&scored) ||
        !r.U64(&pruned) || !r.U64(&ensemble)) {
      return false;
    }
    s.iteration = static_cast<size_t>(iteration);
    s.labels_used = static_cast<size_t>(labels_used);
    s.metrics.true_positives = static_cast<size_t>(tp);
    s.metrics.false_positives = static_cast<size_t>(fp);
    s.metrics.false_negatives = static_cast<size_t>(fn);
    s.metrics.true_negatives = static_cast<size_t>(tn);
    s.dnf_atoms = static_cast<size_t>(dnf_atoms);
    s.tree_depth = static_cast<int>(tree_depth);
    s.scored_examples = static_cast<size_t>(scored);
    s.pruned_examples = static_cast<size_t>(pruned);
    s.ensemble_size = static_cast<size_t>(ensemble);
    parsed.push_back(s);
  }
  if (!r.AtEnd()) return false;
  *curve = std::move(parsed);
  return true;
}

// Full-rescore audit cadence for the incremental progressive-F1 tally:
// every kEvalAuditInterval incremental evaluations, Step recounts the whole
// prediction vector and asserts the tally matches exactly.
constexpr uint32_t kEvalAuditInterval = 16;

// "IEVL": the incremental-evaluation cache — previous predictions (u8),
// their confusion tally, the audit countdown and the plateau stable count.
// Every snapshot past iteration 0 carries it (the first Step fills it), and
// a restore without it, or with one that does not fit the evaluator, fails:
// the stable count decides the plateau stop, and a cold cache would rescore
// every row and restart the audit countdown, so eval.rows_rescored would no
// longer stitch.
std::string EncodeEvalCache(const std::vector<uint8_t>& cache, uint64_t tp,
                            uint64_t fp, uint64_t fn, uint64_t tn,
                            uint32_t audit_countdown, uint64_t stable) {
  ByteWriter w;
  w.U64(cache.size());
  w.Bytes({reinterpret_cast<const char*>(cache.data()), cache.size()});
  w.U64(tp);
  w.U64(fp);
  w.U64(fn);
  w.U64(tn);
  w.U32(audit_countdown);
  w.U64(stable);
  return w.Take();
}

struct DecodedEvalCache {
  std::vector<uint8_t> predictions;
  uint64_t tally[4] = {0, 0, 0, 0};  // TP, FP, FN, TN.
  uint32_t audit_countdown = 0;
  uint64_t stable = 0;
};

// Decodes "IEVL" for an evaluator with `truth` at `iteration` (>= 1). The
// predictions must cover exactly the evaluator's rows and the tally must be
// their confusion counts against `truth`, so the restored cache is exactly
// the one the paused run held.
bool DecodeEvalCache(std::string_view blob, const std::vector<int>& truth,
                     size_t iteration, DecodedEvalCache* out,
                     std::string* error) {
  ByteReader r(blob);
  uint64_t count = 0;
  if (!r.Count(&count, 1)) {
    *error = "session snapshot: truncated evaluation-cache section 'IEVL'";
    return false;
  }
  if (count != truth.size()) {
    *error = "session snapshot: evaluation-cache section 'IEVL' has " +
             std::to_string(count) + " rows for an evaluator of " +
             std::to_string(truth.size());
    return false;
  }
  DecodedEvalCache parsed;
  parsed.predictions.resize(truth.size());
  uint64_t expected[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < truth.size(); ++i) {
    uint8_t& p = parsed.predictions[i];
    if (!r.U8(&p)) {
      *error = "session snapshot: truncated evaluation-cache section 'IEVL'";
      return false;
    }
    if (p > 1) {
      *error = "session snapshot: evaluation-cache section 'IEVL' holds a "
               "prediction other than 0/1";
      return false;
    }
    ++expected[(p == 1 ? 0 : 2) + (truth[i] == 1 ? 0 : 1)];
  }
  if (!r.U64(&parsed.tally[0]) || !r.U64(&parsed.tally[1]) ||
      !r.U64(&parsed.tally[2]) || !r.U64(&parsed.tally[3]) ||
      !r.U32(&parsed.audit_countdown) || !r.U64(&parsed.stable) ||
      !r.AtEnd()) {
    *error = "session snapshot: malformed evaluation-cache section 'IEVL'";
    return false;
  }
  if (!std::equal(expected, expected + 4, parsed.tally)) {
    *error = "session snapshot: evaluation-cache section 'IEVL' tally "
             "disagrees with its predictions";
    return false;
  }
  if (parsed.audit_countdown == 0 ||
      parsed.audit_countdown > kEvalAuditInterval) {
    *error = "session snapshot: evaluation-cache section 'IEVL' audit "
             "countdown out of range";
    return false;
  }
  // Step 1 fills a cold cache, so at most iteration - 1 Steps were stable.
  if (parsed.stable >= iteration) {
    *error = "session snapshot: evaluation-cache section 'IEVL' counts " +
             std::to_string(parsed.stable) + " stable steps at iteration " +
             std::to_string(iteration);
    return false;
  }
  *out = std::move(parsed);
  return true;
}

// "ENSM": active-ensemble state — the precision threshold tau, the accepted
// member count, and the per-pool-row coverage mask (u8 0/1).
std::string EncodeEnsemble(double precision, size_t accepted,
                           const std::vector<uint8_t>& covered) {
  ByteWriter w;
  w.F64(precision);
  w.U64(accepted);
  w.U64(covered.size());
  w.Bytes({reinterpret_cast<const char*>(covered.data()), covered.size()});
  return w.Take();
}

bool DecodeEnsemble(std::string_view blob, size_t pool_size,
                    double* precision, size_t* accepted,
                    std::vector<uint8_t>* covered, std::string* error) {
  ByteReader r(blob);
  uint64_t count = 0;
  uint64_t rows = 0;
  if (!r.F64(precision) || !r.U64(&count) || !r.U64(&rows)) {
    *error = "session snapshot: truncated ensemble section";
    return false;
  }
  if (!(*precision > 0.0)) {
    *error = "session snapshot: ensemble precision threshold must be > 0";
    return false;
  }
  if (rows != pool_size) {
    *error = "session snapshot: ensemble coverage mask has " +
             std::to_string(rows) + " rows for a pool of " +
             std::to_string(pool_size);
    return false;
  }
  covered->assign(pool_size, 0);
  for (uint8_t& flag : *covered) {
    if (!r.U8(&flag)) {
      *error = "session snapshot: truncated ensemble section";
      return false;
    }
    if (flag > 1) {
      *error = "session snapshot: ensemble coverage mask byte out of range";
      return false;
    }
  }
  if (!r.AtEnd()) {
    *error = "session snapshot: trailing bytes in ensemble section";
    return false;
  }
  *accepted = static_cast<size_t>(count);
  return true;
}

// A candidate's precision is judged only once it predicts at least this many
// labeled rows positive; fewer would allow acceptance on vacuous evidence.
constexpr size_t kMinLabeledPositives = 5;

// "SCOR": the session's own progress record.
std::string EncodeCore(size_t iteration, uint32_t resume_count,
                       SessionState state, StopReason stop_reason,
                       const SeedResult& seed_result) {
  ByteWriter w;
  w.U64(iteration);
  w.U32(resume_count);
  w.U32(static_cast<uint32_t>(state));
  w.U32(static_cast<uint32_t>(stop_reason));
  w.U64(seed_result.labeled);
  w.U8(seed_result.has_both_classes ? 1 : 0);
  return w.Take();
}

struct DecodedCore {
  size_t iteration = 0;
  uint32_t resume_count = 0;
  SessionState state = SessionState::kNeedsStep;
  StopReason stop_reason = StopReason::kRunning;
  SeedResult seed_result;
};

bool DecodeCore(std::string_view blob, DecodedCore* core) {
  ByteReader r(blob);
  uint64_t iteration = 0;
  uint32_t state = 0;
  uint32_t stop_reason = 0;
  uint64_t seed_labeled = 0;
  uint8_t has_both = 0;
  if (!r.U64(&iteration) || !r.U32(&core->resume_count) || !r.U32(&state) ||
      !r.U32(&stop_reason) || !r.U64(&seed_labeled) || !r.U8(&has_both) ||
      !r.AtEnd()) {
    return false;
  }
  // Only iteration-boundary states are valid snapshot states.
  if (state != static_cast<uint32_t>(SessionState::kNeedsStep) &&
      state != static_cast<uint32_t>(SessionState::kFinished)) {
    return false;
  }
  if (stop_reason > static_cast<uint32_t>(StopReason::kSelectorExhausted)) {
    return false;
  }
  if (has_both > 1) return false;
  core->iteration = static_cast<size_t>(iteration);
  core->state = static_cast<SessionState>(state);
  core->stop_reason = static_cast<StopReason>(stop_reason);
  core->seed_result.labeled = static_cast<size_t>(seed_labeled);
  core->seed_result.has_both_classes = has_both == 1;
  return true;
}

}  // namespace

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

bool DecodeSessionLoopConfig(const SessionSnapshot& snapshot,
                             ActiveLearningConfig* config) {
  return snapshot.has("BCFG") &&
         DecodeConfig(snapshot.section("BCFG"), config);
}

std::string_view SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kNeedsStep:
      return "needs_step";
    case SessionState::kBatchReady:
      return "batch_ready";
    case SessionState::kAwaitingLabels:
      return "awaiting_labels";
    case SessionState::kFinished:
      return "finished";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string_view StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kRunning:
      return "running";
    case StopReason::kBudgetExhausted:
      return "budget_exhausted";
    case StopReason::kTargetReached:
      return "target_reached";
    case StopReason::kPlateaued:
      return "plateaued";
    case StopReason::kSelectorExhausted:
      return "selector_exhausted";
  }
  return "unknown";
}

// ---- SessionSnapshot ---------------------------------------------------

bool SessionSnapshot::has(std::string_view tag) const {
  return sections.find(std::string(tag)) != sections.end();
}

const std::string& SessionSnapshot::section(std::string_view tag) const {
  static const std::string kEmpty;
  const auto it = sections.find(std::string(tag));
  return it == sections.end() ? kEmpty : it->second;
}

void SessionSnapshot::set(std::string_view tag, std::string payload) {
  ALEM_CHECK_EQ(tag.size(), kTagSize);
  sections[std::string(tag)] = std::move(payload);
}

std::string SessionSnapshot::Serialize() const {
  ByteWriter payload;
  for (const auto& [tag, bytes] : sections) {
    ALEM_CHECK_EQ(tag.size(), kTagSize);
    payload.Bytes(tag);
    payload.Str(bytes);
  }
  const std::string body = payload.Take();
  ByteWriter out;
  out.Bytes({kSessionMagic, sizeof(kSessionMagic)});
  out.U32(kSessionFormatVersion);
  out.U64(body.size());
  out.U64(Fnv1a(body.data(), body.size()));
  out.Bytes(body);
  return out.Take();
}

bool SessionSnapshot::Parse(std::string_view blob, SessionSnapshot* out,
                            std::string* error) {
  ByteReader header(blob);
  std::string_view magic;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  if (!header.Bytes(sizeof(kSessionMagic), &magic) || !header.U32(&version) ||
      !header.U64(&payload_size) || !header.U64(&checksum)) {
    *error = "session snapshot: truncated header";
    return false;
  }
  if (magic != std::string_view(kSessionMagic, sizeof(kSessionMagic))) {
    *error = "session snapshot: bad magic (not an ALSS file)";
    return false;
  }
  if (version != kSessionFormatVersion) {
    *error = "session snapshot: unsupported format version " +
             std::to_string(version) + " (expected " +
             std::to_string(kSessionFormatVersion) + ")";
    return false;
  }
  if (header.remaining() != payload_size) {
    *error = "session snapshot: payload size mismatch (truncated or padded)";
    return false;
  }
  const std::string_view payload = blob.substr(kSessionHeaderSize);
  if (Fnv1a(payload.data(), payload.size()) != checksum) {
    *error = "session snapshot: checksum mismatch (corrupt file)";
    return false;
  }

  SessionSnapshot parsed;
  ByteReader r(payload);
  while (!r.AtEnd()) {
    std::string_view tag;
    uint64_t length = 0;
    std::string_view bytes;
    if (!r.Bytes(kTagSize, &tag) || !r.U64(&length)) {
      *error = "session snapshot: truncated section header";
      return false;
    }
    if (!r.Bytes(length, &bytes)) {
      *error = "session snapshot: truncated section '" + std::string(tag) +
               "'";
      return false;
    }
    parsed.sections[std::string(tag)] = std::string(bytes);
  }
  *out = std::move(parsed);
  return true;
}

bool SessionSnapshot::WriteFile(const std::string& path,
                                std::string* error) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "session snapshot: cannot open '" + path + "' for writing";
    return false;
  }
  const std::string blob = Serialize();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) {
    *error = "session snapshot: short write to '" + path + "'";
    return false;
  }
  return true;
}

bool SessionSnapshot::ReadFile(const std::string& path, SessionSnapshot* out,
                               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "session snapshot: cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), out, error);
}

// ---- LabelingSession ---------------------------------------------------

LabelingSession::LabelingSession(Learner& learner, ExampleSelector& selector,
                                 Oracle& oracle, const Evaluator& evaluator,
                                 ActivePool& pool,
                                 const ActiveLearningConfig& config)
    : LabelingSession(learner, selector, oracle, evaluator, pool, config,
                      /*seed_pool=*/true) {}

LabelingSession::LabelingSession(Learner& learner, ExampleSelector& selector,
                                 Oracle& oracle, const Evaluator& evaluator,
                                 ActivePool& pool,
                                 const ActiveLearningConfig& config,
                                 bool seed_pool)
    : learner_(learner),
      selector_(selector),
      oracle_(oracle),
      evaluator_(evaluator),
      pool_(pool),
      config_(config) {
  ALEM_CHECK(selector.CompatibleWith(learner));
  ALEM_CHECK_GT(config.batch_size, 0u);
  if (ensemble()) ensemble_covered_.assign(pool.size(), 0);
  run_span_ = std::make_unique<obs::ObsSpan>("loop.run", "core");
  if (seed_pool) {
    obs::ObsSpan seed_span("loop.seed", "core");
    seed_result_ = SeedPool(pool_, oracle_, config_.seed_size, config_.seed);
  }
}

LabelingSession::~LabelingSession() = default;

bool LabelingSession::Step() {
  if (state_ != SessionState::kNeedsStep) {
    return Reject("Step() requires the needs_step state (currently " +
                  std::string(SessionStateName(state_)) + ")");
  }
  static obs::Counter& iteration_counter =
      obs::MetricsRegistry::Global().GetCounter("loop.iterations");
  ++iteration_;
  iteration_span_ = std::make_unique<obs::ObsSpan>("loop.iteration", "core");
  iteration_counter.Increment();
  stats_ = IterationStats{};
  stats_.iteration = iteration_;
  stats_.labels_used = pool_.num_labeled();

  // 1. Train on the cumulative labeled data — for an ensemble, the
  // candidate on the uncovered rows, and only while they hold both classes.
  // Mode kOn asks the learner to warm-start from the previous model.
  const std::vector<int> labels = pool_.ActiveLabeledLabels();
  trainable_ = !ensemble() ||
               (std::count(labels.begin(), labels.end(), 1) > 0 &&
                std::count(labels.begin(), labels.end(), 0) > 0);
  bool precise = false;
  {
    obs::ObsSpan train_span("loop.train", "core");
    if (trainable_) {
      learner_.Fit(pool_.ActiveLabeledFeatures(), labels,
                   config_.warm_start == WarmStartMode::kOn ? FitHint::kWarm
                                                            : FitHint::kCold);
    }
    // Ensemble precision gate: judge the candidate on the labeled rows it
    // predicts positive (their true labels came from the Oracle).
    if (ensemble() && trainable_ && learner_.trained()) {
      const std::vector<size_t> rows = pool_.ActiveLabeledRows();
      std::vector<int> predicted(rows.size());
      learner_.PredictBatch(pool_.features(), rows, predicted.data());
      size_t positives = 0;
      size_t correct = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (predicted[i] != 1) continue;
        ++positives;
        correct += pool_.LabelOf(rows[i]) == 1 ? 1 : 0;
      }
      precise = positives >= kMinLabeledPositives &&
                static_cast<double>(correct) /
                        static_cast<double>(positives) >=
                    config_.ensemble_precision;
    }
    stats_.train_seconds = train_span.Close();
  }

  // 2. Evaluate. Excluded from user wait time: the paper's wait metric
  // only counts work between the user's label submissions.
  {
    obs::ObsSpan evaluate_span("loop.evaluate", "core");
    const std::vector<size_t>& eval_rows = evaluator_.eval_rows();
    std::vector<int> predictions(eval_rows.size());
    if (ensemble()) {
      // The candidate joins the union only while it looks precise (or
      // before any acceptance, when there is nothing else to report): a
      // candidate trained on the post-coverage residue would otherwise
      // pollute the union with false positives.
      PredictEnsemble(eval_rows,
                      trainable_ && learner_.trained() &&
                          (ensemble_accepted_ == 0 || precise),
                      predictions.data());
    } else {
      // One batched sweep through the learner's vector kernel (the fan-out
      // runs under "ml.batch" inside this evaluate span).
      learner_.PredictBatch(pool_.features(), eval_rows, predictions.data());
    }
    stats_.metrics = EvaluateIncremental(predictions);
    CollectInterpretability(learner_, &stats_);
    stats_.evaluate_seconds = evaluate_span.Close();
  }

  if (ensemble()) {
    if (precise) AcceptCandidate();
    static obs::Gauge& accepted_gauge =
        obs::MetricsRegistry::Global().GetGauge("ensemble.accepted");
    accepted_gauge.Set(static_cast<double>(ensemble_accepted_));
    stats_.ensemble_size = ensemble_accepted_;
  }

  state_ = SessionState::kBatchReady;
  return true;
}

std::vector<size_t> LabelingSession::NextBatch() {
  if (state_ != SessionState::kBatchReady) {
    Reject("NextBatch() requires the batch_ready state (currently " +
           std::string(SessionStateName(state_)) + ")");
    return {};
  }

  // 3. Select the next batch.
  const bool plateaued = config_.plateau_window > 0 &&
                         stable_iterations_ >= config_.plateau_window;
  const bool budget_exhausted = pool_.num_labeled() >= config_.max_labels;
  const bool target_reached =
      config_.target_f1 > 0.0 && stats_.metrics.f1 >= config_.target_f1;
  std::vector<size_t> batch;
  {
    obs::ObsSpan select_span("loop.select", "core");
    if (!budget_exhausted && !target_reached && !plateaued && trainable_ &&
        !pool_.unlabeled_rows().empty()) {
      SelectionTiming timing;
      batch = selector_.Select(
          learner_, pool_,
          std::min(config_.batch_size,
                   config_.max_labels - pool_.num_labeled()),
          &timing);
      stats_.committee_seconds = timing.committee_seconds;
      stats_.scoring_seconds = timing.scoring_seconds;
      stats_.scored_examples = timing.scored_examples;
      stats_.pruned_examples = timing.pruned_examples;
    }
    stats_.select_seconds = select_span.Close();
  }

  if (batch.empty()) {
    // Termination: budget, target, plateau, or selector exhaustion. The
    // no-op label span keeps the terminating iteration's trace shape
    // identical to the historical loop's.
    {
      obs::ObsSpan label_span("loop.label", "core");
      stats_.label_seconds = label_span.Close();
    }
    FinishIteration();
    Finish(budget_exhausted   ? StopReason::kBudgetExhausted
           : target_reached   ? StopReason::kTargetReached
           : plateaued        ? StopReason::kPlateaued
                              : StopReason::kSelectorExhausted);
    return {};
  }

  pending_batch_ = batch;
  state_ = SessionState::kAwaitingLabels;
  return batch;
}

bool LabelingSession::SubmitLabels() {
  if (state_ != SessionState::kAwaitingLabels) {
    return Reject("SubmitLabels() without a pending batch (currently " +
                  std::string(SessionStateName(state_)) + ")");
  }
  // 4. Query the Oracle and grow the training set. Label time is the
  // user's own and excluded from wait time.
  {
    obs::ObsSpan label_span("loop.label", "core");
    for (const size_t row : pending_batch_) {
      pool_.AddLabel(row, oracle_.Label(row));
    }
    stats_.label_seconds = label_span.Close();
  }
  pending_batch_.clear();
  FinishIteration();
  state_ = SessionState::kNeedsStep;
  return true;
}

bool LabelingSession::SubmitLabels(std::span<const int> labels) {
  if (state_ != SessionState::kAwaitingLabels) {
    return Reject("SubmitLabels() without a pending batch (currently " +
                  std::string(SessionStateName(state_)) + ")");
  }
  if (labels.size() != pending_batch_.size()) {
    return Reject("SubmitLabels(): got " + std::to_string(labels.size()) +
                  " labels for a batch of " +
                  std::to_string(pending_batch_.size()));
  }
  for (const int label : labels) {
    if (label != 0 && label != 1) {
      return Reject("SubmitLabels(): labels must be 0 or 1 (got " +
                    std::to_string(label) + ")");
    }
  }
  {
    obs::ObsSpan label_span("loop.label", "core");
    for (size_t i = 0; i < pending_batch_.size(); ++i) {
      pool_.AddLabel(pending_batch_[i], labels[i]);
    }
    stats_.label_seconds = label_span.Close();
  }
  pending_batch_.clear();
  FinishIteration();
  state_ = SessionState::kNeedsStep;
  return true;
}

void LabelingSession::Run(size_t stop_after) {
  while (!finished()) {
    if (stop_after > 0 && state_ == SessionState::kNeedsStep &&
        curve_.size() >= stop_after) {
      return;  // Paused at an iteration boundary; SaveTo() is valid here.
    }
    switch (state_) {
      case SessionState::kNeedsStep:
        ALEM_CHECK(Step());
        break;
      case SessionState::kBatchReady:
        NextBatch();
        break;
      case SessionState::kAwaitingLabels:
        ALEM_CHECK(SubmitLabels());
        break;
      default:
        ALEM_CHECK(false);  // kFinished/kFailed end the loop above.
    }
  }
  ALEM_CHECK(state_ == SessionState::kFinished);
}

void LabelingSession::PredictEnsemble(const std::vector<size_t>& rows,
                                      bool with_candidate, int* out) const {
  // Gather exactly the rows the candidate must judge (those no accepted
  // member covers), sweep them in one batch, then scatter back.
  std::vector<size_t> candidate_rows;
  std::vector<size_t> slots;
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = ensemble_covered_[rows[i]];
    if (out[i] == 0 && with_candidate) {
      candidate_rows.push_back(rows[i]);
      slots.push_back(i);
    }
  }
  if (candidate_rows.empty()) return;
  std::vector<int> predicted(candidate_rows.size());
  learner_.PredictBatch(pool_.features(), candidate_rows, predicted.data());
  for (size_t j = 0; j < slots.size(); ++j) out[slots[j]] = predicted[j];
}

void LabelingSession::AcceptCandidate() {
  obs::ObsSpan coverage_span("ensemble.coverage", "core");
  ++ensemble_accepted_;
  // Scan every row no member covers yet — held-out test rows included:
  // they are excluded from the start, but the ensemble still predicts them
  // (Exclude is idempotent).
  std::vector<size_t> uncovered;
  uncovered.reserve(pool_.size());
  for (size_t row = 0; row < pool_.size(); ++row) {
    if (ensemble_covered_[row] == 0) uncovered.push_back(row);
  }
  std::vector<int> predicted(uncovered.size());
  learner_.PredictBatch(pool_.features(), uncovered, predicted.data());
  for (size_t j = 0; j < uncovered.size(); ++j) {
    if (predicted[j] != 1) continue;
    ensemble_covered_[uncovered[j]] = 1;
    pool_.Exclude(uncovered[j]);
  }
}

void LabelingSession::FinishIteration() {
  static obs::Histogram& wait_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "loop.wait_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0});
  static obs::Gauge& labels_gauge =
      obs::MetricsRegistry::Global().GetGauge("loop.labels_used");
  // User wait time is the sum of the measured phase spans (train +
  // select); summing spans rather than re-reading a restarted wall clock
  // keeps evaluator time out of it (paper §6, Fig. 13).
  stats_.wait_seconds = stats_.train_seconds + stats_.select_seconds;
  wait_histogram.Observe(stats_.wait_seconds);
  labels_gauge.Set(static_cast<double>(pool_.num_labeled()));
  curve_.push_back(stats_);
  iteration_span_->Close();
  iteration_span_.reset();
}

void LabelingSession::Finish(StopReason reason) {
  stop_reason_ = reason;
  state_ = SessionState::kFinished;
  // High-water-mark memory at the end of the run, for the flight recorder.
  static obs::Gauge& peak_rss_gauge =
      obs::MetricsRegistry::Global().GetGauge("process.peak_rss_bytes");
  peak_rss_gauge.Set(static_cast<double>(obs::PeakRssBytes()));
  run_span_->Close();
}

bool LabelingSession::Reject(std::string message) {
  error_ = std::move(message);
  return false;
}

BinaryMetrics LabelingSession::EvaluateIncremental(
    const std::vector<int>& predictions) {
  const std::vector<int>& truth = evaluator_.eval_truth();
  ALEM_CHECK_EQ(predictions.size(), truth.size());
  static obs::Counter& rescored =
      obs::MetricsRegistry::Global().GetCounter("eval.rows_rescored");
  static obs::Gauge& pool_rows =
      obs::MetricsRegistry::Global().GetGauge("eval.pool_rows");
  const size_t n = predictions.size();
  // Published so tooling can bound eval.rows_rescored against the pool
  // size (obs::ValidateReport).
  pool_rows.Set(static_cast<double>(n));

  if (eval_audit_countdown_ == 0) {
    // Cold cache (the first Step): one full rescore seeds the tally, and
    // there is no previous prediction to be stable against.
    const BinaryMetrics full = ComputeBinaryMetrics(predictions, truth);
    eval_tp_ = full.true_positives;
    eval_fp_ = full.false_positives;
    eval_fn_ = full.false_negatives;
    eval_tn_ = full.true_negatives;
    eval_cache_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      eval_cache_[i] = static_cast<uint8_t>(predictions[i] == 1 ? 1 : 0);
    }
    eval_audit_countdown_ = kEvalAuditInterval;
    stable_iterations_ = 0;
    rescored.Add(n);
    return full;
  }

  // Warm path: move only the changed rows between confusion buckets. The
  // tally stays exactly the full recount by induction, and the returned
  // doubles are bitwise-equal because MetricsFromCounts is the single
  // counts-to-metrics function.
  uint64_t changed = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t current = predictions[i] == 1 ? 1 : 0;
    const uint8_t previous = eval_cache_[i];
    if (current == previous) continue;
    ++changed;
    const bool actual = truth[i] == 1;
    if (previous == 1) {
      --(actual ? eval_tp_ : eval_fp_);
    } else {
      --(actual ? eval_fn_ : eval_tn_);
    }
    if (current == 1) {
      ++(actual ? eval_tp_ : eval_fp_);
    } else {
      ++(actual ? eval_fn_ : eval_tn_);
    }
    eval_cache_[i] = current;
  }
  rescored.Add(changed);
  // Plateau detection: consecutive Steps whose predictions all match the
  // previous Step's.
  stable_iterations_ = changed == 0 ? stable_iterations_ + 1 : 0;

  // Periodic audit: recount everything and require exact agreement.
  if (--eval_audit_countdown_ == 0) {
    eval_audit_countdown_ = kEvalAuditInterval;
    const BinaryMetrics full = ComputeBinaryMetrics(predictions, truth);
    rescored.Add(n);
    ALEM_CHECK_EQ(full.true_positives, eval_tp_);
    ALEM_CHECK_EQ(full.false_positives, eval_fp_);
    ALEM_CHECK_EQ(full.false_negatives, eval_fn_);
    ALEM_CHECK_EQ(full.true_negatives, eval_tn_);
  }
  return MetricsFromCounts(eval_tp_, eval_fp_, eval_fn_, eval_tn_);
}

// ---- Snapshot / restore ------------------------------------------------

bool LabelingSession::SaveTo(SessionSnapshot* snapshot,
                             std::string* error) const {
  if (state_ != SessionState::kNeedsStep &&
      state_ != SessionState::kFinished) {
    *error = "session save requires an iteration boundary (needs_step or "
             "finished), currently " +
             std::string(SessionStateName(state_));
    return false;
  }
  snapshot->set("BCFG", EncodeConfig(config_));
  snapshot->set("SCOR", EncodeCore(iteration_, resume_count_, state_,
                                   stop_reason_, seed_result_));
  snapshot->set("POOL", EncodePool(pool_));
  snapshot->set("CRVE", EncodeCurve(curve_));
  snapshot->set("LRNR", learner_.SaveModel());
  snapshot->set("SLCT", selector_.SaveState());
  snapshot->set("ORCL", oracle_.SaveState());
  if (ensemble()) {
    snapshot->set("ENSM", EncodeEnsemble(config_.ensemble_precision,
                                         ensemble_accepted_,
                                         ensemble_covered_));
  }
  // The first Step fills the evaluation cache; from then on it travels.
  if (iteration_ > 0) {
    snapshot->set("IEVL", EncodeEvalCache(eval_cache_, eval_tp_, eval_fp_,
                                          eval_fn_, eval_tn_,
                                          eval_audit_countdown_,
                                          stable_iterations_));
  }
  return true;
}

std::unique_ptr<LabelingSession> LabelingSession::Restore(
    Learner& learner, ExampleSelector& selector, Oracle& oracle,
    const Evaluator& evaluator, ActivePool& pool,
    const SessionSnapshot& snapshot, std::string* error) {
  for (const std::string_view tag : {"BCFG", "SCOR", "POOL", "CRVE"}) {
    if (!snapshot.has(tag)) {
      *error = "session snapshot: missing section '" + std::string(tag) + "'";
      return nullptr;
    }
  }
  ActiveLearningConfig config;
  if (!DecodeConfig(snapshot.section("BCFG"), &config)) {
    *error = "session snapshot: malformed config section";
    return nullptr;
  }
  DecodedCore core;
  if (!DecodeCore(snapshot.section("SCOR"), &core)) {
    *error = "session snapshot: malformed session-core section";
    return nullptr;
  }
  std::vector<IterationStats> curve;
  if (!DecodeCurve(snapshot.section("CRVE"), &curve)) {
    *error = "session snapshot: malformed curve section";
    return nullptr;
  }
  // At an iteration boundary the curve holds exactly the completed
  // iterations.
  if (core.iteration != curve.size()) {
    *error = "session snapshot: iteration count disagrees with curve length";
    return nullptr;
  }
  // The evaluation cache exists exactly once a Step has run.
  DecodedEvalCache eval_cache;
  if (core.iteration == 0) {
    if (snapshot.has("IEVL")) {
      *error = "session snapshot: unexpected section 'IEVL' at iteration 0";
      return nullptr;
    }
  } else if (!snapshot.has("IEVL")) {
    *error = "session snapshot: missing section 'IEVL'";
    return nullptr;
  } else if (!DecodeEvalCache(snapshot.section("IEVL"),
                              evaluator.eval_truth(), core.iteration,
                              &eval_cache, error)) {
    return nullptr;
  }
  if (pool.num_labeled() != 0) {
    *error = "session restore requires a freshly constructed (label-free) "
             "pool";
    return nullptr;
  }

  std::unique_ptr<LabelingSession> session(
      new LabelingSession(learner, selector, oracle, evaluator, pool, config,
                          /*seed_pool=*/false));
  if (snapshot.has("ENSM") &&
      !DecodeEnsemble(snapshot.section("ENSM"), pool.size(),
                      &session->config_.ensemble_precision,
                      &session->ensemble_accepted_,
                      &session->ensemble_covered_, error)) {
    return nullptr;
  }
  if (!ReplayPool(snapshot.section("POOL"), &pool, error)) return nullptr;
  // Re-apply the ensemble's coverage exclusions.
  for (size_t row = 0; row < session->ensemble_covered_.size(); ++row) {
    if (session->ensemble_covered_[row] != 0) pool.Exclude(row);
  }
  if (!learner.RestoreModel(snapshot.section("LRNR"))) {
    *error = "session snapshot: learner model blob does not match the "
             "configured learner";
    return nullptr;
  }
  std::string width_error;
  if (!ModelFitsPool(learner, pool.features().dims(), &width_error)) {
    *error = "session snapshot: " + width_error;
    return nullptr;
  }
  if (!selector.RestoreState(snapshot.section("SLCT"))) {
    *error = "session snapshot: selector state does not match the "
             "configured selector";
    return nullptr;
  }
  if (!oracle.RestoreState(snapshot.section("ORCL"))) {
    *error = "session snapshot: oracle state does not match the configured "
             "oracle";
    return nullptr;
  }

  session->iteration_ = core.iteration;
  session->resume_count_ = core.resume_count + 1;
  session->seed_result_ = core.seed_result;
  session->stop_reason_ = core.stop_reason;
  session->state_ = core.state;
  session->curve_ = std::move(curve);
  session->eval_cache_ = std::move(eval_cache.predictions);
  session->eval_tp_ = eval_cache.tally[0];
  session->eval_fp_ = eval_cache.tally[1];
  session->eval_fn_ = eval_cache.tally[2];
  session->eval_tn_ = eval_cache.tally[3];
  session->eval_audit_countdown_ = eval_cache.audit_countdown;
  session->stable_iterations_ = eval_cache.stable;
  if (session->state_ == SessionState::kFinished) {
    // Nothing left to run; close the run span the restoring constructor
    // opened so the trace does not dangle.
    session->run_span_->Close();
  }
  return session;
}

}  // namespace alem
