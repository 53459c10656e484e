// alem_perf: the repository's performance ledger, end to end and per layer.
//
//   alem_perf --workload=W [--seed=S] [--seconds=T] [--trace=PATH]
//             [--work-dir=DIR] [--record=FILE] [--smoke]
//   alem_perf compare A.jsonl B.jsonl
//
// One workload runs per process. It first runs pass 0 untimed and
// uninterrupted, through the library's own drivers (this also warms the
// process up), then repeats timed passes (each labels with a 300-label
// budget, batch 10, run seed S+pass) for about T seconds, and requires the
// timed pass 0 to reproduce every run's curve digest bit for bit.
// Every layer is driven through its public functions only, and every call
// is timed from outside; see README.md for the workloads and metrics.
//
// Output: provenance lines ("# ..."), one "workload metric value unit" line
// per metric, and as the last line one JSON object
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// holding the end-to-end metrics, or with --trace the per-layer metrics of
// the traced run (whose spans go to PATH as Chrome-trace JSON). The metric
// names and units in that object are checked against the BENCHMARK.json of
// the checkout the binary was built from.

#if !defined(__OPTIMIZE__)
#error "alem_perf must be built with optimisation (CMAKE_BUILD_TYPE=Release)"
#endif

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/approaches.h"
#include "core/harness.h"
#include "core/session.h"
#include "kernels/backend.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "parallel/pool.h"
#include "perf.h"
#include "synth/profiles.h"
#include "trace.h"
#include "util/flags.h"
#include "util/json.h"

namespace alem {
namespace perf {
namespace {

namespace fs = std::filesystem;

// Every workload generates its datasets from the repository's default data
// seed; --seed picks the run seeds. Each seed then measures the same
// data-dependent work (pair counts, feature matrices, memory), and the
// spread between seeds comes from the labeling runs and the machine alone.
constexpr uint64_t kDataSeed = 7;
constexpr size_t kBatchSize = 10;
constexpr size_t kMaxLabels = 300;
constexpr size_t kSmokeMaxLabels = 60;
// Upper bound on timed passes, whatever --seconds says.
constexpr int kMaxPasses = 200;

struct DatasetSpec {
  SynthProfile profile;
  double scale = 1.0;
};

struct Workload {
  const char* name;
  // Worker threads, at most the hardware threads.
  int threads;
  // Passes always run, even past --seconds. f1_best, labels_to_converge
  // and peak_rss_mb cover exactly these, so they measure a fixed amount of
  // work whatever the machine's speed.
  int min_passes;
  // Each pass starts from an empty feature cache (otherwise the cache is
  // filled before timing starts and every prepare is a hit).
  bool cold_cache;
  // Save, drop and restore the session after every labeled batch.
  bool pause_every_batch;
  WarmStartMode warm_start;
  std::vector<DatasetSpec> datasets;
  // Driven step by step through LabelingSession, one run per dataset each.
  std::vector<ApproachSpec> sessions;
  // Driven through RunActiveLearning, one run per dataset each.
  std::vector<ApproachSpec> whole_runs;
};

// Three workloads, so each run can measure for 30 s within the time the
// whole ledger may take: on a shared host the speed drifts over tens of
// seconds, and longer runs average more of that drift. Cold featurization
// and snapshot I/O share one workload (a labeler who opens new data and
// pauses after every batch); each still dominates its own metric there
// (setup_s and run_s). committee-qbc runs two workers, not one per core: on
// a 4-vCPU host four workers were only about 18% faster for the same CPU
// time, and left no core free for the rest of the machine.
std::vector<Workload> Workloads(bool smoke) {
  const double s = smoke ? 0.25 : 1.0;
  return {
      {"cold-pause", 1, 5, true, true, WarmStartMode::kOn,
       {{AbtBuyProfile(), s}, {CoraProfile(), s}},
       {LinearMarginSpec(), TreesSpec(20), NeuralMarginSpec()},
       {}},
      {"committee-qbc", 2, 5, false, false, WarmStartMode::kOn,
       {{CoraProfile(), s}},
       {LinearQbcSpec(20), NeuralQbcSpec(2)},
       {}},
      {"pool-scan", 1, 20, false, false, WarmStartMode::kOff,
       {{DblpScholarProfile(), 4.0 * s}},
       {TreesSpec(20), LinearMarginSpec()},
       {LinearMarginEnsembleSpec()}},
  };
}

// ---- Metric catalogue ---------------------------------------------------

struct MetricName {
  const char* name;
  const char* unit;
  // Part of the JSON result (and BENCHMARK.json); the rest are printed
  // lines only, mostly because they read 0 on some workloads (checkpoint
  // and resume happen on cold-pause only).
  bool ledger;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s", true},
    {"run_s", "s", true},
    {"batch_wait_p50_s", "s", true},
    {"batch_wait_p95_s", "s", true},
    {"batch_wait_samples", "count", false},
    {"checkpoint_p50_s", "s", false},
    {"checkpoint_p95_s", "s", false},
    {"checkpoint_samples", "count", false},
    {"resume_p50_s", "s", false},
    {"resume_p95_s", "s", false},
    {"session_kinds", "count", false},
    {"f1_best", "f1", true},
    {"labels_to_converge", "labels", true},
    {"peak_rss_mb", "MiB", true},
    {"passes", "count", false},
    {"fail_frac", "ratio", false},
};

constexpr MetricName kPerLayer[] = {
    {"synth.generate_s", "s", true},
    {"blocking.block_s", "s", true},
    {"blocking.candidate_pairs", "count", true},
    {"features.featurize_s", "s", true},
    {"sim.calls", "count", false},
    {"features.cache_s", "s", true},
    {"features.cache_hit_ratio", "ratio", false},
    {"features.pairs_per_s", "1/s", true},
    {"core.env_build_s", "s", true},
    {"core.step_p50_s", "s", true},
    {"core.step_p95_s", "s", true},
    {"core.next_batch_p50_s", "s", true},
    {"core.next_batch_p95_s", "s", true},
    {"core.step_self_s", "s", false},
    {"core.next_batch_self_s", "s", false},
    {"core.submit_s", "s", true},
    {"core.label_s", "s", true},
    {"core.teardown_s", "s", true},
    {"ml.train_s", "s", true},
    {"ml.fit_calls", "count", true},
    {"ml.warm_fits", "count", false},
    {"ml.cold_fits", "count", false},
    {"ml.trees_refit", "count", false},
    {"core.evaluate_s", "s", true},
    {"eval.rows_per_s", "1/s", true},
    {"eval.rows_rescored", "count", false},
    {"eval.rescored_frac", "ratio", false},
    {"selector.committee_s", "s", false},
    {"selector.scoring_s", "s", true},
    {"selector.scored_examples", "count", true},
    {"selector.examples_per_s", "1/s", true},
    {"core.ensemble_run_s", "s", false},
    {"session.save_s", "s", false},
    {"session.read_s", "s", false},
    {"session.restore_s", "s", false},
    {"session.snapshot_bytes", "bytes", false},
    {"parallel.busy_frac", "ratio", false},
    {"parallel.idle_s", "s", false},
    {"parallel.queue_wait_s", "s", false},
    {"trace.uncovered_frac", "ratio", true},
    {"trace.overhead_frac", "ratio", true},
};

// ---- Run bookkeeping ----------------------------------------------------

// FNV-1a over the deterministic IterationStats fields (timings excluded):
// the bitwise identity a repeat of the same pass must reproduce.
uint64_t CurveDigest(const std::vector<IterationStats>& curve) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  const auto bits = [](double value) {
    uint64_t out = 0;
    std::memcpy(&out, &value, sizeof(out));
    return out;
  };
  for (const IterationStats& s : curve) {
    mix(s.iteration);
    mix(s.labels_used);
    mix(s.metrics.true_positives);
    mix(s.metrics.false_positives);
    mix(s.metrics.false_negatives);
    mix(s.metrics.true_negatives);
    mix(bits(s.metrics.precision));
    mix(bits(s.metrics.recall));
    mix(bits(s.metrics.f1));
    mix(s.dnf_atoms);
    mix(static_cast<uint64_t>(static_cast<int64_t>(s.tree_depth)));
    mix(s.scored_examples);
    mix(s.pruned_examples);
    mix(s.ensemble_size);
  }
  return hash;
}

struct FitCounts {
  uint64_t fits = 0;
  uint64_t warm = 0;
  uint64_t cold = 0;
};

FitCounts ReadFitCounts() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return {registry.GetCounter("ml.fit_calls").value(),
          registry.GetCounter("ml.warm_fits").value(),
          registry.GetCounter("ml.cold_fits").value()};
}

struct RunOutcome {
  uint64_t digest = 0;
  double best_f1 = 0.0;
  size_t labels_to_converge = 0;
  std::string error;  // Empty when the run passed every check.
};

RunOutcome Failed(std::string error) {
  RunOutcome outcome;
  outcome.error = std::move(error);
  return outcome;
}

// Checks a finished run: a non-empty curve within the label budget, and
// the fit-counter identity over the run (warm + cold == fit_calls).
RunOutcome Checked(const RunResult& result, const FitCounts& before,
                   size_t max_labels) {
  if (result.curve.empty()) return Failed("empty learning curve");
  for (const IterationStats& stats : result.curve) {
    if (stats.labels_used > max_labels) {
      return Failed("used " + std::to_string(stats.labels_used) +
                    " labels, budget " + std::to_string(max_labels));
    }
  }
  const FitCounts after = ReadFitCounts();
  const uint64_t fits = after.fits - before.fits;
  if (fits == 0 ||
      (after.warm - before.warm) + (after.cold - before.cold) != fits) {
    return Failed("counter identity ml.warm_fits + ml.cold_fits == "
                  "ml.fit_calls broken");
  }
  RunOutcome outcome;
  outcome.digest = CurveDigest(result.curve);
  outcome.best_f1 = result.best_f1;
  outcome.labels_to_converge = result.labels_to_converge;
  return outcome;
}

// Per-pass layer accounting of the traced run, beyond what the spans hold.
struct LayerPass {
  std::map<std::string, uint64_t> counters_before;
  std::map<std::string, uint64_t> counters_after;
  parallel::PoolProfile pool_before;
  parallel::PoolProfile pool_after;
  uint64_t eval_rows = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

struct PassOutcome {
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::vector<RunOutcome> runs;
  LayerPass layers;
};

// Latency samples of one session kind (dataset x approach), over every
// timed pass.
struct Samples {
  std::vector<double> batch_wait;  // Step() + NextBatch() per iteration.
  std::vector<double> step;
  std::vector<double> next_batch;
  std::vector<double> checkpoint;  // SessionRunner::Save.
  std::vector<double> resume;      // ReadFile + ReadSessionRunInfo + Restore.
};

using KindSamples = std::map<std::string, Samples>;

// Kinds within one workload differ by up to 10x, so a percentile of all
// their samples together falls in the gap between clusters and jumps from
// run to run. Each kind's percentile is taken on its own samples (hundreds
// per run, so a p95 has more than ten beyond it) and the kinds are combined
// by geometric mean: a slowdown of x on one of k kinds moves the metric by
// x^(1/k), whichever kind it hits.
double KindPercentile(const KindSamples& kinds,
                      std::vector<double> Samples::*field, double q) {
  double log_sum = 0.0;
  int count = 0;
  for (const auto& [kind, samples] : kinds) {
    if ((samples.*field).empty()) continue;
    log_sum += std::log(std::max(1e-9, Percentile(samples.*field, q)));
    ++count;
  }
  return count > 0 ? std::exp(log_sum / count) : 0.0;
}

double SampleCount(const KindSamples& kinds,
                   std::vector<double> Samples::*field) {
  size_t count = 0;
  for (const auto& [kind, samples] : kinds) count += (samples.*field).size();
  return static_cast<double>(count);
}

int64_t Nanos(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

// ---- The benchmark -----------------------------------------------------

class Bench {
 public:
  Bench(const Workload& workload, uint64_t seed, size_t max_labels,
        fs::path work_dir, bool traced)
      : workload_(workload),
        seed_(seed),
        max_labels_(max_labels),
        work_dir_(std::move(work_dir)),
        snapshot_path_((work_dir_ / "session.alss").string()),
        tracer_(traced) {}

  // Fills the feature cache of a warm-cache workload (untimed).
  void FillCache() {
    if (workload_.cold_cache) return;
    for (const DatasetSpec& spec : workload_.datasets) {
      PrepareDataset(Options(spec, WarmCacheDir()));
    }
  }

  PassOutcome RunPass(int pass);
  // Pass 0 untimed and uninterrupted: PrepareDataset, SessionRunner::Run
  // and RunActiveLearning.
  std::vector<RunOutcome> ReferencePass0();

  const KindSamples& samples() const { return samples_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  std::string WarmCacheDir() const { return (work_dir_ / "cache").string(); }

  PrepareOptions Options(const DatasetSpec& spec,
                         const std::string& cache_dir) const {
    PrepareOptions options;
    options.profile = spec.profile;
    options.data_seed = kDataSeed;
    options.scale = spec.scale;
    options.use_cache = true;
    options.cache_dir = cache_dir;
    return options;
  }

  RunConfig Config(const ApproachSpec& approach, int pass) const {
    RunConfig config;
    config.approach = approach;
    config.batch_size = kBatchSize;
    config.max_labels = max_labels_;
    config.run_seed = seed_ + static_cast<uint64_t>(pass);
    config.warm_start = workload_.warm_start;
    return config;
  }

  // PrepareDataset, with its own harness.* spans imported as layer spans
  // while tracing.
  PreparedDataset Prepare(const PrepareOptions& options, LayerPass* layers);
  RunOutcome DriveSession(const PreparedDataset& data, const RunConfig& config,
                          LayerPass* layers);
  // Save -> drop -> ReadFile -> Restore, replacing *runner.
  bool RoundTrip(const PreparedDataset& data,
                 std::unique_ptr<SessionRunner>* runner, Samples* samples,
                 LayerPass* layers, std::string* error);

  const Workload& workload_;
  const uint64_t seed_;
  const size_t max_labels_;
  const fs::path work_dir_;
  const std::string snapshot_path_;
  Tracer tracer_;
  KindSamples samples_;
  int next_run_ = 0;
};

// The library spans inside PrepareDataset that become layer spans, under
// the benchmark's layer names. Any other span folds into the self time of
// its nearest enclosing kept span (blocking.jaccard into blocking.block).
// harness.featurize covers similarity extraction and boolean featurization;
// its cache I/O is the child features.cache.
constexpr std::pair<const char*, const char*> kPrepareLayers[] = {
    {"harness.generate", "synth.generate"},
    {"harness.block", "blocking.block"},
    {"harness.featurize", "features.featurize"},
    {"harness.featurize.cache", "features.cache"},
};

PreparedDataset Bench::Prepare(const PrepareOptions& options,
                               LayerPass* layers) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (tracer_.enabled()) {
    recorder.Clear();
    obs::SetTracingEnabled(true);
  }
  const int64_t trace_to_steady_ns =
      NowNs() - static_cast<int64_t>(obs::TraceNowNanos());
  Timer timer(tracer_, "harness.prepare");
  PreparedDataset prepared = PrepareDataset(options);
  timer.Stop();
  ++(prepared.feature_cache == "hit" ? layers->cache_hits
                                     : layers->cache_misses);
  if (!tracer_.enabled()) return prepared;
  obs::SetTracingEnabled(false);
  std::vector<obs::SpanRecord> records = recorder.Snapshot();
  recorder.Clear();
  // Spans are recorded as they close, children first: replay them in start
  // order on this thread, each under the nearest kept span that encloses it.
  std::sort(records.begin(), records.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.depth < b.depth;
            });
  const auto root =
      std::find_if(records.begin(), records.end(), [](const auto& record) {
        return record.name == "harness.prepare";
      });
  if (root == records.end()) return prepared;
  std::vector<std::pair<int, int>> open = {{root->depth, timer.id()}};
  for (const obs::SpanRecord& record : records) {
    if (record.thread_id != root->thread_id || record.depth <= root->depth) {
      continue;
    }
    const auto layer = std::find_if(
        std::begin(kPrepareLayers), std::end(kPrepareLayers),
        [&](const auto& entry) { return record.name == entry.first; });
    if (layer == std::end(kPrepareLayers)) continue;
    while (open.back().first >= record.depth) open.pop_back();
    const int id = tracer_.AddChild(
        open.back().second, layer->second,
        static_cast<int64_t>(record.start_ns) + trace_to_steady_ns,
        static_cast<double>(record.duration_ns) * 1e-9);
    open.emplace_back(record.depth, id);
  }
  return prepared;
}

bool Bench::RoundTrip(const PreparedDataset& data,
                      std::unique_ptr<SessionRunner>* runner,
                      Samples* samples, LayerPass* layers,
                      std::string* error) {
  Timer save(tracer_, "session.save");
  if (!(*runner)->Save(snapshot_path_, error)) return false;
  const double save_s = save.Stop();
  {
    Timer timer(tracer_, "core.teardown");
    runner->reset();
  }
  SessionSnapshot snapshot;
  SessionRunInfo info;
  Timer read(tracer_, "session.read");
  if (!SessionSnapshot::ReadFile(snapshot_path_, &snapshot, error) ||
      !ReadSessionRunInfo(snapshot, &info, error)) {
    return false;
  }
  const double read_s = read.Stop();
  if (info.dataset != data.name) {
    *error = "snapshot names dataset '" + info.dataset + "', expected '" +
             data.name + "'";
    return false;
  }
  Timer restore(tracer_, "session.restore");
  *runner = SessionRunner::Restore(data, info.config, snapshot, error);
  snapshot = SessionSnapshot();
  const double restore_s = restore.Stop();
  if (*runner == nullptr) {
    *error = "SessionRunner::Restore returned null: " + *error;
    return false;
  }
  samples->checkpoint.push_back(save_s);
  samples->resume.push_back(read_s + restore_s);
  layers->snapshot_bytes += fs::file_size(snapshot_path_);
  return true;
}

RunOutcome Bench::DriveSession(const PreparedDataset& data,
                               const RunConfig& config,
                               LayerPass* layers) {
  const FitCounts before = ReadFitCounts();
  Samples& samples = samples_[data.name + " " + config.approach.DisplayName()];
  std::unique_ptr<SessionRunner> runner;
  {
    Timer timer(tracer_, "core.env_build");
    runner = std::make_unique<SessionRunner>(data, config);
  }
  std::string error;
  while (!runner->session().finished()) {
    LabelingSession& session = runner->session();
    Timer step(tracer_, "core.step");
    const bool stepped = session.Step();
    const double step_s = step.Stop();
    if (!stepped) return Failed("Step() rejected: " + session.error());
    Timer next(tracer_, "core.next_batch");
    const bool has_batch = !session.NextBatch().empty();
    const double next_s = next.Stop();
    if (!has_batch && session.state() != SessionState::kFinished) {
      return Failed("NextBatch() rejected: " + session.error());
    }
    samples.step.push_back(step_s);
    samples.next_batch.push_back(next_s);
    samples.batch_wait.push_back(step_s + next_s);
    int label_parent = next.id();
    int64_t label_start = next.start_ns();
    if (has_batch) {
      Timer submit(tracer_, "core.submit");
      if (!session.SubmitLabels()) {
        return Failed("SubmitLabels() rejected: " + session.error());
      }
      label_parent = submit.id();
      label_start = submit.start_ns();
    }
    // The iteration's phase times, measured by the library's own spans,
    // become child spans of the calls that ran them.
    const IterationStats& stats = session.curve().back();
    tracer_.AddChild(step.id(), "ml.train", step.start_ns(),
                     stats.train_seconds);
    tracer_.AddChild(step.id(), "core.evaluate",
                     step.start_ns() + Nanos(stats.train_seconds),
                     stats.evaluate_seconds);
    if (stats.committee_seconds > 0.0) {
      tracer_.AddChild(next.id(), "selector.committee", next.start_ns(),
                       stats.committee_seconds);
    }
    tracer_.AddChild(next.id(), "selector.scoring",
                     next.start_ns() + Nanos(stats.committee_seconds),
                     stats.scoring_seconds);
    tracer_.AddChild(label_parent, "core.label", label_start,
                     stats.label_seconds);
    layers->eval_rows += data.pairs.size();
    if (workload_.pause_every_batch && !session.finished() &&
        !RoundTrip(data, &runner, &samples, layers, &error)) {
      return Failed(error);
    }
  }
  RunResult result;
  {
    Timer timer(tracer_, "core.teardown");
    result = runner->TakeResult();
    runner.reset();
  }
  return Checked(result, before, max_labels_);
}

PassOutcome Bench::RunPass(int pass) {
  PassOutcome out;
  tracer_.set_pass(pass);
  std::string cache_dir = WarmCacheDir();
  if (workload_.cold_cache) {
    cache_dir = (work_dir_ / ("pass-" + std::to_string(pass))).string();
    fs::remove_all(cache_dir);
  }
  if (tracer_.enabled()) {
    out.layers.counters_before = CounterSnapshot();
    out.layers.pool_before = parallel::SnapshotPoolProfile();
  }
  Timer pass_timer(tracer_, "pass");
  std::vector<PreparedDataset> data;
  data.reserve(workload_.datasets.size());
  for (const DatasetSpec& spec : workload_.datasets) {
    const int64_t start = NowNs();
    data.push_back(Prepare(Options(spec, cache_dir), &out.layers));
    out.setup_s += static_cast<double>(NowNs() - start) * 1e-9;
  }
  for (const PreparedDataset& dataset : data) {
    for (const ApproachSpec& approach : workload_.sessions) {
      tracer_.set_run(next_run_++);
      out.runs.push_back(
          DriveSession(dataset, Config(approach, pass), &out.layers));
    }
    for (const ApproachSpec& approach : workload_.whole_runs) {
      tracer_.set_run(next_run_++);
      const FitCounts before = ReadFitCounts();
      RunResult result;
      {
        Timer timer(tracer_, "core.ensemble_run");
        result = RunActiveLearning(dataset, Config(approach, pass));
      }
      out.runs.push_back(Checked(result, before, max_labels_));
    }
  }
  tracer_.set_run(-1);
  {
    Timer timer(tracer_, "harness.release");
    data.clear();
  }
  out.wall_s = pass_timer.Stop();
  if (tracer_.enabled()) {
    out.layers.counters_after = CounterSnapshot();
    out.layers.pool_after = parallel::SnapshotPoolProfile();
  }
  if (workload_.cold_cache) fs::remove_all(cache_dir);
  return out;
}

std::vector<RunOutcome> Bench::ReferencePass0() {
  const std::string cache_dir = workload_.cold_cache
                                    ? (work_dir_ / "reference").string()
                                    : WarmCacheDir();
  if (workload_.cold_cache) fs::remove_all(cache_dir);
  std::vector<RunOutcome> runs;
  for (const DatasetSpec& spec : workload_.datasets) {
    const PreparedDataset data = PrepareDataset(Options(spec, cache_dir));
    for (const ApproachSpec& approach : workload_.sessions) {
      const FitCounts before = ReadFitCounts();
      SessionRunner runner(data, Config(approach, 0));
      runner.Run();
      runs.push_back(Checked(runner.TakeResult(), before, max_labels_));
    }
    for (const ApproachSpec& approach : workload_.whole_runs) {
      const FitCounts before = ReadFitCounts();
      runs.push_back(Checked(RunActiveLearning(data, Config(approach, 0)),
                             before, max_labels_));
    }
  }
  if (workload_.cold_cache) fs::remove_all(cache_dir);
  return runs;
}

// ---- Metrics -------------------------------------------------------------

using MetricValues = std::map<std::string, double>;

double Get(const std::map<std::string, double>& values,
           const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double CounterDelta(const LayerPass& layers, const std::string& name) {
  const auto after = layers.counters_after.find(name);
  if (after == layers.counters_after.end()) return 0.0;
  const auto before = layers.counters_before.find(name);
  const uint64_t base =
      before == layers.counters_before.end() ? 0 : before->second;
  return static_cast<double>(after->second - base);
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// One traced pass's per-layer values (times are self times, in seconds).
MetricValues LayerValues(const Tracer& tracer, int pass,
                         const PassOutcome& outcome, double span_cost) {
  const std::map<std::string, double> self = tracer.SelfSeconds(pass);
  const LayerPass& layers = outcome.layers;
  MetricValues v;
  for (const auto& [name, seconds] : self) v[name + "_s"] = seconds;
  v["blocking.candidate_pairs"] =
      CounterDelta(layers, "blocking.candidate_pairs");
  v["sim.calls"] = CounterDelta(layers, "sim.calls");
  v["features.pairs_per_s"] =
      Ratio(v["blocking.candidate_pairs"],
            Get(v, "features.featurize_s") + Get(v, "features.cache_s"));
  v["features.cache_hit_ratio"] =
      Ratio(static_cast<double>(layers.cache_hits),
            static_cast<double>(layers.cache_hits + layers.cache_misses));
  v["core.step_self_s"] = Get(v, "core.step_s");
  v["core.next_batch_self_s"] = Get(v, "core.next_batch_s");
  for (const char* counter : {"ml.fit_calls", "ml.warm_fits", "ml.cold_fits",
                              "ml.trees_refit", "eval.rows_rescored",
                              "selector.scored_examples"}) {
    v[counter] = CounterDelta(layers, counter);
  }
  const double eval_rows = static_cast<double>(layers.eval_rows);
  v["eval.rows_per_s"] = Ratio(eval_rows, Get(v, "core.evaluate_s"));
  v["eval.rescored_frac"] = Ratio(v["eval.rows_rescored"], eval_rows);
  v["selector.examples_per_s"] =
      Ratio(v["selector.scored_examples"], Get(v, "selector.scoring_s"));
  v["session.snapshot_bytes"] = static_cast<double>(layers.snapshot_bytes);
  const parallel::PoolProfile& p0 = layers.pool_before;
  const parallel::PoolProfile& p1 = layers.pool_after;
  v["parallel.busy_frac"] = Ratio(p1.busy_seconds - p0.busy_seconds,
                                  p1.worker_wall_seconds -
                                      p0.worker_wall_seconds);
  v["parallel.idle_s"] = p1.idle_seconds - p0.idle_seconds;
  v["parallel.queue_wait_s"] =
      p1.queue_wait_seconds - p0.queue_wait_seconds;
  v["trace.uncovered_frac"] = Ratio(Get(v, "pass_s"), outcome.wall_s);
  v["trace.overhead_frac"] =
      Ratio(static_cast<double>(tracer.CountSpans(pass)) * span_cost,
            outcome.wall_s);
  return v;
}

struct Printed {
  std::string name;
  std::string unit;
  double value;
  bool ledger;
};

// ---- Output --------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 30.0;
  std::string trace_path;
  std::string work_dir = "alem_perf_work";
  std::string record_path;
  bool smoke = false;
};

std::string Provenance(int threads) {
  char line[1024];
  std::snprintf(line, sizeof(line),
                "build=%s build_type=%s flags=\"%s\" nproc=%d "
                "kernel_backend=%.*s threads=%d",
                obs::BuildStamp(), ALEM_PERF_BUILD_TYPE, ALEM_PERF_CXX_FLAGS,
                parallel::HardwareThreads(),
                static_cast<int>(kernels::BackendName().size()),
                kernels::BackendName().data(), threads);
  return line;
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Printed>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": ";
  AppendJsonUint(&out, attempted);
  out += ", \"failed\": ";
  AppendJsonUint(&out, failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Printed& metric : metrics) {
    if (!metric.ledger) continue;
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, metric.name);
    out += ": {\"value\": ";
    AppendJsonDouble(&out, metric.value);
    out += ", \"unit\": ";
    AppendJsonString(&out, metric.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

// The ledger metrics must be exactly the ones BENCHMARK.json defines for
// this mode, with the same units, and the workload must be one it lists.
bool MatchesBenchmark(const Options& options, bool traced,
                      const std::vector<Printed>& metrics) {
  BenchmarkSpec spec;
  std::string error;
  if (!LoadBenchmarkSpec(kBenchmarkJson, &spec, &error)) {
    std::fprintf(stderr, "alem_perf: %s\n", error.c_str());
    return false;
  }
  if (std::find(spec.workloads.begin(), spec.workloads.end(),
                options.workload) == spec.workloads.end()) {
    std::fprintf(stderr, "alem_perf: workload %s missing from %s\n",
                 options.workload.c_str(), kBenchmarkJson);
    return false;
  }
  std::vector<std::string> expected;
  for (const MetricDef& def : traced ? spec.per_layer : spec.end_to_end) {
    expected.push_back(def.name + " " + def.unit);
  }
  std::vector<std::string> printed;
  for (const Printed& metric : metrics) {
    if (metric.ledger) printed.push_back(metric.name + " " + metric.unit);
  }
  std::sort(expected.begin(), expected.end());
  std::sort(printed.begin(), printed.end());
  if (expected != printed) {
    std::fprintf(stderr,
                 "alem_perf: %s metrics differ from %s (%zu printed, %zu "
                 "defined)\n",
                 traced ? "per-layer" : "end-to-end", kBenchmarkJson,
                 printed.size(),
                 expected.size());
    return false;
  }
  return true;
}

bool AppendRecord(const Options& options, const std::string& provenance,
                  const std::string& result_json) {
  // {"workload":..,"seed":..,"trace":..,"build":..,"provenance":..,
  //  <the result object's members>}
  std::string line = "{\"workload\": ";
  AppendJsonString(&line, options.workload);
  line += ", \"seed\": ";
  AppendJsonUint(&line, options.seed);
  line += ", \"trace\": ";
  line += options.trace_path.empty() ? "0" : "1";
  line += ", \"build\": ";
  AppendJsonString(&line, obs::BuildStamp());
  line += ", \"provenance\": ";
  AppendJsonString(&line, provenance);
  line += ", " + result_json.substr(1) + "\n";
  std::ofstream out(options.record_path, std::ios::app);
  out << line;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  Options options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  options.seconds = flags.GetDouble("seconds", 30.0);
  options.trace_path = flags.GetString("trace", "");
  options.work_dir = flags.GetString("work-dir", options.work_dir);
  options.record_path = flags.GetString("record", "");
  options.smoke = flags.GetBool("smoke", false);

  if (std::strcmp(ALEM_PERF_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "alem_perf: refusing to run a %s build\n",
                 ALEM_PERF_BUILD_TYPE);
    return 2;
  }
  const std::vector<Workload> workloads = Workloads(options.smoke);
  const auto workload = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const Workload& w) { return options.workload == w.name; });
  if (workload == workloads.end()) {
    std::fprintf(stderr,
                 "usage: alem_perf --workload=cold-pause|committee-qbc|"
                 "pool-scan [--seed=S] [--seconds=T] "
                 "[--trace=PATH] [--work-dir=DIR] [--record=FILE] "
                 "[--smoke]\n"
                 "       alem_perf compare A.jsonl B.jsonl\n");
    return 2;
  }
  const bool traced = !options.trace_path.empty();
  const int threads =
      std::min(workload->threads, parallel::HardwareThreads());
  parallel::SetNumThreads(threads);
  // Sessions snapshot the metric totals, as `alem_cli session` does; the
  // registry also supplies the fit-counter identity every run is checked
  // against. Tracing into the library's own recorder stays off.
  obs::SetMetricsEnabled(true);

  const fs::path work_dir = fs::path(options.work_dir) /
                            (options.workload + "-" +
                             std::to_string(static_cast<long>(getpid())));
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  const std::string provenance = Provenance(threads);
  std::printf("# alem_perf workload=%s seed=%llu seconds=%g mode=%s%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              traced ? "traced" : "untraced", options.smoke ? " smoke" : "");
  std::printf("# %s\n", provenance.c_str());
  std::fflush(stdout);

  const size_t max_labels = options.smoke ? kSmokeMaxLabels : kMaxLabels;
  const double span_cost = traced ? CalibrateSpanCost() : 0.0;
  Bench bench(*workload, options.seed, max_labels, work_dir, traced);
  bench.FillCache();
  // The reference runs first: as an untimed warm-up it takes first-touch
  // allocation and cold-code costs out of the timed passes.
  const std::vector<RunOutcome> reference = bench.ReferencePass0();

  // Timed passes: at least min_passes, then while another half pass fits
  // in the time budget.
  const int min_passes = options.smoke ? 1 : workload->min_passes;
  const double seconds = options.smoke ? 0.0 : options.seconds;
  std::vector<PassOutcome> passes;
  double elapsed = 0.0;
  uint64_t peak_rss_bytes = 0;
  while (static_cast<int>(passes.size()) < kMaxPasses) {
    const double last = passes.empty() ? 0.0 : passes.back().wall_s;
    if (static_cast<int>(passes.size()) >= min_passes &&
        elapsed + 0.5 * last >= seconds) {
      break;
    }
    passes.push_back(bench.RunPass(static_cast<int>(passes.size())));
    elapsed += passes.back().wall_s;
    if (static_cast<int>(passes.size()) == min_passes) {
      peak_rss_bytes = obs::PeakRssBytes();
    }
  }

  // Correctness: every run's own checks, and timed pass 0 must reproduce
  // the reference digests.
  size_t attempted = 0;
  size_t failed = 0;
  for (const PassOutcome& pass : passes) {
    for (const RunOutcome& run : pass.runs) {
      ++attempted;
      if (!run.error.empty()) {
        ++failed;
        std::fprintf(stderr, "alem_perf: run failed: %s\n", run.error.c_str());
      }
    }
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    ++attempted;
    std::string error = reference[i].error;
    if (error.empty() && (i >= passes[0].runs.size() ||
                          reference[i].digest != passes[0].runs[i].digest)) {
      error = "timed pass 0 run " + std::to_string(i) +
              " did not reproduce the reference curve digest";
    }
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "alem_perf: verification failed: %s\n",
                   error.c_str());
    }
  }

  std::vector<Printed> metrics;
  const auto add = [&](const MetricName& name, double value) {
    metrics.push_back(Printed{name.name, name.unit, value, name.ledger});
  };
  const KindSamples& samples = bench.samples();
  if (!traced) {
    std::vector<double> setup;
    std::vector<double> run;
    for (const PassOutcome& pass : passes) {
      setup.push_back(pass.setup_s);
      run.push_back(pass.wall_s - pass.setup_s);
    }
    // On pool-scan about one Linear-Margin run in twenty ends with a best F1
    // near 0.3, which moves a mean over runs by several hundredths; f1_best
    // is therefore the median over runs.
    std::vector<double> f1;
    double labels_sum = 0.0;
    for (int p = 0; p < min_passes; ++p) {
      for (const RunOutcome& run : passes[static_cast<size_t>(p)].runs) {
        f1.push_back(run.best_f1);
        labels_sum += static_cast<double>(run.labels_to_converge);
      }
    }
    const double quality_n =
        static_cast<double>(std::max<size_t>(1, f1.size()));
    const MetricValues values = {
        {"setup_s", Median(setup)},
        {"run_s", Median(run)},
        {"batch_wait_p50_s",
         KindPercentile(samples, &Samples::batch_wait, 0.50)},
        {"batch_wait_p95_s",
         KindPercentile(samples, &Samples::batch_wait, 0.95)},
        {"batch_wait_samples", SampleCount(samples, &Samples::batch_wait)},
        {"checkpoint_p50_s",
         KindPercentile(samples, &Samples::checkpoint, 0.50)},
        {"checkpoint_p95_s",
         KindPercentile(samples, &Samples::checkpoint, 0.95)},
        {"checkpoint_samples", SampleCount(samples, &Samples::checkpoint)},
        {"resume_p50_s", KindPercentile(samples, &Samples::resume, 0.50)},
        {"resume_p95_s", KindPercentile(samples, &Samples::resume, 0.95)},
        {"session_kinds", static_cast<double>(samples.size())},
        {"f1_best", Median(f1)},
        {"labels_to_converge", labels_sum / quality_n},
        {"peak_rss_mb",
         static_cast<double>(peak_rss_bytes) / (1024.0 * 1024.0)},
        {"passes", static_cast<double>(passes.size())},
        {"fail_frac", Ratio(static_cast<double>(failed),
                            static_cast<double>(attempted))},
    };
    for (const MetricName& name : kEndToEnd) add(name, Get(values, name.name));
  } else {
    std::vector<MetricValues> per_pass;
    for (size_t p = 0; p < passes.size(); ++p) {
      per_pass.push_back(LayerValues(bench.tracer(), static_cast<int>(p),
                                     passes[p], span_cost));
    }
    MetricValues values = {
        {"core.step_p50_s", KindPercentile(samples, &Samples::step, 0.50)},
        {"core.step_p95_s", KindPercentile(samples, &Samples::step, 0.95)},
        {"core.next_batch_p50_s",
         KindPercentile(samples, &Samples::next_batch, 0.50)},
        {"core.next_batch_p95_s",
         KindPercentile(samples, &Samples::next_batch, 0.95)},
    };
    for (const MetricName& name : kPerLayer) {
      if (values.count(name.name) != 0) continue;
      std::vector<double> column;
      for (const MetricValues& pass : per_pass) {
        column.push_back(Get(pass, name.name));
      }
      values[name.name] = Median(column);
    }
    for (const MetricName& name : kPerLayer) add(name, values[name.name]);

    // Self time per span name, as a share of pass wall time (medians).
    std::vector<double> walls;
    for (const PassOutcome& pass : passes) walls.push_back(pass.wall_s);
    const double wall = Median(walls);
    std::printf("# %-26s %12s %8s   (median over %zu traced passes, pass "
                "wall %.4f s)\n",
                "layer self time", "seconds", "share", passes.size(), wall);
    std::map<std::string, std::vector<double>> self_columns;
    for (size_t p = 0; p < passes.size(); ++p) {
      for (const auto& [name, seconds] :
           bench.tracer().SelfSeconds(static_cast<int>(p))) {
        self_columns[name == "pass" ? "(uncovered)" : name].push_back(seconds);
      }
    }
    for (auto& [name, column] : self_columns) {
      column.resize(passes.size(), 0.0);  // Passes the layer did not run in.
      const double seconds = Median(column);
      std::printf("# %-26s %12.6f %7.2f%%\n", name.c_str(), seconds,
                  100.0 * Ratio(seconds, wall));
    }
    std::ofstream trace(options.trace_path);
    trace << bench.tracer().ToChromeJson();
    if (!trace) {
      std::fprintf(stderr, "alem_perf: cannot write trace %s\n",
                   options.trace_path.c_str());
      ++failed;
    }
  }

  for (const Printed& metric : metrics) {
    std::printf("%s %s %.9g %s\n", options.workload.c_str(),
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  if (!MatchesBenchmark(options, traced, metrics)) {
    ++failed;
  }
  const std::string result =
      ResultJson(failed == 0, attempted, failed, metrics);
  if (!options.record_path.empty() &&
      !AppendRecord(options, provenance, result)) {
    std::fprintf(stderr, "alem_perf: cannot append to %s\n",
                 options.record_path.c_str());
    ++failed;
  }
  fs::remove_all(work_dir);
  std::printf("%s\n", result.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perf
}  // namespace alem

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "compare") == 0) {
    return alem::perf::RunCompare(argc, argv);
  }
  return alem::perf::Main(argc, argv);
}
