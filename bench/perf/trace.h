// In-memory span recorder for alem_perf's traced run.
//
// Spans are recorded from outside the library, around each public call a
// workload makes (PrepareDataset, LabelingSession::Step, SessionRunner::Save,
// ...), plus child spans built from the phase times the library itself
// measures (IterationStats::train_seconds and friends, and the harness.*
// spans inside PrepareDataset). Each
// span keeps its name, start, end, parent span and run id; the whole set is
// written out once, as Chrome-trace JSON, when the benchmark ends.
//
// A disabled Tracer records nothing, but Timer still measures: the untraced
// run takes its end-to-end samples from the same Timer calls.

#ifndef ALEM_BENCH_PERF_TRACE_H_
#define ALEM_BENCH_PERF_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace alem {
namespace perf {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // A string literal; spans never own their names.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // Index into Tracer::spans(); -1 for a root.
  int run = -1;     // Session / RunActiveLearning run id; -1 outside a run.
  int pass = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span nested inside the innermost open one. Returns its id, or
  // -1 when tracing is off.
  int Open(const char* name, int64_t start_ns);
  void Close(int id, int64_t end_ns);
  // Records a finished child of `parent` whose duration was measured
  // elsewhere (inside the library) and returns its id; no-op returning -1
  // when parent is -1.
  int AddChild(int parent, const char* name, int64_t start_ns,
               double seconds);

  void set_run(int run) { run_ = run; }
  void set_pass(int pass) { pass_ = pass; }

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of self times (duration minus direct children) per span name over
  // the spans of `pass`; the root "pass" span's self time is the part of
  // the pass no layer span covers.
  std::map<std::string, double> SelfSeconds(int pass) const;
  // Number of spans recorded in `pass`.
  size_t CountSpans(int pass) const;

  // {"traceEvents":[...]} with one complete ("X") event per span; args
  // carry the span id, parent id, run id and pass.
  std::string ToChromeJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = -1;
  int pass_ = -1;
};

// Times one scope with the steady clock, recording a span while tracing.
class Timer {
 public:
  Timer(Tracer& tracer, const char* name)
      : tracer_(tracer),
        start_ns_(NowNs()),
        id_(tracer.Open(name, start_ns_)) {}
  ~Timer() { Stop(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Ends the span (idempotent) and returns its duration in seconds.
  double Stop() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      tracer_.Close(id_, end_ns_);
    }
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
  }

  int id() const { return id_; }
  int64_t start_ns() const { return start_ns_; }

 private:
  Tracer& tracer_;
  int64_t start_ns_;
  int id_;
  int64_t end_ns_ = 0;
};

// Measured cost in seconds of recording one span (open + close), for the
// trace.overhead_frac estimate.
double CalibrateSpanCost();

}  // namespace perf
}  // namespace alem

#endif  // ALEM_BENCH_PERF_TRACE_H_
