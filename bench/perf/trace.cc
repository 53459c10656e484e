#include "trace.h"

#include <cstdio>

#include "util/json.h"

namespace alem {
namespace perf {

int Tracer::Open(const char* name, int64_t start_ns) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.pass = pass_;
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int id, int64_t end_ns) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
  // Timers are scoped, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::AddChild(int parent, const char* name, int64_t start_ns,
                     double seconds) {
  if (parent < 0) return -1;
  const Span& owner = spans_[static_cast<size_t>(parent)];
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  span.parent = parent;
  span.run = owner.run;
  span.pass = owner.pass;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfSeconds(int pass) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].pass != pass) continue;
    const int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    self[spans_[i].name] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

size_t Tracer::CountSpans(int pass) const {
  size_t count = 0;
  for (const Span& span : spans_) count += span.pass == pass ? 1 : 0;
  return count;
}

std::string Tracer::ToChromeJson() const {
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":";
    AppendJsonString(&out, span.name);
    out += ",\"cat\":\"alem_perf\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    AppendJsonDouble(&out, static_cast<double>(span.start_ns - epoch) * 1e-3);
    out += ",\"dur\":";
    AppendJsonDouble(&out,
                     static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    char args[128];
    std::snprintf(args, sizeof(args),
                  ",\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%d,"
                  "\"pass\":%d}}",
                  i, span.parent, span.run, span.pass);
    out += args;
  }
  out += "]}\n";
  return out;
}

double CalibrateSpanCost() {
  constexpr int kSpans = 20000;
  Tracer probe(true);
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Timer timer(probe, "calibrate");
  }
  return static_cast<double>(NowNs() - start) * 1e-9 / kSpans;
}

}  // namespace perf
}  // namespace alem
