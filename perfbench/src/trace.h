// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each library layer: name, category, start, end, thread, the enclosing span
// on the same thread, and a request id shared by every span of one request
// (or one replayed batch). Nothing is written until the run ends; then
// WriteChromeTrace emits Chrome trace-event JSON (opens offline in Perfetto
// or chrome://tracing) and LayerTable aggregates total and self time per
// span name.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string category;
  double start_us = 0.0;  // since the tracer's origin
  double end_us = 0.0;
  int thread = 0;
  int64_t parent = -1;      // index of the enclosing span on this thread
  int64_t request_id = -1;  // -1 when the span belongs to no request
};

/// Per-name aggregate over the recorded spans. Self time is a span's
/// duration minus the part its direct children cover.
struct LayerRow {
  std::string name;
  std::string category;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;  // 0 when fewer than 1000 spans support it
};

class Tracer {
 public:
  /// Spans beyond this many are counted in dropped() but not kept, which
  /// bounds memory on long traced runs.
  static constexpr size_t kMaxSpans = 400000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double NowUs() const;
  double ToUs(Clock::time_point t) const;

  /// Opens a span on the calling thread; returns its index (or -1 if
  /// dropped). Spans opened while it is open become its children.
  int64_t Begin(const std::string& name, const std::string& category,
                int64_t request_id = -1);
  void End(int64_t index);

  /// Records a finished span with explicit times (e.g. a request's due to
  /// ready interval, observed across threads). No parent.
  void Add(const std::string& name, const std::string& category, double start_us,
           double end_us, int64_t request_id = -1);

  std::vector<Span> spans() const;
  int64_t dropped() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int64_t dropped_ = 0;      // guarded by mu_
};

/// Aggregates spans by name, in first-seen order.
std::vector<LayerRow> LayerTable(const std::vector<Span>& spans);

/// The process-wide tracer, or nullptr when tracing is off.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

/// RAII span on the active tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, int64_t request_id = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
