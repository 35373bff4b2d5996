#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

#include "stats.h"

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<int> g_next_thread{1};

int ThreadNumber() {
  thread_local const int number = g_next_thread.fetch_add(1);
  return number;
}

// Open spans of the calling thread, innermost last.
std::vector<int64_t>& OpenStack() {
  thread_local std::vector<int64_t> stack;
  return stack;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::ToUs(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

double Tracer::NowUs() const { return ToUs(Clock::now()); }

int64_t Tracer::Begin(const std::string& name, const std::string& category,
                      int64_t request_id) {
  std::vector<int64_t>& stack = OpenStack();
  Span span;
  span.name = name;
  span.category = category;
  span.thread = ThreadNumber();
  span.parent = stack.empty() ? -1 : stack.back();
  span.request_id = request_id;
  int64_t index = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < kMaxSpans) {
      index = static_cast<int64_t>(spans_.size());
      span.start_us = NowUs();
      spans_.push_back(std::move(span));
    } else {
      ++dropped_;
    }
  }
  stack.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  const double now = NowUs();
  std::vector<int64_t>& stack = OpenStack();
  if (!stack.empty()) stack.pop_back();
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_us = now;
}

void Tracer::Add(const std::string& name, const std::string& category, double start_us,
                 double end_us, int64_t request_id) {
  Span span;
  span.name = name;
  span.category = category;
  span.start_us = start_us;
  span.end_us = end_us;
  span.thread = ThreadNumber();
  span.request_id = request_id;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < kMaxSpans) {
    spans_.push_back(std::move(span));
  } else {
    ++dropped_;
  }
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", JsonEscape(s.name).c_str(),
                 JsonEscape(s.category).c_str(), s.thread, s.start_us,
                 std::max(0.0, s.end_us - s.start_us), i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request_id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<LayerRow> LayerTable(const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::map<std::string, size_t> row_of;
  std::vector<LayerRow> rows;
  std::vector<std::vector<double>> durations;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto it = row_of.find(s.name);
    if (it == row_of.end()) {
      it = row_of.emplace(s.name, rows.size()).first;
      LayerRow row;
      row.name = s.name;
      row.category = s.category;
      rows.push_back(row);
      durations.emplace_back();
    }
    LayerRow& row = rows[it->second];
    const double dur = s.end_us - s.start_us;
    ++row.count;
    row.total_ms += dur * 1e-3;
    row.self_ms += std::max(0.0, dur - child_us[i]) * 1e-3;
    durations[it->second].push_back(dur);
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r].p50_us = Median(durations[r]);
    const Quantile p99 = TailQuantile(durations[r], 0.99);
    rows[r].p99_us = p99.supported ? p99.value : 0.0;
  }
  return rows;
}

Tracer* ActiveTracer() { return g_active.load(std::memory_order_acquire); }

void SetActiveTracer(Tracer* tracer) { g_active.store(tracer, std::memory_order_release); }

ScopedSpan::ScopedSpan(const char* name, const char* category, int64_t request_id)
    : tracer_(ActiveTracer()) {
  if (tracer_ != nullptr) index_ = tracer_->Begin(name, category, request_id);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

}  // namespace perfbench
