#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>

#include "serve/errors.h"
#include "stats.h"
#include "tensor/rng.h"
#include "trace.h"

namespace perfbench {

namespace {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

std::vector<double> PoissonDueTimes(double rate, int64_t count, uint64_t seed) {
  adaptraj::Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<size_t>(std::max<int64_t>(0, count)));
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(rng.Uniform(0.0f, 1.0f));
    t += -std::log(std::max(1e-12, 1.0 - u)) / rate;
    due.push_back(t);
  }
  return due;
}

OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, const OpenLoopHooks& hooks) {
  const int64_t n = static_cast<int64_t>(due_s.size());
  OpenLoopResult out;
  out.submitted = n;
  out.latency_ms.assign(static_cast<size_t>(n), kFailedLatency);
  out.late_ms.assign(static_cast<size_t>(n), 0.0);
  out.submit_us.assign(static_cast<size_t>(n), 0.0);
  if (n == 0) return out;

  std::vector<std::future<adaptraj::Tensor>> futures(static_cast<size_t>(n));
  std::vector<Clock::time_point> due(static_cast<size_t>(n));
  std::atomic<int64_t> published{0};
  Tracer* tracer = ActiveTracer();
  // Start a little in the future so thread start-up is not counted as
  // generator lateness on the first requests.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (int64_t i = 0; i < n; ++i) {
    due[static_cast<size_t>(i)] =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s[static_cast<size_t>(i)]));
  }

  std::thread generator([&] {
    for (int64_t i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i);
      std::exception_ptr prepare_error;
      if (hooks.prepare) {
        try {
          hooks.prepare(i);
        } catch (...) {
          prepare_error = std::current_exception();
        }
      }
      std::this_thread::sleep_until(due[k]);
      if (hooks.before_submit) hooks.before_submit(i);
      const Clock::time_point start = Clock::now();
      {
        std::optional<ScopedSpan> span;
        if (i < kTracedRequests) span.emplace("serve.submit", "serve", hooks.trace_id_base + i);
        try {
          if (prepare_error) std::rethrow_exception(prepare_error);
          futures[k] = hooks.submit(i);
        } catch (...) {
          std::promise<adaptraj::Tensor> failed;
          failed.set_exception(std::current_exception());
          futures[k] = failed.get_future();
        }
      }
      const Clock::time_point end = Clock::now();
      out.late_ms[k] = MsBetween(due[k], start);
      out.submit_us[k] = MsBetween(start, end) * 1e3;
      published.store(i + 1, std::memory_order_release);
    }
  });

  Clock::time_point last_ready = t0;
  std::thread collector([&] {
    const Clock::time_point last_due = due.back();
    bool backlog_taken = false;
    for (int64_t i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i);
      while (published.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      const bool resolved =
          futures[k].wait_until(due[k] + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(kResolveTimeoutS))) ==
          std::future_status::ready;
      const Clock::time_point ready = Clock::now();
      if (!backlog_taken && ready >= last_due) {
        out.backlog_at_last_due = n - i;
        backlog_taken = true;
      }
      last_ready = ready;
      if (!resolved) {
        ++out.unresolved;
        ++out.failed;
        continue;
      }
      try {
        adaptraj::Tensor result = futures[k].get();
        if (hooks.check && !hooks.check(i, result)) {
          ++out.failed;
        } else {
          ++out.fulfilled;
          out.latency_ms[k] = MsBetween(due[k], ready);
        }
      } catch (const adaptraj::serve::OverloadedError&) {
        ++out.shed;
      } catch (const adaptraj::serve::DeadlineExceededError&) {
        ++out.expired;
      } catch (...) {
        ++out.failed;
      }
      if (tracer != nullptr && i < kTracedRequests) {
        tracer->Add("request", "request", tracer->ToUs(due[k]), tracer->ToUs(ready),
                    hooks.trace_id_base + i);
      }
    }
  });
  generator.join();
  collector.join();
  out.wall_s = MsBetween(t0, last_ready) * 1e-3;
  return out;
}

}  // namespace perfbench
