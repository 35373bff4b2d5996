// Open-loop load: requests are submitted on a schedule fixed before the run,
// whatever the server's backlog, and each is timed from when it was DUE to
// when its result was ready. A generator that falls behind therefore adds
// its own lateness to every request queued behind the stall instead of
// hiding it, and the lateness is reported beside the latencies.
//
// Threads: one generator submits request i at due_s[i]; one collector waits
// on the futures in submission order and records when each became ready.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

/// In a traced run, the first this many requests of each phase get submit
/// and request spans; the rest are only counted, which bounds trace size.
constexpr int64_t kTracedRequests = 2000;

/// How long after its due time the collector waits for a request's future
/// before counting it unresolved.
constexpr double kResolveTimeoutS = 30.0;

/// Arrival offsets in seconds from the start of a phase: cumulative
/// exponential gaps at `rate` per second (a Poisson process), seeded.
std::vector<double> PoissonDueTimes(double rate, int64_t count, uint64_t seed);

struct OpenLoopHooks {
  /// Prepares request i's input on the generator thread before i is due, so
  /// building it is not counted in the submit call. May be empty.
  std::function<void(int64_t i)> prepare;
  /// Submits request i; called on the generator thread once i is due.
  std::function<std::future<adaptraj::Tensor>(int64_t i)> submit;
  /// Validates a fulfilled result; false counts the request as failed.
  std::function<bool(int64_t i, const adaptraj::Tensor& result)> check;
  /// Called on the generator thread just before request i is submitted
  /// (tests inject stalls here). May be empty.
  std::function<void(int64_t i)> before_submit;
  /// Trace request id of request 0; request i gets trace_id_base + i.
  int64_t trace_id_base = 0;
};

struct OpenLoopResult {
  /// Due -> ready per request, in milliseconds; kFailedLatency for a
  /// request that was shed, expired, failed or returned an invalid result.
  std::vector<double> latency_ms;
  /// Generator lateness per request: submit start minus due time (ms).
  std::vector<double> late_ms;
  /// Duration of each submit call (microseconds).
  std::vector<double> submit_us;
  int64_t submitted = 0;
  int64_t fulfilled = 0;    // valid result delivered
  int64_t shed = 0;         // serve::OverloadedError
  int64_t expired = 0;      // serve::DeadlineExceededError
  int64_t failed = 0;       // any other exception, or an invalid result
  /// Futures still unresolved kResolveTimeoutS after their due time; also
  /// counted in `failed`. A correct engine resolves every future.
  int64_t unresolved = 0;
  double wall_s = 0.0;      // first due time to last ready time
  /// Requests still outstanding when the last one became due (from the
  /// collector's view): a backlog that grows with the run shows here.
  int64_t backlog_at_last_due = 0;
};

/// Runs one open-loop phase over `due_s` (ascending offsets, seconds).
/// Returns after every request has resolved and both threads have joined.
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, const OpenLoopHooks& hooks);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
