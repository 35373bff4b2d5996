// Tests of the benchmark's own statistics: the percentile rule, due-time
// latency under a generator stall, and failure accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "open_loop.h"
#include "serve/errors.h"
#include "stats.h"

namespace perfbench {
namespace {

using adaptraj::Tensor;

std::future<Tensor> Ready() {
  std::promise<Tensor> p;
  p.set_value(Tensor::Zeros({1, 24}));
  return p.get_future();
}

template <typename E>
std::future<Tensor> Failing() {
  std::promise<Tensor> p;
  p.set_exception(std::make_exception_ptr(E("injected")));
  return p.get_future();
}

std::vector<double> Evenly(int64_t n, double gap_s) {
  std::vector<double> due;
  for (int64_t i = 0; i < n; ++i) due.push_back(gap_s * static_cast<double>(i + 1));
  return due;
}

TEST(PercentileRule, TenSamplesBeyondTheReportedRank) {
  EXPECT_EQ(MinSamplesForQuantile(0.99), 1000);
  EXPECT_EQ(MinSamplesForQuantile(0.50), 20);
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(TailQuantile(v, 0.99).supported);
  v.push_back(1000);
  const Quantile q = TailQuantile(v, 0.99);
  EXPECT_TRUE(q.supported);
  EXPECT_EQ(q.beyond, 10);
  EXPECT_EQ(q.samples, 1000);
  EXPECT_DOUBLE_EQ(q.value, 990.0);
}

TEST(PercentileRule, UnsupportedTailNeverMeetsALimit) {
  const std::vector<double> few(500, 0.1);
  EXPECT_FALSE(MeetsLatencyLimit(few, 0.99, 10.0, 5));
  const std::vector<double> enough(1000, 0.1);
  EXPECT_TRUE(MeetsLatencyLimit(enough, 0.99, 10.0, 5));
}

TEST(PercentileRule, WindowedTailIgnoresOneStalledWindow) {
  std::vector<double> v(5000, 1.0);
  for (int i = 2000; i < 2100; ++i) v[i] = 50.0;  // one stall inside window 3 of 5
  EXPECT_DOUBLE_EQ(TailQuantile(v, 0.99).value, 50.0);
  const Quantile w = WindowedTailQuantile(v, 0.99, 5);
  EXPECT_TRUE(w.supported);
  EXPECT_DOUBLE_EQ(w.value, 1.0);
  EXPECT_EQ(w.samples, 5000);
  // Too few samples for even one window: unsupported.
  EXPECT_FALSE(WindowedTailQuantile(std::vector<double>(900, 1.0), 0.99, 5).supported);
}

TEST(PercentileRule, LowerQuartileOfWindowTailsFollowsTheTailOfEveryWindow) {
  // Stalls in 5 of 8 windows: the run's p99 lower quartile stays quiet.
  std::vector<double> v(8000, 1.0);
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 50; ++i) v[w * 1000 + 500 + i] = 50.0;
  }
  EXPECT_DOUBLE_EQ(Median(WindowTailQuantiles(v, 0.99, 64)), 50.0);
  EXPECT_DOUBLE_EQ(LowerQuartile(WindowTailQuantiles(v, 0.99, 64)), 1.0);
  // A slower tail in every window (2% of requests at 3.0) moves it.
  for (int i = 0; i < 8000; i += 50) v[i] = 3.0;
  EXPECT_DOUBLE_EQ(LowerQuartile(WindowTailQuantiles(v, 0.99, 64)), 3.0);
  EXPECT_DOUBLE_EQ(LowerQuartile({4.0, 1.0, 3.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(LowerQuartile({}), 0.0);
  EXPECT_DOUBLE_EQ(UpperQuartile({4.0, 1.0, 3.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(UpperQuartile({1.0, 5.0, 2.0}), 5.0);
}

TEST(DueTimeLatency, GeneratorStallRaisesLatencyOfRequestsQueuedBehindIt) {
  // 1 request per ms; the generator stalls 40 ms before submitting #50.
  const std::vector<double> due = Evenly(200, 1e-3);
  OpenLoopHooks hooks;
  hooks.submit = [](int64_t) { return Ready(); };
  hooks.before_submit = [](int64_t i) {
    if (i == 50) std::this_thread::sleep_for(std::chrono::milliseconds(40));
  };
  const OpenLoopResult r = RunOpenLoop(due, hooks);
  ASSERT_EQ(r.fulfilled, 200);
  // Request 50 + j was due j ms into the stall: its result cannot be ready
  // before the stall ends, so its latency is at least (40 - j) ms.
  for (int j = 0; j < 30; ++j) {
    EXPECT_GE(r.latency_ms[50 + j], 40.0 - j - 0.5) << "request " << 50 + j;
    EXPECT_GE(r.late_ms[50 + j], 40.0 - j - 0.5) << "request " << 50 + j;
  }
  // The stall is not blamed on the requests before it.
  EXPECT_LT(Median(std::vector<double>(r.latency_ms.begin(), r.latency_ms.begin() + 50)), 5.0);
}

TEST(FailureAccounting, FailedRequestsMissTheLatencyLimit) {
  const std::vector<double> due = Evenly(1000, 20e-6);
  OpenLoopHooks hooks;
  hooks.submit = [](int64_t i) {
    if (i % 50 == 7) return Failing<adaptraj::serve::ServeError>();
    if (i % 100 == 3) return Failing<adaptraj::serve::OverloadedError>();
    if (i % 100 == 5) return Failing<adaptraj::serve::DeadlineExceededError>();
    return Ready();
  };
  // One delivered result is malformed: it counts as failed, not served.
  hooks.check = [](int64_t i, const Tensor&) { return i != 11; };
  const OpenLoopResult r = RunOpenLoop(due, hooks);
  EXPECT_EQ(r.submitted, 1000);
  EXPECT_EQ(r.failed, 21);
  EXPECT_EQ(r.shed, 10);
  EXPECT_EQ(r.expired, 10);
  EXPECT_EQ(r.fulfilled + r.shed + r.expired + r.failed, r.submitted);
  EXPECT_EQ(r.latency_ms[7], kFailedLatency);
  EXPECT_EQ(r.latency_ms[11], kFailedLatency);
  // 41 of 1000 requests failed: every served request was instant, yet p99
  // misses a generous limit because failures count as misses.
  EXPECT_FALSE(MeetsLatencyLimit(r.latency_ms, 0.99, 1000.0, 5));
  EXPECT_EQ(TailQuantile(r.latency_ms, 0.99).value, kFailedLatency);
}

TEST(FailureAccounting, ThrowingSubmitReachesTheRequestsFuture) {
  OpenLoopHooks hooks;
  hooks.submit = [](int64_t i) -> std::future<Tensor> {
    if (i == 3) throw std::runtime_error("submit threw");
    return Ready();
  };
  const OpenLoopResult r = RunOpenLoop(Evenly(10, 1e-4), hooks);
  EXPECT_EQ(r.failed, 1);
  EXPECT_EQ(r.fulfilled, 9);
}

TEST(OpenLoopSchedule, PoissonDueTimesAreSeededAndAtTheOfferedRate) {
  const std::vector<double> a = PoissonDueTimes(1000.0, 20000, 5);
  EXPECT_EQ(a, PoissonDueTimes(1000.0, 20000, 5));
  EXPECT_NE(a, PoissonDueTimes(1000.0, 20000, 6));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NEAR(a.back(), 20.0, 0.5);
}

}  // namespace
}  // namespace perfbench
