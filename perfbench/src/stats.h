// Summary statistics the benchmark reports: medians, tail percentiles that
// the sample supports, and latency series in which a failed request counts
// as missing every latency limit.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, one outlier decides the number.
constexpr int64_t kMinTailSamples = 10;

/// Latency recorded for a request that failed, was shed or expired: it
/// misses any finite limit and sorts above every served request.
constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Smallest sample count for which quantile `q` has kMinTailSamples beyond
/// it (1000 for p99, 20 for p50).
int64_t MinSamplesForQuantile(double q);

/// A quantile together with the evidence behind it.
struct Quantile {
  double value = 0.0;
  int64_t samples = 0;  // sample count the quantile was taken over
  int64_t beyond = 0;   // samples strictly above the reported rank
  bool supported = false;  // beyond >= kMinTailSamples
};

/// Nearest-rank quantile of `values` (rank ceil(q * n), 1-based). An empty
/// input gives an unsupported zero.
Quantile TailQuantile(std::vector<double> values, double q);

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank lower quartile of `values` (rank ceil(n / 4)); 0 for an
/// empty input.
double LowerQuartile(std::vector<double> values);

/// Nearest-rank upper quartile of `values` (rank ceil(3n / 4)); 0 for an
/// empty input.
double UpperQuartile(std::vector<double> values);

/// Nearest-rank quantile `q` of each of up to `max_windows` consecutive
/// windows of `values`, each holding at least MinSamplesForQuantile(q)
/// samples. Empty when `values` is too short for one window.
std::vector<double> WindowTailQuantiles(const std::vector<double>& values, double q,
                                        int max_windows);

/// Median of WindowTailQuantiles: a short stall inside one window moves that
/// window's tail but not the median across windows. Unsupported when
/// `values` is too short for one window.
Quantile WindowedTailQuantile(const std::vector<double>& values, double q,
                              int max_windows);

/// True when WindowedTailQuantile(latencies, q, max_windows) is supported
/// and at most `limit`. Failed requests are kFailedLatency, so enough of
/// them push the quantile past any limit.
bool MeetsLatencyLimit(const std::vector<double>& latencies, double q, double limit,
                       int max_windows);

/// Mean of a log-bucket histogram estimated from its interpolated quantiles
/// (the same within-bucket interpolation the histogram's Quantile uses).
template <typename Histogram>
double HistogramMean(const Histogram& h) {
  if (h.count() == 0) return 0.0;
  double sum = 0.0;
  constexpr int kSteps = 200;
  for (int i = 0; i < kSteps; ++i) sum += h.Quantile((i + 0.5) / kSteps);
  return sum / kSteps;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
