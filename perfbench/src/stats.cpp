#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of quantile q among n sorted samples.
int64_t NearestRank(double q, int64_t n) {
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

int64_t MinSamplesForQuantile(double q) {
  int64_t n = kMinTailSamples;
  while (n - NearestRank(q, n) < kMinTailSamples) ++n;
  return n;
}

Quantile TailQuantile(std::vector<double> values, double q) {
  Quantile out;
  out.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return out;
  const int64_t rank = NearestRank(q, out.samples);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[static_cast<size_t>(rank - 1)];
  out.beyond = out.samples - rank;
  out.supported = out.beyond >= kMinTailSamples;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double LowerQuartile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return TailQuantile(std::move(values), 0.25).value;
}

double UpperQuartile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return TailQuantile(std::move(values), 0.75).value;
}

std::vector<double> WindowTailQuantiles(const std::vector<double>& values, double q,
                                        int max_windows) {
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t windows =
      std::min<int64_t>(max_windows, n / MinSamplesForQuantile(q));
  std::vector<double> out;
  for (int64_t w = 0; w < windows; ++w) {
    const int64_t lo = n * w / windows;
    const int64_t hi = n * (w + 1) / windows;
    out.push_back(
        TailQuantile(std::vector<double>(values.begin() + lo, values.begin() + hi), q).value);
  }
  return out;
}

Quantile WindowedTailQuantile(const std::vector<double>& values, double q,
                              int max_windows) {
  Quantile out;
  out.samples = static_cast<int64_t>(values.size());
  const std::vector<double> per_window = WindowTailQuantiles(values, q, max_windows);
  if (per_window.empty()) return out;
  out.value = Median(per_window);
  out.beyond = out.samples - static_cast<int64_t>(std::ceil(q * out.samples - 1e-9));
  out.supported = true;
  return out;
}

bool MeetsLatencyLimit(const std::vector<double>& latencies, double q, double limit,
                       int max_windows) {
  const Quantile tail = WindowedTailQuantile(latencies, q, max_windows);
  return tail.supported && tail.value <= limit;
}

}  // namespace perfbench
