// The benchmark's workloads and the result record they fill.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptraj_method.h"
#include "data/multi_domain.h"
#include "serve/inference_engine.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the traced run's Chrome trace and layer table.
  std::string out_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // measurements behind the value
};

struct RunResult {
  std::vector<std::string> check_failures;  // empty when every check passed
  int64_t attempted = 0;  // operations offered: requests, trainings, evaluations
  int64_t failed = 0;     // of those: failed, shed, expired or invalid
  std::vector<Metric> metrics;
  std::vector<std::string> report;  // human-readable lines (phases, host)

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. With options.trace, fills the per-layer metrics;
/// otherwise the end-to-end ones.
RunResult RunWorkload(const RunOptions& options);

// --- Shared with the per-layer measurements (layers.cpp) ---------------------

/// Serving corpus: base SDD sequences plus the rigid rotation that turns
/// (base, variant) into a scene whose bytes were never offered before.
class ScenePool {
 public:
  ScenePool(adaptraj::data::Dataset base, uint64_t seed);
  /// Scene for content id `id`; the same id always yields the same bytes.
  adaptraj::data::TrajectorySequence Scene(int64_t id) const;
  size_t base_size() const { return base_.size(); }

 private:
  adaptraj::data::Dataset base_;
  std::vector<size_t> order_;  // seeded permutation of the base sequences
  double angle0_ = 0.0;
};

/// Everything the per-layer measurements need from a finished run.
struct LayerContext {
  const RunOptions* options = nullptr;
  adaptraj::core::AdapTrajMethod* method = nullptr;  // idle: no engine attached
  const adaptraj::data::DomainGeneralizationData* dgd = nullptr;
  const ScenePool* pool = nullptr;
  /// Content ids of the mid-rate phase, in arrival order (replayed).
  std::vector<int64_t> replay_ids;
  adaptraj::serve::InferenceEngineStats engine_stats;
  int replica_slots = 0;
  double train_wall_s = 0.0;  // one Method::Train
  int train_epochs = 0;
  int64_t micro_batches = 0;  // per Train
  double corpus_s = 0.0;      // median corpus simulation time
  int setup_repeats = 0;
  std::vector<double> late_ms;    // generator lateness, every open-loop request
  std::vector<double> submit_us;  // submit call durations, every request
  // Median offline throughput of interleaved untraced and traced passes.
  double untraced_offline_per_s = 0.0;
  double traced_offline_per_s = 0.0;
  int overhead_pairs = 0;
};

/// Adds every per-layer metric to `result`.
void MeasureLayers(const LayerContext& ctx, RunResult* result);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMiB();

/// Resets the peak resident set size to the current one (Linux
/// clear_refs); false when the kernel refuses.
bool ResetPeakRss();

/// One line naming the host, the library's resolved defaults and any
/// ADAPTRAJ_* variable set.
std::string HostReport();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
