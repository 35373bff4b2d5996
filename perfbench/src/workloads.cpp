#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "core/parallel_trainer.h"
#include "eval/metrics.h"
#include "open_loop.h"
#include "stats.h"
#include "tensor/parallel.h"
#include "trace.h"

namespace perfbench {

using adaptraj::Rng;
using adaptraj::Tensor;
namespace core = adaptraj::core;
namespace data = adaptraj::data;
namespace eval = adaptraj::eval;
namespace models = adaptraj::models;
namespace serve = adaptraj::serve;
namespace sim = adaptraj::sim;

namespace {

// Engine settings every serving phase fixes; the rest stay at their defaults.
constexpr int kServeBatch = 8;
constexpr int kMaxBatchDelayMs = 2;
// Latency limit on p99 for max_rate_per_s.
constexpr double kLatencyLimitMs = 10.0;
constexpr int kEvalSamples = 20;  // best-of-20
constexpr int kEvalBatch = 64;
// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
// Serving pool: SDD scenes whose sequences are the base of every request.
constexpr int kPoolScenes = 40;
constexpr int kPoolSteps = 80;
// The simulated corpora (training domains, SDD target split, and the SDD
// sequences the serving scenes are made from) and the training run (model
// initialization, batch order) are part of the workload's definition and the
// same at every --seed, so set-up, training and serving do the same work in
// every run. --seed varies which base scenes are served in which order and
// rotation, every arrival schedule, the engine's noise streams and the
// evaluation's samples.
constexpr uint64_t kDefinitionSeed = 20240612;
// Closed-loop bulk pass size (a multiple of kServeBatch).
constexpr int kOfflineScenes = 8192;
constexpr int kWarmupScenes = 4096;
// A max_rate probe's p99 is the median over at most this many consecutive
// windows of >= 1000 requests each, so one short stall moves one window only.
constexpr int kMaxWindows = 5;
// A fixed rate's p99 is the lower quartile over up to this many consecutive
// windows of >= 1000 requests of all its sub-phases in the run.
constexpr int kRunWindows = 256;
// Interleaved sub-phases per fixed rate.
constexpr int kRounds = 8;
// max_rate staircase probes per round.
constexpr int kProbesPerRound = 3;
// Shares of the serving budget: the fixed-rate sub-phases (split low / mid /
// high as kRateShare) and the max_rate probes. Offline passes and
// evaluations take the rest.
constexpr double kFixedShare = 0.5;
constexpr double kRateShare[3] = {0.4, 0.3, 0.3};
constexpr double kProbeShare = 0.3;

struct WorkloadSpec {
  std::string name;
  models::BackboneKind backbone = models::BackboneKind::kPecnet;
  double repeat_fraction = 0.0;
  // Training corpus (per domain) and schedule of the served model, trained
  // in every set-up: AdapTraj Alg. 1 on the table-4 cell (sources ETH&UCY,
  // L-CAS, SYI; target SDD) with the table benches' "full" corpus and
  // standard schedule.
  int corpus_scenes = 8;
  int corpus_steps = 80;
  int epochs = 64;
  int max_batches = 12;
  // Offered rates (arrivals per second) of the fixed-rate phases: about
  // 10%, 40% and 50-65% of the workload's max_rate_per_s on a 4-CPU Xeon
  // host. Nearer capacity, p99 follows the host's load from run to run more
  // than the program.
  double rates[3] = {6000.0, 24000.0, 34000.0};
};

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> s(3);
    s[0].name = "serve_fresh";
    s[1].name = "serve_repeat";
    s[1].repeat_fraction = 0.9;
    s[1].rates[0] = 10000.0;
    s[1].rates[1] = 38000.0;
    s[1].rates[2] = 50000.0;
    s[2].name = "serve_lbebm";
    s[2].backbone = models::BackboneKind::kLbebm;
    s[2].rates[0] = 3000.0;
    s[2].rates[1] = 12000.0;
    s[2].rates[2] = 18000.0;
    return s;
  }();
  return specs;
}

const char* kRateNames[3] = {"low", "mid", "high"};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string Fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

data::SequenceConfig SeqConfig() { return data::SequenceConfig(); }

std::unique_ptr<core::AdapTrajMethod> MakeMethod(const WorkloadSpec& spec,
                                                 uint64_t init_seed) {
  core::AdapTrajConfig model_config;
  model_config.num_source_domains = 3;
  return std::make_unique<core::AdapTrajMethod>(spec.backbone, models::BackboneConfig(),
                                                model_config, init_seed);
}

core::TrainConfig MakeTrainConfig(const WorkloadSpec& spec, uint64_t seed) {
  core::TrainConfig config;
  config.epochs = spec.epochs;
  config.max_batches_per_epoch = spec.max_batches;
  config.seed = seed;
  return config;
}

// Rows and micro-batches one Method::Train processes: the Alg.-1 schedule of
// core/adaptraj_method.cpp (pooled batches for the first half of the epochs,
// per-domain batches after), with the per-epoch batch cap.
struct TrainWork {
  int64_t rows = 0;
  int64_t micro_batches = 0;
};

TrainWork CountTrainWork(const data::DomainGeneralizationData& dgd,
                         const core::TrainConfig& config) {
  const core::AdapTrajTrainConfig schedule;
  const int e_start = std::max(
      1, static_cast<int>(std::round(config.epochs * schedule.start_fraction)));
  auto add = [&](int64_t n, int64_t epochs, TrainWork* w) {
    const int64_t bs = config.batch_size;
    int64_t batches = (n + bs - 1) / bs;
    int64_t rows = n;
    if (config.max_batches_per_epoch > 0 && batches > config.max_batches_per_epoch) {
      batches = config.max_batches_per_epoch;
      rows = batches * bs;
    }
    w->rows += rows * epochs;
    w->micro_batches += batches * epochs;
  };
  TrainWork w;
  const int64_t step1 = std::min(config.epochs, e_start);
  add(static_cast<int64_t>(dgd.pooled_train.size()), step1, &w);
  for (const auto& source : dgd.sources) {
    add(static_cast<int64_t>(source.train.size()), config.epochs - step1, &w);
  }
  return w;
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

bool ParametersFinite(core::AdapTrajMethod& method) {
  for (const Tensor& p : method.model().Parameters()) {
    if (!AllFinite(p)) return false;
  }
  return true;
}

bool SameParameters(core::AdapTrajMethod& a, core::AdapTrajMethod& b) {
  const std::vector<Tensor> pa = a.model().Parameters();
  const std::vector<Tensor> pb = b.model().Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].size() != pb[i].size() ||
        std::memcmp(pa[i].data(), pb[i].data(), sizeof(float) * pa[i].size()) != 0) {
      return false;
    }
  }
  return true;
}

// The Alg.-1 step loss (L_base + delta * L_ours) on one labelled source batch,
// evaluated without a backward pass.
float SourceLoss(core::AdapTrajMethod* method, const data::DomainGeneralizationData& dgd,
                 uint64_t seed) {
  std::vector<const data::TrajectorySequence*> seqs;
  for (size_t i = 0; i < dgd.pooled_train.size() && seqs.size() < 32; ++i) {
    seqs.push_back(&dgd.pooled_train.sequences[i]);
  }
  data::Batch batch = data::MakeBatch(seqs, SeqConfig());
  adaptraj::NoGradGuard no_grad;
  core::AdapTrajModel& model = method->model();
  Rng rng(seed);
  models::EncodeResult enc = model.backbone().Encode(batch);
  core::AdapTrajFeatures f = model.ExtractFeatures(enc, batch.domain_labels);
  Tensor base = model.backbone().Loss(batch, enc, f.Extra(), &rng);
  Tensor ours = model.OursLoss(batch, f, batch.domain_labels);
  return base.data()[0] + method->schedule().delta * ours.data()[0];
}

}  // namespace

// --- ScenePool ----------------------------------------------------------------

ScenePool::ScenePool(data::Dataset base, uint64_t seed) : base_(std::move(base)) {
  order_.resize(base_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  Rng rng(seed);
  for (size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  angle0_ = static_cast<double>(rng.Uniform(0.0f, 6.2831853f));
}

data::TrajectorySequence ScenePool::Scene(int64_t id) const {
  const size_t n = base_.size();
  const size_t base = order_[static_cast<size_t>(id) % n];
  const int64_t variant = id / static_cast<int64_t>(n);
  // Golden-angle steps never revisit an angle, so every variant of a base
  // sequence has different bytes, and a rigid rotation keeps it a
  // physically plausible scene.
  const float angle =
      static_cast<float>(std::fmod(angle0_ + 2.399963229728653 * variant, 6.283185307179586));
  data::TrajectorySequence s = base_.sequences[base];
  for (auto& p : s.focal) p = p.Rotated(angle);
  for (auto& track : s.neighbors) {
    for (auto& p : track) p = p.Rotated(angle);
  }
  return s;
}

namespace {

// Content ids offered across one run: fresh ids advance a run-wide cursor,
// repeats resubmit an id offered earlier in the same phase.
class ContentSchedule {
 public:
  std::vector<int64_t> Next(int64_t n, double repeat_fraction, uint64_t seed,
                            int64_t* repeats_of_run) {
    Rng rng(seed);
    std::vector<int64_t> ids;
    ids.reserve(static_cast<size_t>(n));
    int64_t repeats = 0;
    for (int64_t i = 0; i < n; ++i) {
      int64_t id;
      const bool repeat =
          !ids.empty() && static_cast<double>(rng.Uniform(0.0f, 1.0f)) < repeat_fraction;
      if (repeat) {
        id = ids[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ids.size())))];
      } else {
        id = next_fresh_++;
        offered_.push_back(0);
      }
      if (offered_[static_cast<size_t>(id)]) ++repeats;
      offered_[static_cast<size_t>(id)] = 1;
      ids.push_back(id);
    }
    *repeats_of_run = repeats;
    return ids;
  }

 private:
  int64_t next_fresh_ = 0;
  std::vector<char> offered_;  // by content id: offered earlier in the run
};

struct PhaseStats {
  std::string name;
  OpenLoopResult r;
  double repeat_share = 0.0;
};

class ServingRun {
 public:
  ServingRun(const WorkloadSpec& spec, const RunOptions& options,
             core::AdapTrajMethod* method, const ScenePool* pool, RunResult* result)
      : spec_(spec), options_(options), method_(method), pool_(pool), result_(result) {
    serve::InferenceEngineOptions engine_options;
    engine_options.batch_size = kServeBatch;
    engine_options.max_batch_delay_ms = kMaxBatchDelayMs;
    engine_options.sample = true;
    engine_options.seed = options.seed * 7919 + 17;
    engine_options.sequence = SeqConfig();
    engine_ = std::make_unique<serve::InferenceEngine>(method_, engine_options);
    // Warm-up, untimed: one closed-loop pass lets every replica capture the
    // execution plans of the neighbor-slot widths the traffic brings (plans
    // are keyed by batch shape), as a long-running server would have.
    int64_t repeats = 0;
    const std::vector<int64_t> ids =
        schedule_.Next(kWarmupScenes, spec_.repeat_fraction, options.seed * 31 + 999, &repeats);
    std::vector<std::future<Tensor>> futures;
    for (int64_t id : ids) futures.push_back(engine_->Submit(pool_->Scene(id)));
    engine_->Drain();
    for (auto& f : futures) {
      ++result_->attempted;
      try {
        if (!ValidResult(f.get())) ++result_->failed;
      } catch (...) {
        ++result_->failed;
      }
    }
    next_request_id_ += kWarmupScenes;
  }

  serve::InferenceEngine& engine() { return *engine_; }

  // One closed-loop pass: submit kOfflineScenes, Drain, wait for every
  // result. Returns its throughput. Every result is compared byte for byte
  // with a direct Predict on the batch the engine formed (see
  // VerifyAgainstPredict).
  double OfflinePass() {
    int64_t repeats = 0;
    const std::vector<int64_t> ids = schedule_.Next(
        kOfflineScenes, spec_.repeat_fraction, options_.seed * 31 + 1000 + offline_passes_,
        &repeats);
    std::vector<data::TrajectorySequence> scenes;
    scenes.reserve(ids.size());
    for (int64_t id : ids) scenes.push_back(pool_->Scene(id));
    const int64_t first_batch = engine_->stats().batches;
    std::vector<std::future<Tensor>> futures;
    futures.reserve(scenes.size());
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < static_cast<int64_t>(scenes.size()); ++i) {
      std::optional<ScopedSpan> span;
      if (i < kTracedRequests) span.emplace("serve.submit", "serve", next_request_id_ + i);
      futures.push_back(engine_->Submit(scenes[static_cast<size_t>(i)]));
    }
    engine_->Drain();
    for (auto& f : futures) f.wait();
    next_request_id_ += static_cast<int64_t>(scenes.size());
    const double rate = static_cast<double>(scenes.size()) / SecondsSince(t0);
    std::vector<Tensor> results(scenes.size());
    int64_t ok = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      try {
        results[i] = futures[i].get();
        if (ValidResult(results[i])) ++ok;
      } catch (...) {
      }
    }
    result_->attempted += static_cast<int64_t>(scenes.size());
    result_->failed += static_cast<int64_t>(scenes.size()) - ok;
    const int64_t flushed = VerifyAgainstPredict(scenes, results, first_batch);
    result_->Check(ok == static_cast<int64_t>(scenes.size()),
                   "offline pass " + std::to_string(offline_passes_) + ": " +
                       std::to_string(scenes.size() - ok) + " results missing or invalid");
    result_->Check(flushed >= 0, "offline pass " + std::to_string(offline_passes_) +
                                     ": an engine result differs from direct Predict");
    result_->report.push_back(
        "phase offline." + std::to_string(offline_passes_) +
        ": sent=" + std::to_string(scenes.size()) +
        " succeeded=" + std::to_string(ok) +
        " failed=" + std::to_string(scenes.size() - ok) +
        Fmt(" scenes_per_s=%.1f repeat_share=%.4f", rate,
            static_cast<double>(repeats) / scenes.size()) +
        (flushed >= 0 ? " verified=byte-equal partial_batches=" + std::to_string(flushed)
                      : std::string(" verified=MISMATCH")));
    ++offline_passes_;
    return rate;
  }

  PhaseStats OpenLoop(const std::string& name, double rate, double seconds,
                      uint64_t phase_seed) {
    PhaseStats ps;
    ps.name = name;
    // At least enough requests for a supported p99.
    const int64_t n = std::max<int64_t>(MinSamplesForQuantile(0.99),
                                        static_cast<int64_t>(std::llround(rate * seconds)));
    int64_t repeats = 0;
    const std::vector<int64_t> ids =
        schedule_.Next(n, spec_.repeat_fraction, phase_seed, &repeats);
    ps.repeat_share = static_cast<double>(repeats) / static_cast<double>(n);
    last_ids_ = ids;
    const std::vector<double> due = PoissonDueTimes(rate, n, phase_seed ^ 0x5bd1e995ull);
    data::TrajectorySequence scratch;
    OpenLoopHooks hooks;
    hooks.prepare = [&](int64_t i) { scratch = pool_->Scene(ids[static_cast<size_t>(i)]); };
    hooks.submit = [&](int64_t) { return engine_->Submit(scratch); };
    hooks.check = [this](int64_t, const Tensor& t) { return ValidResult(t); };
    hooks.trace_id_base = next_request_id_;
    next_request_id_ += n;
    ps.r = RunOpenLoop(due, hooks);
    const OpenLoopResult& r = ps.r;
    result_->Check(r.fulfilled + r.shed + r.expired + r.failed == r.submitted &&
                       r.unresolved == 0,
                   "phase " + name + ": " + std::to_string(r.unresolved) +
                       " requests unresolved, or fulfilled+shed+expired+failed != submitted");
    result_->attempted += r.submitted;
    result_->failed += r.submitted - r.fulfilled;
    late_ms_.insert(late_ms_.end(), r.late_ms.begin(), r.late_ms.end());
    submit_us_.insert(submit_us_.end(), r.submit_us.begin(), r.submit_us.end());
    const Quantile p99 = WindowedTailQuantile(r.latency_ms, 0.99, kMaxWindows);
    const Quantile late99 = TailQuantile(r.late_ms, 0.99);
    result_->report.push_back(
        "phase " + name + Fmt(": rate=%.0f/s", rate) + " sent=" + std::to_string(r.submitted) +
        " succeeded=" + std::to_string(r.fulfilled) + " shed=" + std::to_string(r.shed) +
        " expired=" + std::to_string(r.expired) + " failed=" + std::to_string(r.failed) +
        Fmt(" lat_p50_ms=%.3f lat_p99_ms=%.3f", Median(r.latency_ms), p99.value) +
        " (n=" + std::to_string(p99.samples) + ", beyond_p99=" + std::to_string(p99.beyond) +
        ")" + Fmt(" gen_late_p99_ms=%.3f gen_late_max_ms=%.3f", late99.value,
                  *std::max_element(r.late_ms.begin(), r.late_ms.end())) +
        Fmt(" repeat_share=%.4f backlog_at_last_due=%.0f", ps.repeat_share,
            static_cast<double>(r.backlog_at_last_due)));
    return ps;
  }

  // One probe of the max_rate staircase: offers the current rate, then steps
  // it up after a pass and down after a fail. A probe passes when no request
  // failed, its p99 (the median over its windows) is within kLatencyLimitMs,
  // and its backlog did not grow (its last window's median latency is within
  // the limit too), so one short stall does not fail a probe. The steps are
  // 10% until the first reversal and 4% after it, so the probes settle
  // around the highest rate that keeps within the limit. The first probe
  // offers `start`.
  void MaxRateProbe(double start, double probe_seconds) {
    if (stair_rates_.empty()) stair_rate_ = start;
    const double rate = stair_rate_;
    PhaseStats ps = OpenLoop("probe." + std::to_string(probes_), rate, probe_seconds,
                             options_.seed * 131 + 7000 + probes_);
    ++probes_;
    const OpenLoopResult& r = ps.r;
    const size_t tail = r.latency_ms.size() / kMaxWindows;
    const double last_p50 = Median(std::vector<double>(
        r.latency_ms.end() - static_cast<std::ptrdiff_t>(tail), r.latency_ms.end()));
    const bool pass = r.fulfilled == r.submitted &&
                      MeetsLatencyLimit(r.latency_ms, 0.99, kLatencyLimitMs, kMaxWindows) &&
                      last_p50 <= kLatencyLimitMs;
    if (!stair_rates_.empty() && pass != stair_last_pass_) stair_reversed_ = true;
    stair_rates_.push_back(rate);
    stair_last_pass_ = pass;
    stair_passes_ += pass ? 1 : 0;
    const double step = stair_reversed_ ? 1.04 : 1.1;
    stair_rate_ = pass ? rate * step : rate / step;
  }

  // max_rate_per_s: the geometric mean of the rates of the last two thirds
  // of the staircase's probes, once it has climbed from its start to the
  // limit; averaging probes spread over the whole run keeps a noisy few
  // seconds on the host from deciding the result.
  double MaxRate(int64_t* probes_used) {
    const size_t n = stair_rates_.size();
    const size_t first = n / 3;
    double log_sum = 0.0;
    for (size_t i = first; i < n; ++i) log_sum += std::log(stair_rates_[i]);
    *probes_used = static_cast<int64_t>(n - first);
    const double estimate =
        n > first ? std::exp(log_sum / static_cast<double>(n - first)) : 0.0;
    result_->report.push_back(
        Fmt("max_rate staircase: %.0f probes (%.0f passed), estimate %.0f/s over the last ",
            static_cast<double>(n), static_cast<double>(stair_passes_), estimate) +
        std::to_string(n - first));
    return estimate;
  }

  const std::vector<int64_t>& last_ids() const { return last_ids_; }
  const std::vector<double>& late_ms() const { return late_ms_; }
  const std::vector<double>& submit_us() const { return submit_us_; }

 private:
  bool ValidResult(const Tensor& t) const {
    const int64_t cols = 2 * SeqConfig().pred_len;
    return t.dim() == 2 && t.shape()[0] == 1 && t.shape()[1] == cols && AllFinite(t);
  }

  // Replays the pass through direct Predict calls: batch b holds the next
  // k consecutive requests, padded to kServeBatch by cycling them as the
  // engine does, with noise stream TaskSeed(engine seed, b). k is 8 unless a
  // max_batch_delay_ms flush retired a partial batch. Runs of full batches
  // are checked in parallel on the training-worker pool; at the first
  // mismatch, that batch's k is found by trying k = 7, 6, ... Returns the
  // number of partial batches, or -1 when some result matches no batch.
  int64_t VerifyAgainstPredict(const std::vector<data::TrajectorySequence>& scenes,
                               const std::vector<Tensor>& results, int64_t first_batch) {
    const size_t n = scenes.size();
    size_t i = 0;
    int64_t batch_index = first_batch;
    int64_t partial = 0;
    while (i < n) {
      const size_t good = FullBatchesMatching(scenes, results, i, batch_index);
      i += good * kServeBatch;
      batch_index += static_cast<int64_t>(good);
      if (i >= n) break;
      size_t k = std::min<size_t>(kServeBatch - 1, n - i);
      while (k > 0 && !BatchMatches(*method_, scenes, results, i, k, batch_index)) --k;
      if (k == 0) return -1;
      ++partial;
      i += k;
      ++batch_index;
    }
    return partial;
  }

  // True when rows [0, k) of Predict on the batch of scenes [first, first+k)
  // (cycled to kServeBatch rows) byte-equal results [first, first+k).
  bool BatchMatches(const core::Method& method,
                    const std::vector<data::TrajectorySequence>& scenes,
                    const std::vector<Tensor>& results, size_t first, size_t k,
                    int64_t batch_index) const {
    const int64_t cols = 2 * SeqConfig().pred_len;
    std::vector<const data::TrajectorySequence*> slots;
    for (size_t r = 0; r < static_cast<size_t>(kServeBatch); ++r) {
      slots.push_back(&scenes[first + r % k]);
    }
    const data::Batch batch = data::MakeBatch(slots, SeqConfig());
    Rng rng(core::TaskSeed(engine_->options().seed, static_cast<uint64_t>(batch_index)));
    const Tensor pred = method.Predict(batch, &rng, true);
    for (size_t r = 0; r < k; ++r) {
      const Tensor& got = results[first + r];
      if (got.size() != cols ||
          std::memcmp(got.data(), pred.data() + r * cols, sizeof(float) * cols) != 0) {
        return false;
      }
    }
    return true;
  }

  // Number of leading full batches from request `first` (batch index
  // `batch_index`) whose results match, checked in parallel: one task per
  // training worker over a contiguous share, each on its own serving
  // replica when the method's Predict is not reentrant.
  size_t FullBatchesMatching(const std::vector<data::TrajectorySequence>& scenes,
                             const std::vector<Tensor>& results, size_t first,
                             int64_t batch_index) {
    const size_t batches = (scenes.size() - first) / kServeBatch;
    if (batches == 0) return 0;
    const size_t workers = static_cast<size_t>(adaptraj::parallel::NumTrainWorkers());
    if (!method_->reentrant_predict() && verifiers_.empty()) {
      for (size_t w = 0; w < workers; ++w) {
        verifiers_.push_back(method_->CloneForServing());
        ADAPTRAJ_CHECK_MSG(verifiers_.back() != nullptr, "verification needs a serving replica");
      }
    }
    std::vector<size_t> first_bad(workers, batches);
    std::vector<std::function<void()>> tasks;
    for (size_t w = 0; w < workers; ++w) {
      tasks.push_back([&, w] {
        const core::Method& m = verifiers_.empty() ? *method_ : *verifiers_[w];
        for (size_t j = batches * w / workers; j < batches * (w + 1) / workers; ++j) {
          bool ok = false;
          try {
            ok = BatchMatches(m, scenes, results, first + j * kServeBatch, kServeBatch,
                              batch_index + static_cast<int64_t>(j));
          } catch (...) {
          }
          if (!ok) {
            first_bad[w] = j;
            return;
          }
        }
      });
    }
    adaptraj::parallel::RunTaskGroup(tasks);
    return *std::min_element(first_bad.begin(), first_bad.end());
  }

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  core::AdapTrajMethod* method_;
  const ScenePool* pool_;
  RunResult* result_;
  std::unique_ptr<serve::InferenceEngine> engine_;
  ContentSchedule schedule_;
  /// Serving replicas for parallel verification of a non-reentrant method.
  std::vector<std::unique_ptr<core::Method>> verifiers_;
  std::vector<int64_t> last_ids_;
  int64_t next_request_id_ = 0;  // trace request id of the next request
  int probes_ = 0;
  int offline_passes_ = 0;
  // max_rate staircase state.
  double stair_rate_ = 0.0;          // rate of the next probe
  std::vector<double> stair_rates_;  // every probed rate, in order
  bool stair_last_pass_ = false;
  bool stair_reversed_ = false;
  int stair_passes_ = 0;
  std::vector<double> late_ms_;
  std::vector<double> submit_us_;
};

struct SetupResult {
  data::DomainGeneralizationData dgd;
  std::unique_ptr<ScenePool> pool;
  std::unique_ptr<core::AdapTrajMethod> method;  // trained
  double setup_s = 0.0;
  double corpus_s = 0.0;
  double train_s = 0.0;
};

SetupResult SetupOnce(const WorkloadSpec& spec, uint64_t seed) {
  SetupResult s;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("sim.corpus", "sim");
    data::CorpusConfig corpus;
    corpus.num_scenes = spec.corpus_scenes;
    corpus.steps_per_scene = spec.corpus_steps;
    corpus.seed = kDefinitionSeed;
    s.dgd = data::BuildDomainGeneralizationData(
        {sim::Domain::kEthUcy, sim::Domain::kLcas, sim::Domain::kSyi}, sim::Domain::kSdd,
        corpus);
    data::SplitDataset sdd = data::BuildDomainDataset(
        sim::Domain::kSdd, kPoolScenes, kPoolSteps, kDefinitionSeed + 1, SeqConfig());
    data::Dataset base;
    for (auto* split : {&sdd.train, &sdd.val, &sdd.test}) {
      for (auto& seq : split->sequences) base.sequences.push_back(std::move(seq));
    }
    s.pool = std::make_unique<ScenePool>(std::move(base), seed + 2);
  }
  s.corpus_s = SecondsSince(t0);
  s.method = MakeMethod(spec, kDefinitionSeed + 3);
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span("core.train", "core");
    s.method->Train(s.dgd, MakeTrainConfig(spec, kDefinitionSeed + 4));
  }
  s.train_s = SecondsSince(t1);
  // Plan warm-up: capture the batch-8 Predict / encode / decode plans the
  // engine replays.
  std::vector<const data::TrajectorySequence*> slots;
  std::vector<data::TrajectorySequence> scenes;
  for (int i = 0; i < kServeBatch; ++i) scenes.push_back(s.pool->Scene(i));
  for (const auto& scene : scenes) slots.push_back(&scene);
  data::Batch batch = data::MakeBatch(slots, SeqConfig());
  Rng rng(seed + 5);
  for (int i = 0; i < 2; ++i) {
    (void)s.method->Predict(batch, &rng, true);
    (void)s.method->PredictDecode(batch, s.method->PredictEncode(batch), &rng, true);
  }
  s.setup_s = SecondsSince(t0);
  return s;
}

struct EvalResult {
  eval::Metrics metrics;
  double scenes_per_s = 0.0;
};

EvalResult Evaluate(const core::Method& method, const data::DomainGeneralizationData& dgd,
                    uint64_t seed) {
  ScopedSpan span("eval.min_of_k", "eval");
  EvalResult e;
  const Clock::time_point t0 = Clock::now();
  e.metrics = eval::EvaluateMinOfK(method, dgd.target.test, SeqConfig(), kEvalSamples,
                                   kEvalBatch, seed);
  e.scenes_per_s = static_cast<double>(dgd.target.test.size()) / SecondsSince(t0);
  return e;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& s : Specs()) n.push_back(s.name);
    return n;
  }();
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  const WorkloadSpec* spec_ptr = nullptr;
  for (const auto& s : Specs()) {
    if (s.name == options.workload) spec_ptr = &s;
  }
  ADAPTRAJ_CHECK_MSG(spec_ptr != nullptr, "unknown workload " << options.workload);
  const WorkloadSpec& spec = *spec_ptr;
  const uint64_t seed = options.seed;
  const double budget = options.seconds;
  RunResult result;
  result.report.push_back(HostReport());

  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>();
    SetActiveTracer(tracer.get());
  }

  // --- Set-up. The first one's corpus and model are used; the others run
  // between serving rounds (below), so setup_s and train_samples_per_s sample
  // the whole run rather than its first seconds. ---------------------------
  std::vector<double> setup_s, corpus_s, setup_train_s;
  SetupResult setup = SetupOnce(spec, seed);
  auto record_setup = [&](const SetupResult& s) {
    setup_s.push_back(s.setup_s);
    corpus_s.push_back(s.corpus_s);
    setup_train_s.push_back(s.train_s);
  };
  record_setup(setup);
  const core::TrainConfig train_config = MakeTrainConfig(spec, kDefinitionSeed + 4);
  const TrainWork work = CountTrainWork(setup.dgd, train_config);

  // --- Untrained reference for the "training helps" check. ----------------
  const EvalResult untrained =
      Evaluate(*MakeMethod(spec, kDefinitionSeed + 3), setup.dgd, seed + 500);

  const Clock::time_point measure_start = Clock::now();
  std::vector<double> eval_rates;
  // The set-up model's evaluation fixes the reference ADE/FDE that every
  // later evaluation in the run must reproduce bit for bit.
  const EvalResult reference = Evaluate(*setup.method, setup.dgd, seed + 500);
  ++result.attempted;
  eval_rates.push_back(reference.scenes_per_s);
  const eval::Metrics target = reference.metrics;
  core::AdapTrajMethod& method = *setup.method;
  const float loss = SourceLoss(&method, setup.dgd, seed + 77);
  result.Check(std::isfinite(loss) && ParametersFinite(method),
               "train: non-finite loss or parameters after training");
  result.Check(target.ade < untrained.metrics.ade,
               Fmt("train: trained target ADE %.4f is not below the untrained %.4f",
                   target.ade, untrained.metrics.ade));
  result.report.push_back(
      Fmt("phase train: rows_per_training=%.0f", static_cast<double>(work.rows)) +
      Fmt(" target_ade=%.4f target_fde=%.4f untrained_ade=%.4f", target.ade, target.fde,
          untrained.metrics.ade) +
      Fmt(" source_loss=%.4f", loss));

  // --- Serving on one long-lived engine. ------------------------------------
  // The run is kRounds rounds; each has one offline pass, one sub-phase of
  // each fixed rate, one evaluation and kProbesPerRound max_rate probes, so
  // every metric samples the whole run rather than one stretch of it and a
  // noisy few seconds on the host move a few samples of each. A rate's p99
  // is the lower quartile of the p99s of consecutive >= 1000-request windows
  // over all its sub-phases: the shared host's interference only adds
  // latency and comes in episodes of seconds, while a slower tail in the
  // program raises every window, the quietest ones too.
  const double serve_budget = std::max(1.0, 0.92 * budget - SecondsSince(measure_start));
  const double probe_s = kProbeShare * serve_budget / (kRounds * kProbesPerRound);

  LayerContext ctx;
  std::vector<double> offline_rates, untraced_rates, traced_rates;
  double first_offline = 0.0;
  bool peak_reset = true;  // the kernel resets the peak RSS on request
  int64_t max_rate_probes = 0;
  double max_rate = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> latencies[3];
  {
    ServingRun run(spec, options, &method, setup.pool.get(), &result);
    for (int round = 0; round < kRounds; ++round) {
      if (options.trace) {
        // Offline passes alternate untraced and traced: the difference of
        // their medians is the tracer's cost.
        SetActiveTracer(round % 2 == 0 ? nullptr : tracer.get());
        const double rate = run.OfflinePass();
        (round % 2 == 0 ? untraced_rates : traced_rates).push_back(rate);
        SetActiveTracer(tracer.get());
        if (round == 0) first_offline = rate;
      } else {
        offline_rates.push_back(run.OfflinePass());
        if (round == 0) first_offline = offline_rates.front();
      }
      for (int k = 0; k < 3; ++k) {
        const double phase_s = kFixedShare * kRateShare[k] * serve_budget / kRounds;
        const PhaseStats ps =
            run.OpenLoop(std::string(kRateNames[k]) + "." + std::to_string(round),
                         spec.rates[k], phase_s, seed * 131 + 100 + 3 * round + k);
        latencies[k].insert(latencies[k].end(), ps.r.latency_ms.begin(),
                            ps.r.latency_ms.end());
        if (k == 1 && round == 0) ctx.replay_ids = run.last_ids();
      }
      const EvalResult e = Evaluate(method, setup.dgd, seed + 500);
      ++result.attempted;
      eval_rates.push_back(e.scenes_per_s);
      result.Check(e.metrics.ade == target.ade && e.metrics.fde == target.fde,
                   "eval: repeated best-of-20 evaluation changed target ADE/FDE");
      if (round + 1 < kSetupRepeats) {
        const SetupResult again = SetupOnce(spec, seed);
        result.Check(SameParameters(method, *again.method),
                     "train: repeated training from one seed changed the model");
        record_setup(again);
      }
      // Peak memory leaves out the max_rate probes: how large a backlog an
      // overloaded probe builds depends on the host as much as on the
      // program. The peak is read before each round's probes and reset after
      // them.
      peak_rss_mb = std::max(peak_rss_mb, PeakRssMiB());
      // The staircase starts at 80% of the first offline pass's throughput,
      // near the limit, so it settles within a few probes.
      for (int p = 0; p < kProbesPerRound; ++p) {
        run.MaxRateProbe(0.8 * first_offline, probe_s);
      }
      peak_reset = peak_reset && ResetPeakRss();
    }
    max_rate = run.MaxRate(&max_rate_probes);
    if (!peak_reset) peak_rss_mb = PeakRssMiB();
    result.report.push_back(Fmt("peak RSS: %.1f MiB outside the max_rate probes", peak_rss_mb) +
                            (peak_reset ? "" : " (no peak reset: probes included)"));
    ctx.engine_stats = run.engine().stats();
    ctx.replica_slots = run.engine().num_replica_slots();
    ctx.late_ms = run.late_ms();
    ctx.submit_us = run.submit_us();
    ctx.untraced_offline_per_s = Median(untraced_rates);
    ctx.traced_offline_per_s = Median(traced_rates);
    ctx.overhead_pairs = static_cast<int>(traced_rates.size());
  }

  std::vector<double> train_rates;
  for (double t : setup_train_s) train_rates.push_back(static_cast<double>(work.rows) / t);
  result.report.push_back(Fmt("set-ups: %.0f, median %.3f s, median training %.3f s",
                              static_cast<double>(setup_s.size()), Median(setup_s),
                              Median(setup_train_s)));
  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size()));
    result.Add("peak_rss_mb", peak_rss_mb, "MiB", 1);
    const double ok_frac =
        result.attempted > 0
            ? static_cast<double>(result.attempted - result.failed) / result.attempted
            : 0.0;
    result.Add("ok_frac", ok_frac, "ratio", result.attempted);
    result.Add("train_samples_per_s", UpperQuartile(train_rates), "1/s",
               static_cast<int64_t>(train_rates.size()));
    result.Add("eval_scenes_per_s", UpperQuartile(eval_rates), "1/s",
               static_cast<int64_t>(eval_rates.size()));
    result.Add("target_ade", target.ade, "m", static_cast<int64_t>(setup.dgd.target.test.size()));
    result.Add("target_fde", target.fde, "m", static_cast<int64_t>(setup.dgd.target.test.size()));
    for (int k = 0; k < 3; ++k) {
      result.Add(std::string("lat_p50_ms.") + kRateNames[k], Median(latencies[k]), "ms",
                 static_cast<int64_t>(latencies[k].size()));
    }
    for (int k = 0; k < 3; ++k) {
      const std::vector<double> p99s = WindowTailQuantiles(latencies[k], 0.99, kRunWindows);
      result.Check(!p99s.empty(), std::string("rate ") + kRateNames[k] +
                                      ": fewer than 10 samples beyond p99");
      result.Add(std::string("lat_p99_ms.") + kRateNames[k], LowerQuartile(p99s), "ms",
                 static_cast<int64_t>(latencies[k].size()));
      std::vector<double> sorted = p99s;
      std::sort(sorted.begin(), sorted.end());
      result.report.push_back(
          std::string("lat_p99_ms.") + kRateNames[k] + ": lower quartile of " +
          std::to_string(p99s.size()) +
          " window p99s (>= 1000 requests, >= 10 beyond p99, each) over " +
          std::to_string(latencies[k].size()) + " requests" +
          Fmt("; window p99s min %.3f median %.3f", sorted.front(), Median(sorted)) +
          Fmt(" max %.3f ms", sorted.back()));
    }
    result.Add("max_rate_per_s", max_rate, "1/s", max_rate_probes);
    result.Add("offline_scenes_per_s", UpperQuartile(offline_rates), "1/s",
               static_cast<int64_t>(offline_rates.size()));
  } else {
    ctx.options = &options;
    ctx.method = &method;
    ctx.dgd = &setup.dgd;
    ctx.pool = setup.pool.get();
    ctx.train_wall_s = Median(setup_train_s);
    ctx.train_epochs = train_config.epochs;
    ctx.micro_batches = work.micro_batches;
    ctx.corpus_s = Median(corpus_s);
    ctx.setup_repeats = static_cast<int>(setup_s.size());
    MeasureLayers(ctx, &result);
    SetActiveTracer(nullptr);
    const std::string stem =
        options.out_dir + "/" + options.workload + "-seed" + std::to_string(seed);
    const std::vector<Span> spans = tracer->spans();
    result.Check(tracer->WriteChromeTrace(stem + ".trace.json"),
                 "trace: cannot write " + stem + ".trace.json");
    FILE* f = std::fopen((stem + ".layers.tsv").c_str(), "w");
    result.Check(f != nullptr, "trace: cannot write " + stem + ".layers.tsv");
    result.report.push_back("trace: " + stem + ".trace.json (" + std::to_string(spans.size()) +
                            " spans, " + std::to_string(tracer->dropped()) + " dropped)");
    result.report.push_back(
        "layer table (name, category, count, total_ms, self_ms, p50_us, p99_us):");
    for (const LayerRow& row : LayerTable(spans)) {
      char line[512];
      std::snprintf(line, sizeof(line), "%s\t%s\t%lld\t%.3f\t%.3f\t%.3f\t%.3f",
                    row.name.c_str(), row.category.c_str(),
                    static_cast<long long>(row.count), row.total_ms, row.self_ms,
                    row.p50_us, row.p99_us);
      result.report.push_back(std::string("  ") + line);
      if (f != nullptr) std::fprintf(f, "%s\n", line);
    }
    if (f != nullptr) std::fclose(f);
  }
  return result;
}

}  // namespace perfbench
