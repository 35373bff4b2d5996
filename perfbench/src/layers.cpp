// Per-layer metrics of the traced run. Each one is timed from outside, around
// calls into one layer's public functions, or read from the library's
// public stats; spans go to the active tracer.
#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "core/parallel_trainer.h"
#include "serve/encode_cache.h"
#include "tensor/ops.h"
#include "stats.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using adaptraj::Rng;
using adaptraj::Tensor;
namespace core = adaptraj::core;
namespace data = adaptraj::data;
namespace kernels = adaptraj::kernels;
namespace models = adaptraj::models;
namespace serve = adaptraj::serve;

namespace {

// Rows replayed through the serving layers (arrival order, batches of 8).
constexpr size_t kReplayRows = 2000;
constexpr int kBatch = 8;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Median microseconds of `fn` over at least `min_iters` calls and about
// `seconds` of wall time, after two untimed warm-up calls.
template <typename Fn>
double MedianUs(const char* span_name, const char* category, Fn fn, int min_iters = 20,
                double seconds = 0.15) {
  fn();
  fn();
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_iters ||
         (Us(start, Clock::now()) < seconds * 1e6 && samples.size() < 100000)) {
    ScopedSpan span(span_name, category);
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(Us(t0, Clock::now()));
  }
  return Median(samples);
}

data::Batch BatchOf(const std::vector<data::TrajectorySequence>& scenes) {
  std::vector<const data::TrajectorySequence*> slots;
  for (const auto& s : scenes) slots.push_back(&s);
  return data::MakeBatch(slots, data::SequenceConfig());
}

struct ReplayTotals {
  int64_t batches = 0;
  double make_batch_us = 0.0;
  double key_us = 0.0;
  double lookup_us = 0.0;
  double encode_us = 0.0;
  double insert_us = 0.0;
  double decode_us = 0.0;
  int64_t keys = 0;
  int64_t lookups = 0;
  int64_t inserts = 0;
};

// The engine's per-batch serving path (MakeBatch -> SceneEncodeKey /
// EncodeCache -> PredictEncode -> PredictDecode), replayed on this thread
// over the workload's own scenes with a fresh cache.
ReplayTotals ReplayServingPath(const LayerContext& ctx, const std::vector<int64_t>& ids) {
  const core::Method& method = *ctx.method;
  const int64_t width = method.predict_encode_width();
  const bool with_neighbors = method.encode_reads_neighbors();
  serve::EncodeCacheOptions cache_options;
  cache_options.identity = method.name() + "/" + std::to_string(width);
  serve::EncodeCache cache(cache_options);
  ReplayTotals t;
  for (size_t first = 0; first + kBatch <= ids.size(); first += kBatch) {
    const int64_t batch_id = static_cast<int64_t>(first / kBatch);
    ScopedSpan batch_span("replay.batch", "serve", batch_id);
    std::vector<data::TrajectorySequence> scenes;
    for (size_t r = 0; r < static_cast<size_t>(kBatch); ++r) {
      scenes.push_back(ctx.pool->Scene(ids[first + r]));
    }
    Clock::time_point t0 = Clock::now();
    data::Batch batch;
    {
      ScopedSpan span("replay.make_batch", "data", batch_id);
      batch = BatchOf(scenes);
    }
    t.make_batch_us += Us(t0, Clock::now());

    std::vector<std::string> keys(kBatch);
    t0 = Clock::now();
    {
      ScopedSpan span("replay.key", "serve", batch_id);
      for (int r = 0; r < kBatch; ++r) {
        keys[r] = serve::SceneEncodeKey(cache_options.identity, batch, r, with_neighbors);
      }
    }
    t.key_us += Us(t0, Clock::now());
    t.keys += kBatch;

    Tensor enc_rows = Tensor::Zeros({kBatch, width});
    std::vector<int> miss_rows;
    std::vector<std::pair<int, int>> aliases;
    t0 = Clock::now();
    {
      ScopedSpan span("replay.lookup", "serve", batch_id);
      for (int r = 0; r < kBatch; ++r) {
        int first_same = -1;
        for (int q = 0; q < r; ++q) {
          if (keys[q] == keys[r]) {
            first_same = q;
            break;
          }
        }
        if (first_same >= 0) {
          aliases.emplace_back(r, first_same);
          continue;
        }
        ++t.lookups;
        if (!cache.Lookup(keys[r], enc_rows.data() + r * width, width)) miss_rows.push_back(r);
      }
    }
    t.lookup_us += Us(t0, Clock::now());

    t0 = Clock::now();
    if (!miss_rows.empty()) {
      ScopedSpan span("replay.encode", "core", batch_id);
      if (static_cast<int>(miss_rows.size()) == kBatch) {
        enc_rows = method.PredictEncode(batch);
      } else {
        std::vector<const data::TrajectorySequence*> slots;
        for (int r : miss_rows) slots.push_back(&scenes[static_cast<size_t>(r)]);
        data::Batch sub = data::MakeBatch(slots, data::SequenceConfig(), batch.max_neighbors);
        Tensor packed = method.PredictEncode(sub);
        for (size_t i = 0; i < miss_rows.size(); ++i) {
          std::memcpy(enc_rows.data() + miss_rows[i] * width,
                      packed.data() + static_cast<int64_t>(i) * width, sizeof(float) * width);
        }
      }
    }
    t.encode_us += Us(t0, Clock::now());

    t0 = Clock::now();
    {
      ScopedSpan span("replay.insert", "serve", batch_id);
      for (int r : miss_rows) {
        cache.Insert(keys[static_cast<size_t>(r)], enc_rows.data() + r * width, width);
        ++t.inserts;
      }
    }
    t.insert_us += Us(t0, Clock::now());
    for (const auto& a : aliases) {
      std::memcpy(enc_rows.data() + a.first * width, enc_rows.data() + a.second * width,
                  sizeof(float) * width);
    }

    t0 = Clock::now();
    {
      ScopedSpan span("replay.decode", "core", batch_id);
      Rng rng(core::TaskSeed(ctx.options->seed, static_cast<uint64_t>(batch_id)));
      (void)method.PredictDecode(batch, enc_rows, &rng, true);
    }
    t.decode_us += Us(t0, Clock::now());
    ++t.batches;
  }
  return t;
}

// Share of requests whose SceneEncodeKey (at the full neighbor-slot width)
// was offered before, over `ids` in arrival order.
double KeyRepeatShare(const LayerContext& ctx, const std::vector<int64_t>& ids) {
  const core::Method& method = *ctx.method;
  const data::SequenceConfig config;
  std::unordered_set<std::string> seen;
  int64_t repeats = 0;
  for (int64_t id : ids) {
    const data::TrajectorySequence scene = ctx.pool->Scene(id);
    const data::Batch batch = data::MakeBatch({&scene}, config, config.max_neighbors);
    if (!seen.insert(serve::SceneEncodeKey("", batch, 0, method.encode_reads_neighbors()))
             .second) {
      ++repeats;
    }
  }
  return ids.empty() ? 0.0 : static_cast<double>(repeats) / static_cast<double>(ids.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void MeasureLayers(const LayerContext& ctx, RunResult* result) {
  const serve::InferenceEngineStats& st = ctx.engine_stats;
  const data::SequenceConfig config;

  // --- serve engine (public stats of the run's engine) ----------------------
  const Quantile submit50 = TailQuantile(ctx.submit_us, 0.50);
  const Quantile submit99 = TailQuantile(ctx.submit_us, 0.99);
  result->Add("serve.submit_us.p50", submit50.value, "us", submit50.samples);
  result->Add("serve.submit_us.p99", submit99.value, "us", submit99.samples);
  result->Add("serve.queue_wait_ms.p50", st.queue_wait.Quantile(0.50) * 1e3, "ms",
              st.queue_wait.count());
  result->Add("serve.queue_wait_ms.p99", st.queue_wait.Quantile(0.99) * 1e3, "ms",
              st.queue_wait.count());
  result->Add("serve.batch_exec_ms.p50", st.batch_exec.Quantile(0.50) * 1e3, "ms",
              st.batch_exec.count());
  result->Add("serve.batch_exec_ms.p99", st.batch_exec.Quantile(0.99) * 1e3, "ms",
              st.batch_exec.count());
  const double computed_rows = static_cast<double>(st.batches) * kBatch;
  result->Add("serve.rows_per_batch",
              Ratio(computed_rows - static_cast<double>(st.padded_rows),
                    static_cast<double>(st.batches)),
              "count", st.batches);
  result->Add("serve.pad_frac", Ratio(static_cast<double>(st.padded_rows), computed_rows),
              "ratio", st.batches);
  result->Add("serve.deadline_flush_frac",
              Ratio(static_cast<double>(st.deadline_flushes), static_cast<double>(st.batches)),
              "ratio", st.batches);
  result->Add("serve.peak_queue_depth", static_cast<double>(st.peak_queue_depth), "count", 1);
  result->Add("serve.replica_slots", ctx.replica_slots, "count", 1);

  // --- encoder cache ---------------------------------------------------------
  result->Add("cache.hit_ratio",
              Ratio(static_cast<double>(st.encode_cache.hits),
                    static_cast<double>(st.encode_cache.lookups)),
              "ratio", st.encode_cache.lookups);
  const std::vector<int64_t> replay_ids(
      ctx.replay_ids.begin(),
      ctx.replay_ids.begin() + std::min(kReplayRows, ctx.replay_ids.size()));
  result->Add("cache.repeat_share", KeyRepeatShare(ctx, replay_ids), "ratio",
              static_cast<int64_t>(replay_ids.size()));
  result->Add("cache.evictions", static_cast<double>(st.encode_cache.evictions), "count", 1);
  result->Add("cache.bytes", static_cast<double>(st.encode_cache.bytes), "B", 1);

  // --- replayed serving path; its parts against the engine's batch exec ----
  const adaptraj::internal::BufferPoolStats pool_before =
      adaptraj::internal::GetBufferPoolStats();
  const ReplayTotals rp = ReplayServingPath(ctx, replay_ids);
  const double per_batch = 1.0 / std::max<int64_t>(1, rp.batches);
  result->Add("cache.key_us", Ratio(rp.key_us, static_cast<double>(rp.keys)), "us", rp.keys);
  result->Add("cache.lookup_us", Ratio(rp.lookup_us, static_cast<double>(rp.lookups)), "us",
              rp.lookups);
  result->Add("cache.insert_us", Ratio(rp.insert_us, static_cast<double>(rp.inserts)), "us",
              rp.inserts);
  const double replay_batch_us = (rp.make_batch_us + rp.key_us + rp.lookup_us +
                                  rp.encode_us + rp.insert_us + rp.decode_us) *
                                 per_batch;
  const double exec_mean_us = HistogramMean(st.batch_exec) * 1e6;
  result->Add("serve.exec_unattributed_frac", 1.0 - Ratio(replay_batch_us, exec_mean_us),
              "ratio", rp.batches);
  result->report.push_back(
      "replay: batches=" + std::to_string(rp.batches) +
      " per-batch us: make_batch=" + std::to_string(rp.make_batch_us * per_batch) +
      " keys=" + std::to_string(rp.key_us * per_batch) +
      " lookups=" + std::to_string(rp.lookup_us * per_batch) +
      " encode=" + std::to_string(rp.encode_us * per_batch) +
      " inserts=" + std::to_string(rp.insert_us * per_batch) +
      " decode=" + std::to_string(rp.decode_us * per_batch) +
      " sum=" + std::to_string(replay_batch_us) +
      " engine_exec_mean=" + std::to_string(exec_mean_us));

  // --- core method at batch 8 (planned) and the eval batch of 64 -----------
  core::AdapTrajMethod& method = *ctx.method;
  std::vector<data::TrajectorySequence> scenes8;
  for (int r = 0; r < kBatch; ++r) scenes8.push_back(ctx.pool->Scene(replay_ids[r]));
  const data::Batch b8 = BatchOf(scenes8);
  Rng rng(ctx.options->seed + 3);
  result->Add("method.predict_ms",
              1e-3 * MedianUs("method.predict", "core",
                              [&] { (void)method.Predict(b8, &rng, true); }),
              "ms", 1);
  Tensor enc8 = method.PredictEncode(b8);
  result->Add("method.encode_ms",
              1e-3 * MedianUs("method.encode", "core",
                              [&] { (void)method.PredictEncode(b8); }),
              "ms", 1);
  result->Add("method.decode_ms",
              1e-3 * MedianUs("method.decode", "core",
                              [&] { (void)method.PredictDecode(b8, enc8, &rng, true); }),
              "ms", 1);
  std::vector<const data::TrajectorySequence*> slots64;
  const data::Dataset& test = ctx.dgd->target.test;
  for (size_t i = 0; i < 64; ++i) slots64.push_back(&test.sequences[i % test.size()]);
  const data::Batch b64 = data::MakeBatch(slots64, config);
  result->Add("method.eval_predict_ms",
              1e-3 * MedianUs("method.eval_predict", "core",
                              [&] { (void)method.Predict(b64, &rng, true); }),
              "ms", 1);

  // --- models + core modules, eager and no-grad at batch 8 ------------------
  {
    adaptraj::NoGradGuard no_grad;
    core::AdapTrajModel& model = method.model();
    const std::vector<int> unseen(kBatch, -1);
    models::EncodeResult enc = model.backbone().Encode(b8);
    core::AdapTrajFeatures f = model.ExtractFeatures(enc, unseen);
    const Tensor extra = f.Extra();
    result->Add("models.encode_ms",
                1e-3 * MedianUs("models.encode", "models",
                                [&] { (void)model.backbone().Encode(b8); }),
                "ms", 1);
    result->Add("core.extract_ms",
                1e-3 * MedianUs("core.extract", "core",
                                [&] { (void)model.ExtractFeatures(enc, unseen); }),
                "ms", 1);
    auto decode = [&] { (void)model.backbone().Predict(b8, enc, extra, &rng, true); };
    result->Add("models.decode_ms", 1e-3 * MedianUs("models.decode", "models", decode), "ms",
                1);
  }

  // --- tensor plan cache -----------------------------------------------------
  const adaptraj::plan::CacheStats& plan = st.plan;
  result->Add("plan.hit_ratio",
              Ratio(static_cast<double>(plan.hits), static_cast<double>(plan.hits + plan.misses)),
              "ratio", plan.hits + plan.misses);
  result->Add("plan.captures", static_cast<double>(plan.captures), "count", 1);
  result->Add("plan.aborted", static_cast<double>(plan.aborted), "count", 1);
  result->Add("plan.arena_bytes", static_cast<double>(plan.arena_bytes), "B", 1);

  // --- tensor kernels at the LSTM gate shapes (h * W_hh: [B*M, H] x [H, 4H]) -
  const int64_t hidden = models::BackboneConfig().hidden_dim;
  Rng fill(ctx.options->seed + 9);
  auto gemm_us = [&](int64_t m, const char* name) {
    const int64_t n = 4 * hidden;
    const int64_t k = hidden;
    std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n)),
        c(static_cast<size_t>(m * n));
    for (auto& x : a) x = fill.Uniform(-1.0f, 1.0f);
    for (auto& x : b) x = fill.Uniform(-1.0f, 1.0f);
    const double us = MedianUs(name, "kernels", [&] {
      kernels::Gemm(false, false, m, n, k, a.data(), b.data(), c.data(), false);
    });
    return std::make_pair(us, 2.0 * m * n * k / (us * 1e3));
  };
  const int64_t slots = config.max_neighbors;
  const auto serve_gemm = gemm_us(kBatch * slots, "kernels.gemm.serve");
  const auto train_gemm = gemm_us(32 * slots, "kernels.gemm.train");
  result->Add("kernels.gemm_us.serve", serve_gemm.first, "us", 1);
  result->Add("kernels.gemm_gflops.serve", serve_gemm.second, "GFLOP/s", 1);
  result->Add("kernels.gemm_us.train", train_gemm.first, "us", 1);
  result->Add("kernels.gemm_gflops.train", train_gemm.second, "GFLOP/s", 1);
  int64_t params = 0;
  for (const Tensor& p : method.model().Parameters()) params += p.size();
  {
    std::vector<std::vector<float>> grads(4, std::vector<float>(static_cast<size_t>(params), 0.5f));
    std::vector<float> dst(static_cast<size_t>(params)), m(static_cast<size_t>(params)),
        v(static_cast<size_t>(params)), w(static_cast<size_t>(params), 0.1f);
    const float* srcs[4] = {grads[0].data(), grads[1].data(), grads[2].data(), grads[3].data()};
    result->Add("kernels.reduce_us", MedianUs("kernels.reduce", "kernels", [&] {
                  kernels::ReduceGradSum(srcs, 4, 0.25f, dst.data(), params);
                }),
                "us", 1);
    result->Add("kernels.adam_us", MedianUs("kernels.adam", "kernels", [&] {
                  kernels::AdamUpdate(w.data(), dst.data(), m.data(), v.data(), params, 1e-4f,
                                      0.9f, 0.999f, 1e-8f, 0.0f, 0.1f, 0.001f);
                }),
                "us", 1);
  }

  // --- core trainer: one batch-32 micro-batch forward and backward ----------
  std::vector<const data::TrajectorySequence*> slots32;
  const data::Dataset& pooled = ctx.dgd->pooled_train;
  for (size_t i = 0; i < 32; ++i) slots32.push_back(&pooled.sequences[i % pooled.size()]);
  const data::Batch b32 = data::MakeBatch(slots32, config);
  {
    core::AdapTrajModel& model = method.model();
    std::vector<double> fwd, bwd;
    const Clock::time_point start = Clock::now();
    while (fwd.size() < 12 || (Us(start, Clock::now()) < 0.3e6 && fwd.size() < 200)) {
      Rng loss_rng(ctx.options->seed + fwd.size());
      Clock::time_point t0 = Clock::now();
      Tensor total;
      {
        ScopedSpan span("train.fwd", "core");
        models::EncodeResult enc = model.backbone().Encode(b32);
        core::AdapTrajFeatures f = model.ExtractFeatures(enc, b32.domain_labels);
        Tensor base = model.backbone().Loss(b32, enc, f.Extra(), &loss_rng);
        Tensor ours = model.OursLoss(b32, f, b32.domain_labels);
        total = adaptraj::ops::Add(base,
                                   adaptraj::ops::MulScalar(ours, method.schedule().delta));
      }
      Clock::time_point t1 = Clock::now();
      {
        ScopedSpan span("train.bwd", "core");
        total.Backward();
      }
      Clock::time_point t2 = Clock::now();
      model.ZeroGrad();
      fwd.push_back(Us(t0, t1));
      bwd.push_back(Us(t1, t2));
    }
    const double fwd_ms = Median(fwd) * 1e-3;
    const double bwd_ms = Median(bwd) * 1e-3;
    result->Add("train.fwd_ms", fwd_ms, "ms", static_cast<int64_t>(fwd.size()));
    result->Add("train.bwd_ms", bwd_ms, "ms", static_cast<int64_t>(bwd.size()));
    result->Add("train.epoch_ms", 1e3 * ctx.train_wall_s / std::max(1, ctx.train_epochs), "ms",
                1);
    const double workers = adaptraj::parallel::NumTrainWorkers();
    result->Add("train.parallel_eff",
                Ratio(static_cast<double>(ctx.micro_batches) * (fwd_ms + bwd_ms) * 1e-3,
                      workers * ctx.train_wall_s),
                "ratio", 1);
  }
  const adaptraj::internal::BufferPoolStats pool_after = adaptraj::internal::GetBufferPoolStats();
  result->Add("pool.reuse_ratio",
              Ratio(static_cast<double>(pool_after.reuses - pool_before.reuses),
                    static_cast<double>(pool_after.acquires - pool_before.acquires)),
              "ratio", pool_after.acquires - pool_before.acquires);

  // --- data / sim ---------------------------------------------------------------
  std::vector<const data::TrajectorySequence*> slots8;
  for (const auto& s : scenes8) slots8.push_back(&s);
  result->Add("data.make_batch_us.b8",
              MedianUs("data.make_batch.b8", "data",
                       [&] { (void)data::MakeBatch(slots8, config); }),
              "us", 1);
  result->Add("data.make_batch_us.b32",
              MedianUs("data.make_batch.b32", "data",
                       [&] { (void)data::MakeBatch(slots32, config); }),
              "us", 1);
  result->Add("sim.corpus_s", ctx.corpus_s, "s", ctx.setup_repeats);

  // --- harness health -------------------------------------------------------
  const Quantile late99 = TailQuantile(ctx.late_ms, 0.99);
  result->Add("gen.late_ms.p99", late99.value, "ms", late99.samples);
  result->Add("gen.late_ms.max",
              ctx.late_ms.empty() ? 0.0 : *std::max_element(ctx.late_ms.begin(), ctx.late_ms.end()),
              "ms", static_cast<int64_t>(ctx.late_ms.size()));
  result->Add("trace.overhead_frac",
              Ratio(ctx.untraced_offline_per_s, ctx.traced_offline_per_s) - 1.0, "ratio",
              ctx.overhead_pairs);
}

}  // namespace perfbench
