// Accuracy cost of the int8 quantized serving path (docs/PERFORMANCE.md):
// the same trained checkpoint is frozen into a fp32 planned session and an
// int8-quantized one (InferenceSessionConfig::quantize), and both answer the
// held-out test windows of the paper's synthetic suites.
//
//   * Forecast (Table II/IV protocol): three long-term datasets — ETTm1
//     (dual-period + trend), Weather (smooth AR), Exchange (pure random
//     walk, the regime with no seasonal structure to hide behind) — scored
//     by test MSE in scaled units. Gate: int8 MSE within 2% relative of
//     fp32.
//   * Classification (Table XI protocol): two UEA-like subsets, scored by
//     test accuracy over the session's logits. Gate: int8 within 0.5
//     accuracy points of fp32.
//
// Also reports each quantized plan's adoption stats (int8 steps vs fp32
// fallbacks), so a silent calibration-gate regression — every step falling
// back, deltas trivially zero — is visible in the same table. Exits nonzero
// if any gate fails, any session refuses to build, or a quantized session
// adopts no int8 steps at all.
//
// Flags: --threads N (bench_util), MSD_BENCH_SCALE scales training epochs.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/window_dataset.h"
#include "datagen/classification_gen.h"
#include "datagen/long_term.h"
#include "datagen/series_builder.h"
#include "nn/serialize.h"
#include "serve/session.h"
#include "tasks/task_model.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

using bench::BenchTrainer;
using bench::Fmt;
using bench::MixerConfig;
using bench::TablePrinter;

constexpr double kForecastGatePct = 2.0;   // relative MSE growth
constexpr double kClassifyGatePts = 0.5;   // accuracy points lost

// Freezes `checkpoint` into a fp32 session and an int8 one over the same
// weights. Returns false (with a message) when either refuses to build or
// the quantized plans adopted no int8 steps.
bool MakeSessionPair(const MsdMixerConfig& mc, const std::string& checkpoint,
                     int64_t max_batch,
                     std::unique_ptr<serve::InferenceSession>* fp32,
                     std::unique_ptr<serve::InferenceSession>* int8) {
  serve::InferenceSessionConfig sc;
  sc.model = mc;
  sc.max_batch = max_batch;
  auto fp32_or = serve::InferenceSession::Create(sc, checkpoint);
  serve::InferenceSessionConfig qsc = sc;
  qsc.quantize = true;
  auto int8_or = serve::InferenceSession::Create(qsc, checkpoint);
  if (!fp32_or.ok() || !int8_or.ok()) {
    std::fprintf(stderr, "session create failed: %s\n",
                 (fp32_or.ok() ? int8_or.status() : fp32_or.status())
                     .ToString()
                     .c_str());
    return false;
  }
  *fp32 = std::move(fp32_or).value();
  *int8 = std::move(int8_or).value();
  if ((*int8)->plan().stats().num_quantized == 0) {
    std::fprintf(stderr, "quantized session adopted no int8 steps\n");
    return false;
  }
  return true;
}

std::string AdoptionCell(const serve::InferenceSession& session) {
  const serve::PlanStats& stats = session.plan().stats();
  return std::to_string(stats.num_quantized) + "/" +
         std::to_string(stats.num_quantized + stats.num_quant_fallbacks);
}

// Mean squared error of a session's batched predictions over a forecast
// window dataset (scaled units; both sessions see identical batches).
double SessionMse(serve::InferenceSession* session, const Dataset& data,
                  int64_t batch_size) {
  Rng rng(1);
  DataLoader loader(&data, batch_size, /*shuffle=*/false, rng);
  double sse = 0.0;
  int64_t count = 0;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    Batch batch = loader.GetBatch(b);
    StatusOr<Tensor> pred = session->PredictBatch(batch.input);
    MSD_CHECK(pred.ok()) << pred.status().ToString();
    const int64_t n = pred.value().numel();
    sse += MseMetric(pred.value(), batch.target) * static_cast<double>(n);
    count += n;
  }
  return sse / static_cast<double>(count);
}

// Test accuracy of a session's logits over a classification sample set.
double SessionAccuracy(serve::InferenceSession* session,
                       const std::vector<Tensor>& xs,
                       const std::vector<int64_t>& ys, int64_t batch_size) {
  int64_t correct = 0;
  for (size_t start = 0; start < xs.size();
       start += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(xs.size(), start + static_cast<size_t>(batch_size));
    std::vector<Tensor> rows(xs.begin() + static_cast<int64_t>(start),
                             xs.begin() + static_cast<int64_t>(end));
    StatusOr<Tensor> logits = session->PredictBatch(Stack(rows));
    MSD_CHECK(logits.ok()) << logits.status().ToString();
    const int64_t classes = logits.value().dim(1);
    for (size_t i = start; i < end; ++i) {
      const float* row = logits.value().data() +
                         static_cast<int64_t>(i - start) * classes;
      int64_t best = 0;
      for (int64_t c = 1; c < classes; ++c) {
        if (row[c] > row[best]) best = c;
      }
      if (best == ys[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

}  // namespace
}  // namespace msd

int main(int argc, char** argv) {
  using namespace msd;
  bench::InitThreads(argc, argv);
  const std::string ckpt = "bench_quant_accuracy.msdckpt";
  const int64_t batch = 16;
  bool ok = true;

  // ---- Forecast: Table II/IV protocol over three long-term suites ----------
  std::printf("Int8 vs fp32 — forecast test MSE (lookback 96, horizon 24, "
              "scaled units; gate: delta <= %.1f%%)\n",
              kForecastGatePct);
  TablePrinter forecast_table(
      {"dataset", "fp32 MSE", "int8 MSE", "delta", "int8 steps"},
      {10, 10, 10, 8, 10});
  forecast_table.PrintHeader();
  for (LongTermDataset ds : {LongTermDataset::kEttM1, LongTermDataset::kWeather,
                             LongTermDataset::kExchange}) {
    const Tensor series = GenerateSeries(LongTermConfig(ds, /*seed=*/1));
    SeriesSplits splits = SplitSeries(series, SplitSpec{});
    StandardScaler scaler;
    scaler.Fit(splits.train);
    const Tensor train = scaler.Transform(splits.train);
    const Tensor test = scaler.Transform(splits.test);
    const int64_t period = LongTermDominantPeriod(ds);

    Rng rng(100);
    MsdMixerConfig mc =
        MixerConfig(TaskType::kForecast, series.dim(0), 96, 24, period);
    MsdMixer mixer(mc, rng);
    ResidualLossOptions ro;
    ro.max_lag = 24;
    MsdMixerTaskModel model(&mixer, /*lambda=*/0.5f, ro);
    ForecastWindowDataset train_data(train, 96, 24, /*stride=*/4);
    Train(model, train_data, BenchTrainer(/*epochs=*/4, /*max_batches=*/30,
                                          4e-3f),
          ForecastMseTaskLoss);
    Status saved = SaveCheckpoint(mixer, ckpt);
    MSD_CHECK(saved.ok()) << saved.ToString();

    std::unique_ptr<serve::InferenceSession> fp32;
    std::unique_ptr<serve::InferenceSession> int8;
    if (!MakeSessionPair(mc, ckpt, batch, &fp32, &int8)) {
      ok = false;
      continue;
    }
    ForecastWindowDataset test_data(test, 96, 24, /*stride=*/8);
    const double fp32_mse = SessionMse(fp32.get(), test_data, batch);
    const double int8_mse = SessionMse(int8.get(), test_data, batch);
    const double delta_pct = (int8_mse - fp32_mse) / fp32_mse * 100.0;
    if (delta_pct > kForecastGatePct) ok = false;
    forecast_table.PrintRow({LongTermDatasetName(ds), Fmt(fp32_mse, 4),
                             Fmt(int8_mse, 4), Fmt(delta_pct, 2) + "%",
                             AdoptionCell(*int8)});
  }
  forecast_table.PrintRule();

  // ---- Classification: Table XI protocol over two UEA-like subsets ---------
  std::printf("\nInt8 vs fp32 — classification test accuracy (gate: drop <= "
              "%.1f pts)\n",
              kClassifyGatePts);
  TablePrinter classify_table(
      {"subset", "fp32 acc", "int8 acc", "delta", "int8 steps"},
      {10, 10, 10, 8, 10});
  classify_table.PrintHeader();
  for (const ClassificationSubset& subset : DefaultClassificationSubsets()) {
    if (subset.name != "AWR" && subset.name != "CR") continue;
    const ClassificationData data =
        GenerateClassificationData(subset, /*seed=*/9);
    Rng rng(1);
    MsdMixerConfig mc =
        MixerConfig(TaskType::kClassification, subset.channels, subset.length,
                    1, subset.length / 4, subset.classes);
    mc.model_dim = 8;
    mc.drop_path = 0.1f;
    mc.head_dropout = 0.7f;
    MsdMixer mixer(mc, rng);
    ResidualLossOptions ro;
    ro.max_lag = 16;
    MsdMixerTaskModel model(&mixer, /*lambda=*/0.05f, ro);
    TrainerConfig trainer = BenchTrainer(/*epochs=*/12, /*max_batches=*/0,
                                         2e-3f);
    trainer.batch_size = 16;
    trainer.weight_decay = 1e-3f;
    VectorDataset train_data(
        MakeClassificationSamples(data.train_x, data.train_y));
    Train(model, train_data, trainer, ClassificationTaskLoss);
    Status saved = SaveCheckpoint(mixer, ckpt);
    MSD_CHECK(saved.ok()) << saved.ToString();

    std::unique_ptr<serve::InferenceSession> fp32;
    std::unique_ptr<serve::InferenceSession> int8;
    if (!MakeSessionPair(mc, ckpt, batch, &fp32, &int8)) {
      ok = false;
      continue;
    }
    const double fp32_acc =
        SessionAccuracy(fp32.get(), data.test_x, data.test_y, batch);
    const double int8_acc =
        SessionAccuracy(int8.get(), data.test_x, data.test_y, batch);
    const double delta_pts = (fp32_acc - int8_acc) * 100.0;
    if (delta_pts > kClassifyGatePts) ok = false;
    classify_table.PrintRow({subset.name, Fmt(fp32_acc, 3), Fmt(int8_acc, 3),
                             Fmt(delta_pts, 2), AdoptionCell(*int8)});
  }
  classify_table.PrintRule();

  std::remove(ckpt.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_quant_accuracy: a gate FAILED (see above)\n");
    return 1;
  }
  std::printf("\nall accuracy gates passed\n");
  return 0;
}
