// Quickstart: build an MSD-Mixer, train it to forecast a synthetic seasonal
// series, inspect the learned decomposition, and make a forecast.
//
//   $ ./build/examples/quickstart
//
// Walks through the full public API: data generation, windowing + scaling,
// model configuration, the training loop with the Residual Loss, evaluation,
// and the per-layer decomposition the model learns.
#include <cstdint>
#include <cstdio>

#include "core/msd_mixer.h"
#include "core/residual_loss.h"
#include "datagen/series_builder.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tasks/experiments.h"
#include "tensor/tensor_ops.h"

int main() {
  using namespace msd;

  // 1. Data: a 3-channel series with daily (24-step) and weekly (168-step)
  //    cycles, a mild trend, and autocorrelated noise.
  SeriesConfig data_config;
  data_config.name = "quickstart";
  data_config.length = 2000;
  data_config.seed = 42;
  data_config.channel_mix = 0.3;
  for (int c = 0; c < 3; ++c) {
    ChannelSpec channel;
    channel.seasonals = {{24.0, 1.0, 0.5 * c, 2}, {168.0, 0.6, 0.2, 1}};
    channel.trend_slope = 1e-4;
    channel.ar_coeff = 0.6;
    channel.noise_sigma = 0.2;
    data_config.channels.push_back(channel);
  }
  Tensor series = GenerateSeries(data_config);
  std::printf("Generated series: %lld channels x %lld steps\n",
              (long long)series.dim(0), (long long)series.dim(1));

  // 2. Model: 5 decomposition layers with patch sizes matched to the data's
  //    time scales — one day, half a day, a quarter day, 2 steps, 1 step.
  MsdMixerConfig model_config;
  model_config.input_length = 96;  // lookback window L
  model_config.channels = 3;
  model_config.patch_sizes = {24, 12, 6, 2, 1};
  model_config.model_dim = 16;
  model_config.hidden_dim = 32;
  model_config.task = TaskType::kForecast;
  model_config.horizon = 48;
  Rng rng(7);
  MsdMixer mixer(model_config, rng);
  std::printf("MSD-Mixer with %lld parameters, %zu layers\n",
              (long long)mixer.NumParameters(),
              model_config.patch_sizes.size());

  // 3. Train. MsdMixerTaskModel attaches lambda * ResidualLoss(Z_k) so the
  //    decomposition residual is pushed toward white noise (paper Eq. 7).
  MsdMixerTaskModel model(&mixer, /*lambda=*/0.5f);
  ForecastExperimentConfig experiment;
  experiment.lookback = 96;
  experiment.horizon = 48;
  experiment.train_stride = 2;
  experiment.eval_stride = 4;
  experiment.trainer.epochs = 5;
  experiment.trainer.batch_size = 32;
  experiment.trainer.lr = 3e-3f;
  experiment.trainer.max_batches_per_epoch = 30;
  experiment.trainer.verbose = true;
  experiment.trainer.telemetry = TelemetrySink::kRegistry;
  std::printf("Training...\n");
  TrainStats train_stats;
  RegressionScores scores =
      RunForecastExperiment(model, series, experiment, &train_stats);
  std::printf("Test MSE %.3f  MAE %.3f (standardized scale)\n", scores.mse,
              scores.mae);

  // Telemetry summary: what training cost, from the observability subsystem
  // (docs/OBSERVABILITY.md). Counters come from the process-wide registry;
  // per-label timings from the span profiler.
  auto& registry = obs::MetricsRegistry::Global();
  std::printf("\nTelemetry summary:\n");
  std::printf("  model: %lld params (%.1f KiB), ~%lld FLOPs/item forward\n",
              (long long)mixer.NumParameters(),
              (double)mixer.ParameterBytes() / 1024.0,
              (long long)mixer.ApproxForwardFlopsPerItem());
  std::printf("  training: %.2fs wall over %zu epochs, mean |grad| %.3f\n",
              train_stats.total_wall_seconds, train_stats.epoch_losses.size(),
              train_stats.mean_grad_norm());
  std::printf("  tensor: %lld allocs (%.1f MiB), %lld matmuls (%.2f GFLOP)\n",
              (long long)registry.GetCounter("tensor/allocs").value(),
              (double)registry.GetCounter("tensor/alloc_bytes").value() /
                  (1024.0 * 1024.0),
              (long long)registry.GetCounter("tensor/matmul_calls").value(),
              (double)registry.GetCounter("tensor/matmul_flops").value() /
                  1e9);
  std::printf("  autograd: %lld nodes built, %lld backward sweeps\n",
              (long long)registry.GetCounter("autograd/nodes_created").value(),
              (long long)registry.GetCounter("autograd/backward_calls")
                  .value());
  std::printf("  hottest spans (self time):\n");
  for (const auto& [label, s] : obs::Profiler::Global().Aggregates()) {
    std::printf("    %-22s count %6lld  self %8.1f ms  total %8.1f ms\n",
                label.c_str(), (long long)s.count,
                (double)s.self_ns / 1e6, (double)s.total_ns / 1e6);
  }

  // 4. Inspect the decomposition of one window: each layer's component plus
  //    the residual. The components sum back to the input exactly.
  SeriesSplits splits = SplitSeries(series, experiment.split);
  StandardScaler scaler;
  scaler.Fit(splits.train);
  Tensor window =
      Slice(scaler.Transform(splits.test), 1, 0, 96).Reshape({1, 3, 96});
  NoGradGuard guard;
  mixer.SetTraining(false);
  MsdMixerOutput out = mixer.Run(Variable(window), /*collect_components=*/true);
  std::printf("\nDecomposition of one test window:\n");
  for (size_t i = 0; i < out.components.size(); ++i) {
    const Tensor& s = out.components[i].value();
    const float power = MeanAll(Square(s)).item();
    std::printf("  component S%zu (patch %2lld): power %.3f\n", i + 1,
                (long long)model_config.patch_sizes[i], power);
  }
  const float residual_power = MeanAll(Square(out.residual.value())).item();
  Tensor acf = AutocorrelationMatrix(out.residual.value().Reshape({3, 96}));
  std::printf("  residual: power %.3f, ACF within white-noise band: %.0f%%\n",
              residual_power, 100.0 * WhiteNoiseBandFraction(acf, 96));

  // 5. Forecast the next 48 steps from that window.
  Tensor forecast = out.prediction.value();
  std::printf("\nForecast (channel 0, first 8 of %lld steps): ",
              (long long)forecast.dim(2));
  for (int64_t t = 0; t < 8; ++t) {
    std::printf("%.2f ", forecast.at({0, 0, t}));
  }

  // One line that pins the run's numerics: every epoch loss at %.9g (enough
  // digits to round-trip a float) and a 64-bit FNV-1a hash of the forecast's
  // bytes. Two builds that train and forecast the same bits print the same
  // line.
  std::printf("\ndigest losses=");
  for (size_t i = 0; i < train_stats.epoch_losses.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ",",
                (double)train_stats.epoch_losses[i]);
  }
  uint64_t hash = 14695981039346656037ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(forecast.data());
  for (size_t i = 0; i < sizeof(float) * (size_t)forecast.numel(); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  std::printf(" forecast_fnv1a=%016llx\n", (unsigned long long)hash);
  std::printf("Done.\n");
  return 0;
}
