// Train-once, serve-many: the serving half of the pipeline story.
//
// 1. Fit a ForecastPipeline on a synthetic series and Save() it.
// 2. Restore the checkpoint into a served model: CreateServedModel freezes
//    an InferenceSession (reading the .meta sidecar, so no hand-copied
//    scaler statistics or patch ladder) behind its own micro-batcher.
// 3. Answer a burst of concurrent requests through it, then show that every
//    batched answer matches the pipeline's own Predict bit for bit.
//
// See docs/SERVING.md for the knobs this example leaves at defaults.
#include <cstdio>
#include <cstring>
#include <vector>

#include "datagen/series_builder.h"
#include "runtime/worker.h"
#include "serve/registry.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

using namespace msd;

int main() {
  // -- 1. Train and checkpoint a small forecaster. --------------------------
  SeriesConfig series_config;
  series_config.name = "serve-demo";
  series_config.length = 600;
  series_config.seed = 11;
  for (int c = 0; c < 3; ++c) {
    ChannelSpec channel;
    channel.level = 2.0 * c;
    channel.seasonals.push_back({24.0, 1.0 + 0.2 * c, 0.3 * c, 2});
    channel.noise_sigma = 0.05;
    series_config.channels.push_back(channel);
  }
  const Tensor series = GenerateSeries(series_config);

  ForecastPipelineConfig pc;
  pc.lookback = 48;
  pc.horizon = 12;
  pc.trainer.epochs = 3;
  pc.trainer.batch_size = 32;
  pc.trainer.max_batches_per_epoch = 12;
  pc.trainer.early_stop_patience = 0;
  ForecastPipeline pipeline(pc, /*seed=*/3);
  std::printf("training on [%lld x %lld] series...\n",
              (long long)series.dim(0), (long long)series.dim(1));
  pipeline.Fit(series);

  const std::string ckpt = "serve_demo.msdckpt";
  Status saved = pipeline.Save(ckpt);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  // Reload so the reference predictions use the checkpointed statistics —
  // the same bits the session restores (see docs/SERVING.md on identity).
  Status reloaded = pipeline.Load(ckpt);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", reloaded.ToString().c_str());
    return 1;
  }

  // -- 2. Freeze the checkpoint into a served model. ------------------------
  serve::ManifestEntry entry;
  entry.name = "demo";
  entry.version = 1;
  entry.checkpoint = ckpt;
  entry.options.lookback = pc.lookback;
  entry.options.horizon = pc.horizon;
  serve::MicroBatcherConfig bc;
  bc.max_batch = 8;
  bc.max_delay_us = 1000;
  auto model = serve::CreateServedModel(entry, bc);
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".meta").c_str());
  if (!model.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  // -- 3. Serve a concurrent burst through the micro-batcher. ----------------
  const int64_t kClients = 4;
  const int64_t kRequestsEach = 8;
  // Reference answers come from the (single-threaded) pipeline up front;
  // the client threads below only talk to the served model.
  std::vector<Tensor> request_windows;
  std::vector<Tensor> expected;
  for (int64_t i = 0; i < kClients * kRequestsEach; ++i) {
    const Tensor window = Slice(series, 1, 16 * i, pc.lookback);
    request_windows.push_back(window);
    expected.push_back(pipeline.Predict(window));
  }
  std::vector<int64_t> mismatches(kClients, 0);
  {
    runtime::WorkerGroup clients;
    clients.Start(kClients, [&](int64_t client) {
      for (int64_t r = 0; r < kRequestsEach; ++r) {
        const int64_t i = client * kRequestsEach + r;
        auto reply = model.value()->Handle(request_windows[i]);
        const Tensor& want = expected[i];
        if (!reply.ok() ||
            std::memcmp(reply.value().data(), want.data(),
                        sizeof(float) * (size_t)want.numel()) != 0) {
          ++mismatches[client];
        }
      }
    });
    clients.Join();
  }

  int64_t total_mismatches = 0;
  for (int64_t m : mismatches) total_mismatches += m;
  std::printf("served %lld concurrent requests, %lld mismatches vs "
              "ForecastPipeline::Predict\n",
              (long long)(kClients * kRequestsEach),
              (long long)total_mismatches);
  return total_mismatches == 0 ? 0 : 1;
}
