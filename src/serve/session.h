// Frozen inference session (docs/SERVING.md).
//
// An InferenceSession owns an eval-mode MSD-Mixer restored from an MSDCKPT
// checkpoint and answers Predict requests with no autograd tape, no weight
// mutation, and pool-recycled activation buffers:
//
//  * Frozen: weights load once at Create(); SetTraining(false) is applied
//    immediately and every forward runs under NoGradGuard, so no request
//    can record a tape or touch gradients (regression-tested via the
//    autograd/nodes_recorded counter).
//  * Pool-backed: the session holds a pool::MemoryScope for its lifetime,
//    so the batch staging and row slicing around each request draw from
//    the size-class free lists instead of the system allocator.
//  * Thread-safe: concurrent PredictBatch calls are serialized on an
//    internal mutex. Within a batch the GEMM engine already spreads work
//    across the MSD_THREADS pool, so inter-batch concurrency adds nothing
//    on a single node; the mutex keeps the forward pass trivially safe.
//  * Deterministic: outputs are bit-identical for any MSD_THREADS value and
//    for any batch composition — row b of PredictBatch equals the
//    single-request Predict of window b (tests/serve_test.cc).
//  * Planned: Create() freezes ONE CompiledPlan at max_batch rows — a flat
//    kernel schedule over a single arena allocation (serve/plan.h,
//    docs/COMPILER.md) — and every request of B rows replays the row-B
//    prefix of that plan; the module graph is never interpreted per
//    request. Planned outputs are bit-identical to the interpreted forward
//    at every B (enforced by freeze-time memcmps at max_batch and one row,
//    and by the differential test in tests/plan_test.cc). A refused plan
//    fails Create() with the planner's reason.
//
// Shape contract per task head (C = channels, L = input_length):
//   kForecast        [C, L] -> [C, horizon]        (original units)
//   kClassification  [C, L] -> [num_classes]       (logits)
//   kReconstruction  [C, L] -> [C, L]              (scaled units)
#ifndef MSDMIXER_SERVE_SESSION_H_
#define MSDMIXER_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/msd_mixer.h"
#include "data/scaler.h"
#include "serve/plan.h"
#include "serve/trace.h"
#include "tensor/pool.h"

namespace msd {
namespace serve {

struct InferenceSessionConfig {
  // Architecture; must match the checkpoint (LoadCheckpoint verifies every
  // parameter name and shape).
  MsdMixerConfig model;
  // Optional per-channel standardization applied to inputs; forecast
  // outputs are mapped back through InverseTransform. Unfitted = identity.
  StandardScaler scaler;
  // Upper bound on rows per PredictBatch call; the plan is compiled at this
  // many rows and serves every smaller batch from a row prefix.
  int64_t max_batch = 32;
  // Test/bench hook: busy-spin this long inside the locked forward pass to
  // emulate a slower model. 0 (the default) disables the hook; real
  // deployments never set it.
  int64_t synthetic_compute_us = 0;
  // Int8 inference (docs/PERFORMANCE.md): ask the planner to rewrite
  // eligible constant-weight GEMM steps to the quantized kernels
  // (tensor/qgemm.h). Per-step calibration against the fp32 plan decides
  // adoption; see kQuantMaxRelError. This field is the only int8 switch.
  // Off by default — the fp32 path stays bit-identical to prior releases.
  bool quantize = false;
};

class InferenceSession {
 public:
  // Builds the model, restores `checkpoint_path`, freezes the plan. Fails
  // (with the planner's reason) if the plan is refused.
  static StatusOr<std::unique_ptr<InferenceSession>> Create(
      const InferenceSessionConfig& config, const std::string& checkpoint_path);

  // Single request: input [C, L]; output per the task-head table above.
  StatusOr<Tensor> Predict(const Tensor& window);

  // Batched: inputs [B, C, L] with 1 <= B <= max_batch; outputs gain the
  // same leading B axis. Row b is bit-identical to Predict of window b.
  //
  // Trace protocol: when `trace` is null (a direct caller) this is an
  // admission point — the session mints a TraceContext, observes the
  // serve/compute_us histogram itself and pushes a compute span for sampled
  // calls. When the MicroBatcher passes a context, the session only fills
  // compute_start/compute_end and the batcher attributes the interval to
  // each member of the batch.
  StatusOr<Tensor> PredictBatch(const Tensor& batch,
                                TraceContext* trace = nullptr);

  // Reconstruction sessions only: per-window anomaly score [B] = mean
  // squared reconstruction error over channels and time (scaled units, the
  // same quantity tasks/evaluate.h thresholds).
  StatusOr<Tensor> AnomalyScores(const Tensor& batch);

  const MsdMixerConfig& model_config() const { return config_.model; }
  int64_t max_batch() const { return config_.max_batch; }

  // True when the plan was compiled with the quantization pass requested
  // (config.quantize). Individual steps may still have fallen back fp32; see
  // PlanStats::num_quantized.
  bool quantized() const { return config_.quantize; }
  // The frozen plan serving every batch size. Exposed for tests, benches and
  // the selftest's int8 check.
  const CompiledPlan& plan() const { return *plan_; }

 private:
  explicit InferenceSession(const InferenceSessionConfig& config);

  Status ValidateBatch(const Tensor& batch) const;
  // The locked planned forward: replays the frozen schedule (which bakes in
  // the scaler transform and, for forecast heads, the inverse transform) on
  // a validated [B, C, L] batch.
  Tensor RunPlanned(const Tensor& batch);
  // Freezes the CompiledPlan at max_batch rows and publishes the
  // serve/arena_bytes gauge. Fails if the planner refuses.
  Status BuildPlan();

  InferenceSessionConfig config_;
  // Keeps the activation free-lists alive between requests.
  pool::MemoryScope memory_scope_;
  std::unique_ptr<MsdMixer> mixer_;
  std::mutex model_mu_;
  std::unique_ptr<CompiledPlan> plan_;
};

// Convenience for checkpoints written by ForecastPipeline::Save: reads the
// `.meta` sidecar for the patch ladder and scaler statistics, then Create()s
// a forecast session whose Predict is bit-identical to
// ForecastPipeline::Predict on the same lookback window.
struct ForecastSessionOptions {
  int64_t lookback = 96;
  int64_t horizon = 24;
  int64_t model_dim = 16;
  int64_t hidden_dim = 32;
  bool use_instance_norm = true;
  int64_t max_batch = 32;
  // Forwarded to InferenceSessionConfig::quantize (int8 plan rewriting,
  // docs/PERFORMANCE.md).
  bool quantize = false;
};

StatusOr<std::unique_ptr<InferenceSession>> CreateForecastSession(
    const std::string& checkpoint_path, const ForecastSessionOptions& options);

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_SESSION_H_
