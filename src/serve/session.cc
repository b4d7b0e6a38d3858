#include "serve/session.h"

#include <utility>

#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace serve {

// Seeds the throwaway weight init that the checkpoint overwrites; the plan's
// freeze-time example inputs draw from kInitSeed + 1.
constexpr uint64_t kInitSeed = 1;

InferenceSession::InferenceSession(const InferenceSessionConfig& config)
    : config_(config) {}

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::Create(
    const InferenceSessionConfig& config, const std::string& checkpoint_path) {
  if (config.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (config.model.channels < 1 || config.model.input_length < 1) {
    return Status::InvalidArgument("model config needs channels/input_length");
  }
  if (config.scaler.fitted() &&
      config.scaler.mean().dim(0) != config.model.channels) {
    return Status::InvalidArgument(
        "scaler channel count does not match the model");
  }
  std::unique_ptr<InferenceSession> session(new InferenceSession(config));
  Rng rng(kInitSeed);
  session->mixer_ = std::make_unique<MsdMixer>(config.model, rng);
  Status loaded = LoadCheckpoint(*session->mixer_, checkpoint_path);
  if (!loaded.ok()) return loaded;
  session->mixer_->SetTraining(false);
  Status planned = session->BuildPlan();
  if (!planned.ok()) return planned;
  static obs::Counter& sessions =
      obs::MetricsRegistry::Global().GetCounter("serve/sessions_created");
  sessions.Add(1);
  return session;
}

Status InferenceSession::ValidateBatch(const Tensor& batch) const {
  if (!batch.defined() || batch.rank() != 3) {
    return Status::InvalidArgument("batch must be [B, channels, length]");
  }
  if (batch.dim(0) < 1 || batch.dim(0) > config_.max_batch) {
    return Status::InvalidArgument(
        "batch size " + std::to_string(batch.dim(0)) + " outside [1, " +
        std::to_string(config_.max_batch) + "]");
  }
  if (batch.dim(1) != config_.model.channels ||
      batch.dim(2) != config_.model.input_length) {
    return Status::InvalidArgument(
        "window shape " + ShapeToString(batch.shape()) + " does not match [" +
        std::to_string(config_.model.channels) + ", " +
        std::to_string(config_.model.input_length) + "]");
  }
  return Status::OK();
}

Tensor InferenceSession::RunPlanned(const Tensor& batch) {
  MSD_SPAN("serve/predict_batch");
  // The session mutex is the plan's exclusion domain: Execute mutates the
  // arena (every batch size replays into the same regions), so forwards on
  // one session serialize.
  std::lock_guard<std::mutex> lock(model_mu_);
  if (config_.synthetic_compute_us > 0) {
    // Busy-spin (not sleep) so the emulated slow model occupies the forward
    // pass exactly like real compute would, lock held and all.
    const auto until = ServeClock::now() +
                       std::chrono::microseconds(config_.synthetic_compute_us);
    while (ServeClock::now() < until) {
    }
  }
  return plan_->Execute(batch);
}

Status InferenceSession::BuildPlan() {
  Rng rng(kInitSeed + 1);
  // Random (not zero) example inputs so the freeze-time memcmp validation
  // cannot pass by accident on degenerate all-zero intermediates.
  const Tensor example = Tensor::RandNormal(
      {config_.max_batch, config_.model.channels, config_.model.input_length},
      0.0f, 1.0f, rng);
  CompileOptions options;
  options.quantize = config_.quantize;
  std::string why_not;
  plan_ = CompiledPlan::Compile(
      [this](const Tensor& in) {
        NoGradGuard guard;
        // The plan covers the whole reply chain, not just the module graph:
        // normalize, forward, and (for forecast heads) denormalize all
        // freeze into one schedule.
        const Tensor scaled =
            config_.scaler.fitted() ? config_.scaler.Transform(in) : in;
        Tensor out = mixer_->Run(Variable(scaled)).prediction.value();
        if (config_.model.task == TaskType::kForecast &&
            config_.scaler.fitted()) {
          out = config_.scaler.InverseTransform(out);
        }
        return out;
      },
      example, &why_not, options);
  if (plan_ == nullptr) {
    // No stdio in src/serve: the refusal surfaces as this counter and as
    // the failed Create() carrying the planner's reason.
    static obs::Counter& refused =
        obs::MetricsRegistry::Global().GetCounter("serve/plan_build_refused");
    refused.Add(1);
    return Status::Internal("no plan for max_batch " +
                            std::to_string(config_.max_batch) + ": " +
                            why_not);
  }
  const PlanStats& stats = plan_->stats();
  if (config_.quantize) {
    // Freeze-time facts: how many GEMM steps adopted int8 and how many the
    // calibration gate kept fp32.
    static obs::Counter& quant_steps =
        obs::MetricsRegistry::Global().GetCounter("serve/quant_steps");
    static obs::Counter& quant_fallbacks =
        obs::MetricsRegistry::Global().GetCounter("serve/quant_fallbacks");
    quant_steps.Add(stats.num_quantized);
    quant_fallbacks.Add(stats.num_quant_fallbacks);
  }
  obs::MetricsRegistry::Global()
      .GetGauge("serve/arena_bytes")
      .Set(static_cast<double>(stats.arena_bytes));
  obs::MetricsRegistry::Global()
      .GetGauge("serve/quant_arena_bytes")
      .Set(static_cast<double>(stats.quant_arena_bytes));
  return Status::OK();
}

// msd-hot-path: the serving inference entry point.
StatusOr<Tensor> InferenceSession::PredictBatch(const Tensor& batch,
                                                TraceContext* trace) {
  Status valid = ValidateBatch(batch);
  if (!valid.ok()) return valid;
  // Direct callers make this an admission point: mint a context here so the
  // compute interval is still measured and (if sampled) traced.
  TraceContext local;
  const bool direct = trace == nullptr;
  if (direct) {
    local = MintTraceContext();
    trace = &local;
  }
  trace->compute_start = ServeClock::now();
  // The frozen schedule bakes in the scaler transform (and, for forecast
  // heads, the inverse transform) — the raw batch goes straight in.
  Tensor out = RunPlanned(batch);
  trace->compute_end = ServeClock::now();
  if (direct) {
    Instruments().compute_us.Observe(static_cast<double>(
        ToMicros(trace->compute_end - trace->compute_start)));
    if (trace->sampled) {
      obs::TraceRing::Global().Push(
          {trace->request_id, "compute", TimePointUs(trace->compute_start),
           ToMicros(trace->compute_end - trace->compute_start)});
    }
  }
  static obs::Counter& items =
      obs::MetricsRegistry::Global().GetCounter("serve/predicted_items");
  items.Add(batch.dim(0));
  return out;
}

StatusOr<Tensor> InferenceSession::Predict(const Tensor& window) {
  if (!window.defined() || window.rank() != 2) {
    return Status::InvalidArgument("window must be [channels, length]");
  }
  StatusOr<Tensor> batched = PredictBatch(
      window.Reshape({1, window.dim(0), window.dim(1)}));
  if (!batched.ok()) return batched;
  Tensor out = std::move(batched).value();
  Shape squeezed(out.shape().begin() + 1, out.shape().end());
  return out.Reshape(std::move(squeezed));
}

StatusOr<Tensor> InferenceSession::AnomalyScores(const Tensor& batch) {
  if (config_.model.task != TaskType::kReconstruction) {
    return Status::InvalidArgument(
        "AnomalyScores needs a reconstruction-task session");
  }
  Status valid = ValidateBatch(batch);
  if (!valid.ok()) return valid;
  // The reconstruction plan scales its input itself and answers in scaled
  // units, so the score compares it against the same scaled batch.
  const Tensor recon = RunPlanned(batch);
  const Tensor scaled =
      config_.scaler.fitted() ? config_.scaler.Transform(batch) : batch;
  // Per-window mean squared reconstruction error — the quantity the anomaly
  // protocol (tasks/evaluate.h) thresholds.
  return Mean(Square(Sub(recon, scaled)), {1, 2}, /*keepdim=*/false);
}

StatusOr<std::unique_ptr<InferenceSession>> CreateForecastSession(
    const std::string& checkpoint_path,
    const ForecastSessionOptions& options) {
  StatusOr<ForecastMeta> meta = LoadForecastMeta(checkpoint_path);
  if (!meta.ok()) return meta.status();
  InferenceSessionConfig config;
  config.model.input_length = options.lookback;
  config.model.channels = meta.value().scaler.mean().dim(0);
  config.model.patch_sizes = meta.value().patch_sizes;
  config.model.model_dim = options.model_dim;
  config.model.hidden_dim = options.hidden_dim;
  config.model.task = TaskType::kForecast;
  config.model.horizon = options.horizon;
  config.model.use_instance_norm = options.use_instance_norm;
  config.scaler = meta.value().scaler;
  config.max_batch = options.max_batch;
  config.quantize = options.quantize;
  return InferenceSession::Create(config, checkpoint_path);
}

}  // namespace serve
}  // namespace msd
