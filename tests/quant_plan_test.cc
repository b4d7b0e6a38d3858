// Int8 quantization pass tests (serve/plan.h CompileOptions, tensor/qgemm.h,
// docs/COMPILER.md): adoption on well-conditioned weights, calibration
// fallback on an adversarial high-dynamic-range layer, default-off fp32
// bit-identity, per-session int8 selection through
// InferenceSessionConfig::quantize, quantized-output accuracy bounds and
// batch-composition invariance, and bit-identity of the quantized path
// across thread counts.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "serve/plan.h"
#include "serve/session.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "quant_plan_test_" +
         std::to_string(::getpid()) + "_" + name;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

double RelFrobError(const Tensor& got, const Tensor& want) {
  double num = 0.0, den = 0.0;
  for (int64_t i = 0; i < want.numel(); ++i) {
    const double d =
        static_cast<double>(got.data()[i]) - static_cast<double>(want.data()[i]);
    num += d * d;
    den += static_cast<double>(want.data()[i]) *
           static_cast<double>(want.data()[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

// ---- Plan-level pass behavior ----------------------------------------------

// A single constant-weight Linear: the minimal plan with one prepacked GEMM
// candidate.
TEST(QuantPassTest, AdoptsWellConditionedGemm) {
  Rng rng(3);
  const Tensor w = Tensor::RandNormal({24, 16}, 0.0f, 1.0f, rng);
  const Tensor bias = Tensor::RandNormal({16}, 0.0f, 0.5f, rng);
  const Tensor example = Tensor::RandNormal({8, 24}, 0.0f, 1.0f, rng);
  auto fwd = [&](const Tensor& in) {
    return MatMulEx(in, w, bias, gemm::Activation::kGelu);
  };
  std::string why;
  serve::CompileOptions options;
  options.quantize = true;
  auto plan = serve::CompiledPlan::Compile(fwd, example, &why, options);
  ASSERT_NE(plan, nullptr) << why;
  EXPECT_EQ(plan->stats().num_quantized, 1) << plan->DebugString();
  EXPECT_EQ(plan->stats().num_quant_fallbacks, 0);
  EXPECT_GT(plan->stats().quant_arena_bytes, 0);
  // Output within the calibration gate of the interpreted oracle.
  Tensor want = fwd(example);
  Tensor got = plan->Execute(example);
  EXPECT_LT(RelFrobError(got, want), serve::kQuantMaxRelError);
  // The schedule dump announces the rewrite.
  EXPECT_NE(plan->DebugString().find("int8"), std::string::npos);
}

// Adversarial high-dynamic-range layer: a weight column mixing +/-1e6
// entries that cancel exactly on this input with small entries that carry
// the real signal. Per-channel quantization flattens the small entries to
// zero, the quantized output loses the signal entirely, and the calibration
// gate must keep the step fp32.
TEST(QuantPassTest, FallsBackOnHighDynamicRangeLayer) {
  const int64_t k = 8, n = 4, m = 6;
  Tensor w = Tensor::Zeros({k, n});
  Rng rng(5);
  Tensor small = Tensor::RandNormal({k, n}, 0.0f, 0.01f, rng);
  for (int64_t i = 0; i < w.numel(); ++i) w.data()[i] = small.data()[i];
  for (int64_t j = 0; j < n; ++j) {
    w.data()[0 * n + j] = 1e6f;   // row 0: huge positive
    w.data()[1 * n + j] = -1e6f;  // row 1: huge negative, cancels row 0
  }
  // Example whose first two features are identical, so the 1e6 contributions
  // cancel exactly and the true output is the small-weight signal.
  Tensor example = Tensor::RandNormal({m, k}, 0.0f, 1.0f, rng);
  for (int64_t i = 0; i < m; ++i) {
    example.data()[i * k + 1] = example.data()[i * k + 0];
  }
  auto fwd = [&](const Tensor& in) {
    return MatMulEx(in, w, Tensor(), gemm::Activation::kIdentity);
  };
  std::string why;
  serve::CompileOptions options;
  options.quantize = true;
  auto plan = serve::CompiledPlan::Compile(fwd, example, &why, options);
  ASSERT_NE(plan, nullptr) << why;
  EXPECT_EQ(plan->stats().num_quantized, 0) << plan->DebugString();
  EXPECT_EQ(plan->stats().num_quant_fallbacks, 1);
  // The fallen-back plan still IS the validated fp32 plan: bit-identical to
  // the interpreted forward.
  EXPECT_TRUE(BitIdentical(plan->Execute(example), fwd(example)));
}

// Default options must not change a single bit: Compile without options and
// Compile with the default CompileOptions produce memcmp-identical outputs
// and no quantization stats.
TEST(QuantPassTest, DefaultOptionsStayFp32BitIdentical) {
  Rng rng(7);
  const Tensor w = Tensor::RandNormal({16, 12}, 0.0f, 1.0f, rng);
  const Tensor example = Tensor::RandNormal({4, 16}, 0.0f, 1.0f, rng);
  auto fwd = [&](const Tensor& in) {
    return MatMulEx(in, w, Tensor(), gemm::Activation::kRelu);
  };
  std::string why;
  auto implicit = serve::CompiledPlan::Compile(fwd, example, &why);
  ASSERT_NE(implicit, nullptr) << why;
  auto explicit_default = serve::CompiledPlan::Compile(
      fwd, example, &why, serve::CompileOptions());
  ASSERT_NE(explicit_default, nullptr) << why;
  EXPECT_EQ(implicit->stats().num_quantized, 0);
  EXPECT_EQ(implicit->stats().num_quant_fallbacks, 0);
  EXPECT_EQ(implicit->stats().quant_arena_bytes, 0);
  EXPECT_TRUE(BitIdentical(implicit->Execute(example),
                           explicit_default->Execute(example)));
  EXPECT_TRUE(BitIdentical(implicit->Execute(example), fwd(example)));
}

// The quantized path is deterministic: bit-identical outputs for
// MSD_THREADS 1, 2, and 8, and across repeated Execute calls.
TEST(QuantPassTest, QuantizedExecuteBitIdenticalAcrossThreads) {
  Rng rng(11);
  const Tensor w = Tensor::RandNormal({48, 40}, 0.0f, 1.0f, rng);
  const Tensor bias = Tensor::RandNormal({40}, 0.0f, 0.5f, rng);
  const Tensor example = Tensor::RandNormal({130, 48}, 0.0f, 1.0f, rng);
  auto fwd = [&](const Tensor& in) {
    return MatMulEx(in, w, bias, gemm::Activation::kGelu);
  };
  std::string why;
  serve::CompileOptions options;
  options.quantize = true;
  auto plan = serve::CompiledPlan::Compile(fwd, example, &why, options);
  ASSERT_NE(plan, nullptr) << why;
  ASSERT_EQ(plan->stats().num_quantized, 1) << plan->DebugString();
  Tensor base;
  {
    runtime::ScopedThreads threads(1);
    base = plan->Execute(example);
    EXPECT_TRUE(BitIdentical(plan->Execute(example), base)) << "repeat";
  }
  for (int64_t t : {int64_t{2}, int64_t{8}}) {
    runtime::ScopedThreads threads(t);
    EXPECT_TRUE(BitIdentical(plan->Execute(example), base))
        << t << " threads";
  }
}

// ---- Session-level integration ---------------------------------------------

MsdMixerConfig SmallConfig() {
  MsdMixerConfig config;
  config.input_length = 32;
  config.channels = 2;
  config.patch_sizes = {8, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.drop_path = 0.0f;
  config.task = TaskType::kForecast;
  config.horizon = 8;
  return config;
}

std::unique_ptr<serve::InferenceSession> MakeSession(bool quantize,
                                                     const std::string& tag) {
  MsdMixerConfig config = SmallConfig();
  Rng rng(17);
  MsdMixer mixer(config, rng);
  const std::string path = TempPath("quant_" + tag + ".msdckpt");
  EXPECT_TRUE(SaveCheckpoint(mixer, path).ok());
  serve::InferenceSessionConfig sc;
  sc.model = config;
  sc.max_batch = 2;
  sc.quantize = quantize;
  auto session = serve::InferenceSession::Create(sc, path);
  std::remove(path.c_str());
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

TEST(QuantSessionTest, ConfigQuantizeAdoptsStepsWithinAccuracyBound) {
  auto fp32 = MakeSession(/*quantize=*/false, "fp32");
  auto quant = MakeSession(/*quantize=*/true, "int8");
  EXPECT_FALSE(fp32->quantized());
  EXPECT_TRUE(quant->quantized());
  const serve::CompiledPlan& plan = quant->plan();
  EXPECT_GT(plan.stats().num_quantized, 0) << plan.DebugString();
  Rng rng(23);
  const Tensor batch = Tensor::RandNormal({2, 2, 32}, 0.0f, 1.0f, rng);
  auto f = fp32->PredictBatch(batch);
  auto q = quant->PredictBatch(batch);
  ASSERT_TRUE(f.ok() && q.ok());
  // End-to-end drift across the whole quantized mixer stays in the few-
  // percent band the per-step gate implies.
  EXPECT_LT(RelFrobError(q.value(), f.value()), 0.05);
  // And the quantized session is itself deterministic.
  auto q2 = quant->PredictBatch(batch);
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(BitIdentical(q.value(), q2.value()));
  // A single-request Predict replays the one-row prefix of the same int8
  // plan; per-row activation scales keep window b's reply equal to row b of
  // the batch, for every b.
  for (int64_t b = 0; b < batch.dim(0); ++b) {
    auto single = quant->Predict(Slice(batch, 0, b, 1).Reshape({2, 32}));
    ASSERT_TRUE(single.ok());
    Tensor row = Slice(q.value(), 0, b, 1);
    Shape squeezed(row.shape().begin() + 1, row.shape().end());
    EXPECT_TRUE(BitIdentical(row.Reshape(std::move(squeezed)), single.value()))
        << "row " << b;
  }
}

TEST(QuantSessionTest, QuantCountersAndGaugePublished) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const int64_t steps_before =
      registry.GetCounter("serve/quant_steps").value();
  auto session = MakeSession(/*quantize=*/true, "counters");
  ASSERT_TRUE(session->quantized());
  EXPECT_GT(registry.GetCounter("serve/quant_steps").value(), steps_before);
  EXPECT_GT(registry.GetGauge("serve/quant_arena_bytes").value(), 0.0);
}

}  // namespace
}  // namespace msd
