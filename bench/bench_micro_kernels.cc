// google-benchmark microbenchmarks for the substrate kernels that dominate
// MSD-Mixer training: matmul, FFT, permute, patching, the residual-loss ACF,
// a full forward/backward step, and a whole trainer epoch.
//
// Besides the standard google-benchmark flags, accepts
//   --metrics-out <path>  combined metrics-registry + span-aggregate JSON
//   --trace-out <path>    chrome://tracing event file
//   --threads <n>         global pool size for the whole run (docs/RUNTIME.md)
// so kernel-level telemetry (tensor/matmul, tensor/fft, train/epoch spans)
// lands in BENCH_*.json trajectories.
#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/msd_mixer.h"
#include "core/patching.h"
#include "core/residual_loss.h"
#include "metrics/metrics.h"
#include "nn/layers.h"
#include "runtime/parallel.h"
#include "tasks/trainer.h"
#include "tensor/fft.h"
#include "tensor/gelu.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

void BM_MatMul2D(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandNormal({n, n}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({n, n}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul2D)->Arg(32)->Arg(64)->Arg(128);

void BM_BatchedMatMul(benchmark::State& state) {
  Rng rng(1);
  // The mixer's typical inner shape: [B, C, L', p] x [p, h].
  Tensor a = Tensor::RandNormal({32, 7, 4, 24}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({24, 32}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_BatchedMatMul);

void BM_BiasAddSuffixBroadcast(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 4, 32}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({32}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, bias));
  }
}
BENCHMARK(BM_BiasAddSuffixBroadcast);

// The serving plan's axis-MLP permutes of a 32-row batch, [32, 7, L', p]
// with L' = 96 / p for the argument p: the patch-axis swap (the last two
// axes) and the channel-axis swap (axes 1 and 3).
Tensor PlanPermuteInput(int64_t p) {
  Rng rng(1);
  return Tensor::RandNormal({32, 7, 96 / p, p}, 0, 1, rng);
}

void BM_PermuteLastTwo(benchmark::State& state) {
  const Tensor a = PlanPermuteInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Transpose(a, -1, -2));
  }
}
BENCHMARK(BM_PermuteLastTwo)->Arg(96)->Arg(48)->Arg(24)->Arg(2)->Arg(1);

void BM_PermuteGeneric(benchmark::State& state) {
  const Tensor a = PlanPermuteInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Permute(a, {0, 3, 2, 1}));
  }
}
BENCHMARK(BM_PermuteGeneric)->Arg(96)->Arg(48)->Arg(24)->Arg(2)->Arg(1);

void BM_PatchUnpatch(benchmark::State& state) {
  Rng rng(1);
  Variable x(Tensor::RandNormal({32, 7, 96}, 0, 1, rng));
  for (auto _ : state) {
    Variable p = Patch(x, state.range(0));
    benchmark::DoNotOptimize(Unpatch(p, 96));
  }
}
BENCHMARK(BM_PatchUnpatch)->Arg(24)->Arg(5)->Arg(1);

void BM_Fft(benchmark::State& state) {
  Rng rng(1);
  Tensor series = Tensor::RandNormal({7, 256}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopPeriodsFft(series, 3));
  }
}
BENCHMARK(BM_Fft);

void BM_TrainerEpoch(benchmark::State& state) {
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 48;
  config.channels = 3;
  config.patch_sizes = {12, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.task = TaskType::kForecast;
  config.horizon = 24;
  Tensor series = Tensor::RandNormal({3, 400}, 0, 1, rng);
  ForecastWindowDataset data(series, 48, 24, 4);
  TrainerConfig trainer;
  trainer.epochs = 1;
  trainer.batch_size = 16;
  trainer.max_batches_per_epoch = 4;
  trainer.telemetry = TelemetrySink::kRegistry;
  for (auto _ : state) {
    state.PauseTiming();
    Rng model_rng(7);
    MsdMixer mixer(config, model_rng);
    MsdMixerTaskModel model(&mixer, /*lambda=*/0.3f);
    state.ResumeTiming();
    TrainStats stats = Train(model, data, trainer, ForecastMseTaskLoss);
    benchmark::DoNotOptimize(stats.total_wall_seconds);
  }
}
BENCHMARK(BM_TrainerEpoch);

void BM_ResidualLossForwardBackward(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    Variable z(Tensor::RandNormal({16, 7, 96}, 0, 1, rng), true);
    ResidualLossOptions options;
    options.max_lag = state.range(0);
    ResidualLoss(z, options).Backward();
    benchmark::DoNotOptimize(z.grad());
  }
}
BENCHMARK(BM_ResidualLossForwardBackward)->Arg(24)->Arg(95);

void BM_AutocorrelationMatrix(benchmark::State& state) {
  Rng rng(1);
  Tensor series = Tensor::RandNormal({7, 96}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AutocorrelationMatrix(series));
  }
}
BENCHMARK(BM_AutocorrelationMatrix);

void BM_MixerTrainStep(benchmark::State& state) {
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 96;
  config.channels = 7;
  config.patch_sizes = {24, 12, 6, 2, 1};
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.drop_path = 0.0f;
  config.task = TaskType::kForecast;
  config.horizon = 96;
  MsdMixer mixer(config, rng);
  Tensor x = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  Tensor y = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  for (auto _ : state) {
    for (Variable& p : mixer.Parameters()) p.ZeroGrad();
    MsdMixerOutput out = mixer.Run(Variable(x));
    Variable loss = Add(MeanAll(Square(Sub(out.prediction, Variable(y)))),
                        MulScalar(ResidualLoss(out.residual,
                                               {2.0f, true, 24}),
                                  0.5f));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_MixerTrainStep);

void BM_Rfft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Tensor noise = Tensor::RandNormal({static_cast<int64_t>(n)}, 0, 1, rng);
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = noise.data()[i];
  std::vector<std::complex<double>> out;
  for (auto _ : state) {
    Rfft(x.data(), n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Rfft)->Arg(256)->Arg(4096);

// ---- Thread-scaling sweeps --------------------------------------------------
// The same kernel at pool sizes 1/2/4 (Arg is the thread count). Outputs
// are bit-identical across the sweep, so only wall-clock should move.

void BM_MatMulThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({128, 128}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({128, 128}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 128);
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4);

// GEMM shape family at sizes of BM_MixerTrainStep's configuration (B=32,
// C=7, L=96, patch 24, d=16, h=32, horizon 96), with fused bias/activation
// epilogues.

// Patch embedding: [B, C, L', p] x [p, d] + bias (shared-B flatten path).
void BM_GemmPatchEmbedThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 4, 24}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({24, 16}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({16}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MatMulEx(a, w, bias, gemm::Activation::kIdentity));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 7 * 4 * 24 * 16);
}
BENCHMARK(BM_GemmPatchEmbedThreads)->Arg(1)->Arg(2)->Arg(4);

// The channel MLP's fc1, which mixes across the C = 7 channels: 3072 rows
// x [7, 64] + bias + GELU, the same shape as bench_qgemm's kChannelMix.
void BM_GemmChannelMixThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({3072, 7}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({7, 64}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({64}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulEx(a, w, bias, gemm::Activation::kGelu));
  }
  state.SetItemsProcessed(state.iterations() * 3072 * 7 * 64);
}
BENCHMARK(BM_GemmChannelMixThreads)->Arg(1)->Arg(2)->Arg(4);

// Forecast head projection: [B, C, L'*d] x [L'*d, H] + bias.
void BM_GemmHeadThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 64}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({64, 96}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({96}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MatMulEx(a, w, bias, gemm::Activation::kIdentity));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 7 * 64 * 96);
}
BENCHMARK(BM_GemmHeadThreads)->Arg(1)->Arg(2)->Arg(4);

// Thin shapes: the p = 1 intra-patch MLP as offline_fp32 runs it, 16
// windows x 7 channels x 96 patches = 10752 rows of width 1 against a hidden
// layer of 64. fc1 has k = 1 and a fused GELU; fc2 has n = 1.
void BM_GemmThinFc1Threads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({10752, 1}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({1, 64}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({64}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulEx(a, w, bias, gemm::Activation::kGelu));
  }
  state.SetItemsProcessed(state.iterations() * 10752 * 64);
}
BENCHMARK(BM_GemmThinFc1Threads)->Arg(1)->Arg(2)->Arg(4);

void BM_GemmThinFc2Threads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({10752, 64}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({64, 1}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({1}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MatMulEx(a, w, bias, gemm::Activation::kIdentity));
  }
  state.SetItemsProcessed(state.iterations() * 10752 * 64);
}
BENCHMARK(BM_GemmThinFc2Threads)->Arg(1)->Arg(2)->Arg(4);

// The same p = 1 MLP as one fused plan step: fc1 -> GELU -> fc2 through
// prepacked weights, each 64-row tile's hidden layer kept in a per-thread
// scratch (MlpPrepackedInto). Compare with BM_GemmThinFc1Threads +
// BM_GemmThinFc2Threads, which write and re-read the [10752, 64] hidden.
void BM_MlpThinThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({10752, 1}, 0, 1, rng);
  PackedLinear fc1{PackGemmB(Tensor::RandNormal({1, 64}, 0, 1, rng)), 1, 64,
                   Tensor::RandNormal({64}, 0, 1, rng),
                   gemm::Activation::kGelu};
  PackedLinear fc2{PackGemmB(Tensor::RandNormal({64, 1}, 0, 1, rng)), 64, 1,
                   Tensor::RandNormal({1}, 0, 1, rng),
                   gemm::Activation::kIdentity};
  Tensor out = Tensor::Uninitialized({10752, 1});
  for (auto _ : state) {
    MlpPrepackedInto(a, fc1, fc2, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 10752 * 64);
}
BENCHMARK(BM_MlpThinThreads)->Arg(1)->Arg(2)->Arg(4);

// The exact GELU span over one 64 x 64 epilogue tile, by input mix (Arg):
// 0 = MSD-Mixer's pre-activation mix, 94% / 5% / 1% of erf arguments
// |x / sqrt 2| in erff's small (< 0.84375), mid (< 1.25) and outer ranges;
// 1 = N(0, 1); 2 = all small; 3 = all mid; 4 = all outer. Items are floats.
void BM_GeluSpan(benchmark::State& state) {
  constexpr int64_t kN = 64 * 64;
  // The range edges in x: 0.84375 and 1.25 times sqrt 2.
  constexpr float kMid = 1.1933f;
  constexpr float kOuter = 1.7678f;
  Rng rng(7);
  auto draw = [&](int mix) {
    const float sign = rng.Bernoulli(0.5) ? -1.0f : 1.0f;
    const double r = mix == 0 ? rng.NextDouble() : 0.0;
    if (mix == 1) return rng.Gaussian();
    if (mix == 2 || (mix == 0 && r < 0.941)) return rng.Uniform(-1.19f, 1.19f);
    if (mix == 3 || (mix == 0 && r < 0.991)) {
      return sign * rng.Uniform(kMid, kOuter - 0.001f);
    }
    return sign * rng.Uniform(kOuter, 4.0f);
  };
  std::vector<float> x(kN);
  for (float& v : x) v = draw(static_cast<int>(state.range(0)));
  std::vector<float> y(kN);
  for (auto _ : state) {
    kernel::GeluSpan(x.data(), y.data(), kN);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_GeluSpan)->DenseRange(0, 4);

// One Linear's backward (input, weight and bias gradients) at patch size 96
// (B = 32, C = 7, L = 96, hidden 32): the channel MLP's fc1, a [32, 96, 1, 7],
// and the inter-patch MLP's fc1, a [32, 7, 96, 1]. Each iteration runs both
// nodes' backward closures once against a fixed upstream gradient dz.
void BM_LinearWeightGradThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  struct LinearGrad {
    Variable a, w, bias, z;
  };
  std::vector<LinearGrad> layers;
  int64_t macs = 0;
  for (const Shape& shape : {Shape{32, 96, 1, 7}, Shape{32, 7, 96, 1}}) {
    LinearGrad l;
    l.a = Variable(Tensor::RandNormal(shape, 0, 1, rng), true);
    l.w = Variable(Tensor::RandNormal({shape.back(), 32}, 0, 1, rng), true);
    l.bias = Variable(Tensor::RandNormal({32}, 0, 1, rng), true);
    l.z = MatMulEx(l.a, l.w, l.bias, gemm::Activation::kIdentity);
    l.z.node()->grad = Tensor::RandNormal(l.z.shape(), 0, 1, rng);
    macs += l.a.numel() * 32;
    layers.push_back(std::move(l));
  }
  for (auto _ : state) {
    for (LinearGrad& l : layers) {
      l.a.ZeroGrad();
      l.w.ZeroGrad();
      l.bias.ZeroGrad();
      l.z.node()->backward_fn(*l.z.node());
      benchmark::DoNotOptimize(l.w.grad().data());
    }
  }
  // The weight and input gradients are one product each.
  state.SetItemsProcessed(state.iterations() * 2 * macs);
}
BENCHMARK(BM_LinearWeightGradThreads)->Arg(1)->Arg(4);

// A fused Linear+GELU's forward and backward at the p = 96 thin fc1 (the
// inter-patch MLP's [32, 7, 96, 1] input against a [1, 32] weight), against
// a fixed upstream gradient. Under training the forward epilogue also writes
// GELU', and the backward multiplies the upstream gradient by it.
void BM_LinearGeluThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Variable a(Tensor::RandNormal({32, 7, 96, 1}, 0, 1, rng), true);
  Variable w(Tensor::RandNormal({1, 32}, 0, 1, rng), true);
  Variable bias(Tensor::RandNormal({32}, 0, 1, rng), true);
  const Tensor dy = Tensor::RandNormal({32, 7, 96, 32}, 0, 1, rng);
  for (auto _ : state) {
    a.ZeroGrad();
    w.ZeroGrad();
    bias.ZeroGrad();
    Variable y = MatMulEx(a, w, bias, gemm::Activation::kGelu);
    y.node()->grad = dy;
    y.node()->backward_fn(*y.node());
    benchmark::DoNotOptimize(a.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * dy.numel());
}
BENCHMARK(BM_LinearGeluThreads)->Arg(1)->Arg(4);

// Every node below `y`, parents before children (Variable::Backward's order
// before it reverses it).
std::vector<AutogradNode*> NodesBelow(const Variable& y) {
  std::vector<AutogradNode*> order;
  std::unordered_set<AutogradNode*> seen;
  std::function<void(AutogradNode*)> visit = [&](AutogradNode* n) {
    if (!seen.insert(n).second) return;
    for (const auto& p : n->parents) visit(p.get());
    order.push_back(n);
  };
  visit(y.node().get());
  return order;
}

// One MLP block branch's backward, fc2(GELU(fc1(x))) as MlpBlock records it,
// at train_forecast's shapes: 21504 rows (32 windows x 7 channels x 96
// steps) of f features (Arg: 1, 7 or 96) -> 32 hidden -> f. Each iteration
// runs the branch's backward closures once, as Variable::Backward would
// below a loss, from a fixed upstream gradient; x and all four parameters
// require grad. Items are hidden activations.
void BM_MlpBranchBackward(benchmark::State& state) {
  const int64_t f = state.range(0);
  Rng rng(1);
  Linear fc1(f, 32, rng);
  Linear fc2(32, f, rng);
  Variable x(Tensor::RandNormal({32, 7, 96, f}, 0, 1, rng), true);
  const Variable y = MlpBranch(x, fc1.Operands(), fc2.Operands());
  const Tensor dy = Tensor::RandNormal(y.shape(), 0, 1, rng);
  const std::vector<AutogradNode*> nodes = NodesBelow(y);
  std::vector<Variable> leaves = fc1.Parameters();
  for (const Variable& p : fc2.Parameters()) leaves.push_back(p);
  leaves.push_back(x);
  for (auto _ : state) {
    for (Variable& leaf : leaves) leaf.ZeroGrad();
    y.node()->grad = dy;
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
      AutogradNode* n = *it;
      if (n->backward_fn == nullptr || !n->grad.defined()) continue;
      n->backward_fn(*n);
      n->grad = Tensor();
    }
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel() / f * 32);
}
BENCHMARK(BM_MlpBranchBackward)->Arg(1)->Arg(7)->Arg(96);

// DropPath's per-sample mask product, [32, 7, 96, 1] times [32, 1, 1, 1]:
// each mask element scales one contiguous run of 672 floats.
void BM_MaskMulThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor x = Tensor::RandNormal({32, 7, 96, 1}, 0, 1, rng);
  Tensor mask = Tensor::RandNormal({32, 1, 1, 1}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(x, mask));
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_MaskMulThreads)->Arg(1)->Arg(4);

// Channel-parallel real-input FFT (period detection path): per-channel rfft
// fans out across the pool, merge order is fixed, so outputs stay
// bit-identical while wall-clock scales.
void BM_RfftThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor series = Tensor::RandNormal({16, 512}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopPeriodsFft(series, 3));
  }
}
BENCHMARK(BM_RfftThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_ElementwiseThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({64, 7, 512}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({64, 7, 512}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gelu(Add(a, b)));
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_ElementwiseThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_MixerStepThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 96;
  config.channels = 7;
  config.patch_sizes = {24, 12, 6, 2, 1};
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.task = TaskType::kForecast;
  config.horizon = 96;
  MsdMixer mixer(config, rng);
  Tensor x = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  Tensor y = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  for (auto _ : state) {
    for (Variable& p : mixer.Parameters()) p.ZeroGrad();
    MsdMixerOutput out = mixer.Run(Variable(x));
    Variable loss = Add(MeanAll(Square(Sub(out.prediction, Variable(y)))),
                        MulScalar(ResidualLoss(out.residual,
                                               {2.0f, true, 24}),
                                  0.5f));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_MixerStepThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_MixerInference(benchmark::State& state) {
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 96;
  config.channels = 7;
  config.patch_sizes = {24, 12, 6, 2, 1};
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.task = TaskType::kForecast;
  config.horizon = 96;
  MsdMixer mixer(config, rng);
  mixer.SetTraining(false);
  Tensor x = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixer.Run(Variable(x)).prediction.value());
  }
}
BENCHMARK(BM_MixerInference);

}  // namespace
}  // namespace msd

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them;
  // remember the full original argv for the export at the end.
  msd::bench::InitThreads(argc, argv);
  const std::string metrics_out = msd::bench::MetricsOutPath(argc, argv);
  const std::string trace_out = msd::bench::TraceOutPath(argc, argv);
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" || arg == "--trace-out" || arg == "--threads") {
      ++i;  // skip the value
      continue;
    }
    if (arg.rfind("--metrics-out=", 0) == 0 ||
        arg.rfind("--trace-out=", 0) == 0 || arg.rfind("--threads=", 0) == 0) {
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  // Stamp the repo's own compile mode into the JSON context, so a Debug
  // run cannot pass for a Release one (the library's library_build_type
  // reports how *benchmark* was packaged, not this tree).
  benchmark::AddCustomContext("msd_build_type", msd::bench::BuildTypeString());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bool ok = true;
  if (!metrics_out.empty()) ok = msd::bench::WriteTelemetryReport(metrics_out);
  if (!trace_out.empty()) {
    ok = msd::obs::Profiler::Global().WriteChromeTrace(trace_out) && ok;
  }
  return ok ? 0 : 1;
}
