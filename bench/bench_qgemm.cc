// google-benchmark microbenchmarks for the int8 quantized GEMM path
// (tensor/qgemm.h, docs/PERFORMANCE.md) against its fp32 prepacked
// counterpart, at the GEMM shapes the planned MSD-Mixer forward actually
// executes:
//
//   PatchEmbed   m=896,  k=24,  n=32  (Linear(patch -> model_dim), identity)
//   ChannelMix   m=3072, k=7,   n=64  (channel-MLP fc1, gelu)
//   Head         m=224,  k=128, n=96  (forecast head, identity)
//
// Every BM_QGemm* iteration includes the per-request activation quantization
// — the honest serving cost — while the weight quantization (freeze-time,
// amortized across all requests) is benchmarked separately. The benchmark
// Arg is the thread-pool size (1/2/4), applied per iteration family so the
// scaling behavior of both paths is visible in one run.
//
// Flags beyond google-benchmark's: --metrics-out / --trace-out / --threads
// as in bench_micro_kernels.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/parallel.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"

namespace msd {
namespace {

struct GemmShape {
  int64_t m, k, n;
  gemm::Activation act;
  bool bias;
};

constexpr GemmShape kPatchEmbed{896, 24, 32, gemm::Activation::kIdentity,
                                true};
constexpr GemmShape kChannelMix{3072, 7, 64, gemm::Activation::kGelu, true};
constexpr GemmShape kHead{224, 128, 96, gemm::Activation::kIdentity, true};

// Shared random operands per shape (seeded; identical for fp32 and int8
// variants of the same shape).
struct Operands {
  std::vector<float> a, b, bias;
  explicit Operands(const GemmShape& s) {
    std::mt19937 rng(42);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    a.resize(static_cast<size_t>(s.m * s.k));
    b.resize(static_cast<size_t>(s.k * s.n));
    bias.resize(static_cast<size_t>(s.n));
    for (float& v : a) v = dist(rng);
    for (float& v : b) v = dist(rng);
    for (float& v : bias) v = dist(rng);
  }
};

void RunQuantized(benchmark::State& state, const GemmShape& s) {
  runtime::ScopedThreads threads(state.range(0));
  Operands ops(s);
  // Freeze-time: pack + quantize weights once, like the plan does.
  std::vector<int8_t> bq(
      static_cast<size_t>(qgemm::PackedQuantBInt8s(s.k, s.n)));
  std::vector<float> bs(static_cast<size_t>(qgemm::QuantBScaleFloats(s.n)));
  qgemm::QuantizeWeightsPerChannel(ops.b.data(), s.k, s.n, bq.data(),
                                   bs.data());
  std::vector<int16_t> aq(
      static_cast<size_t>(s.m * qgemm::QuantARowInt16s(s.k)));
  std::vector<float> as(static_cast<size_t>(s.m));
  std::vector<float> c(static_cast<size_t>(s.m * s.n));
  for (auto _ : state) {
    // Per-request: dynamic activation quant + int8 kernel with fused
    // dequant/bias/activation epilogue.
    qgemm::QuantizeActivationsPerRow(ops.a.data(), s.m, s.k, aq.data(),
                                     as.data());
    qgemm::QGemmPrepacked(aq.data(), as.data(), bq.data(), bs.data(),
                          c.data(), s.m, s.k, s.n,
                          s.bias ? ops.bias.data() : nullptr, s.act);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.k * s.n);
}

void RunFp32(benchmark::State& state, const GemmShape& s) {
  runtime::ScopedThreads threads(state.range(0));
  Operands ops(s);
  std::vector<float> packed(
      static_cast<size_t>(gemm::PackedBPanelFloats(s.k, s.n)));
  gemm::PackB(ops.b.data(), s.k, s.n, packed.data());
  std::vector<float> c(static_cast<size_t>(s.m * s.n));
  for (auto _ : state) {
    gemm::GemmPrepacked(ops.a.data(), packed.data(), c.data(), s.m, s.k, s.n,
                        s.bias ? ops.bias.data() : nullptr, s.act, nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.k * s.n);
}

void BM_QGemmPatchEmbed(benchmark::State& state) {
  RunQuantized(state, kPatchEmbed);
}
void BM_QGemmChannelMix(benchmark::State& state) {
  RunQuantized(state, kChannelMix);
}
void BM_QGemmHead(benchmark::State& state) { RunQuantized(state, kHead); }
void BM_GemmPatchEmbed(benchmark::State& state) {
  RunFp32(state, kPatchEmbed);
}
void BM_GemmChannelMix(benchmark::State& state) {
  RunFp32(state, kChannelMix);
}
void BM_GemmHead(benchmark::State& state) { RunFp32(state, kHead); }

BENCHMARK(BM_QGemmPatchEmbed)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_QGemmChannelMix)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_QGemmHead)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_GemmPatchEmbed)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_GemmChannelMix)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(BM_GemmHead)->Arg(1)->Arg(2)->Arg(4);

// Component costs: the per-request activation quantizer alone and the
// freeze-time weight quantizer alone (amortized, but its cost bounds how
// long session Create spends per GEMM).
void BM_QuantizeActivationsInt8(benchmark::State& state) {
  runtime::ScopedThreads threads(state.range(0));
  const GemmShape& s = kHead;
  Operands ops(s);
  std::vector<int16_t> aq(
      static_cast<size_t>(s.m * qgemm::QuantARowInt16s(s.k)));
  std::vector<float> as(static_cast<size_t>(s.m));
  for (auto _ : state) {
    qgemm::QuantizeActivationsPerRow(ops.a.data(), s.m, s.k, aq.data(),
                                     as.data());
    benchmark::DoNotOptimize(aq.data());
  }
  state.SetItemsProcessed(state.iterations() * s.m * s.k);
}
BENCHMARK(BM_QuantizeActivationsInt8)->Arg(1)->Arg(4);

void BM_QuantizeWeightsInt8(benchmark::State& state) {
  runtime::ScopedThreads threads(1);
  const GemmShape& s = kHead;
  Operands ops(s);
  std::vector<int8_t> bq(
      static_cast<size_t>(qgemm::PackedQuantBInt8s(s.k, s.n)));
  std::vector<float> bs(static_cast<size_t>(qgemm::QuantBScaleFloats(s.n)));
  for (auto _ : state) {
    qgemm::QuantizeWeightsPerChannel(ops.b.data(), s.k, s.n, bq.data(),
                                     bs.data());
    benchmark::DoNotOptimize(bq.data());
  }
  state.SetItemsProcessed(state.iterations() * s.k * s.n);
}
BENCHMARK(BM_QuantizeWeightsInt8);

}  // namespace
}  // namespace msd

int main(int argc, char** argv) {
  msd::bench::InitThreads(argc, argv);
  const std::string metrics_out = msd::bench::MetricsOutPath(argc, argv);
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" || arg == "--trace-out" || arg == "--threads") {
      ++i;
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
  // Stamp the repo's own compile mode, so a Debug run cannot pass for a
  // Release one (the library's own library_build_type reflects how
  // *benchmark* was built, not this tree).
  benchmark::AddCustomContext("msd_build_type", msd::bench::BuildTypeString());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!msd::bench::ExportTelemetry(argc, argv)) return 1;
  return 0;
}
