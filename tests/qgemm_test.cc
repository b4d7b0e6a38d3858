// Int8 quantized GEMM kernel tests (tensor/qgemm.h, docs/PERFORMANCE.md):
// quantizer round-trip properties, the packed kernel against a naive integer
// reference across edge geometries, bit-identity across thread counts, and
// — satellite coverage — the fp32 gemm::GemmPrepacked against a triple-loop
// reference on tile- and block-boundary shapes, bit for bit against its
// per-element FMA chain, and its chunk sizing; the scaled row tiles on a
// transposed pack against PackB of a transpose and Mul; the fused
// gemm::MlpPrepacked against two GemmPrepacked calls and its chunk sizing;
// and the elementwise kernels' chunk floor.
#include "tensor/qgemm.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "tensor/gelu.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

std::vector<float> RandomVec(size_t n, uint32_t seed, float scale = 1.0f) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, scale);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

// The reference integer pipeline: quantize exactly like the production
// quantizers (same expressions), accumulate in plain int32 ascending-k
// order, dequantize with the same per-element float expression. The packed
// kernel must match this bit for bit on identity/relu/tanh/sigmoid epilogues
// (gelu uses a vectorized approximation in the quantized epilogue and is
// tolerance-checked instead).
int8_t RefQuant(float v, float inv_scale) {
  if (inv_scale == 0.0f) return 0;
  float q = std::nearbyintf(v * inv_scale);
  if (q > 127.0f) q = 127.0f;
  if (q < -127.0f) q = -127.0f;
  return static_cast<int8_t>(q);
}

void RefQGemm(const std::vector<float>& a, const std::vector<float>& b,
              int64_t m, int64_t k, int64_t n, const float* bias,
              gemm::Activation act, std::vector<float>* c) {
  // Per-column weight quant.
  std::vector<float> b_scale(static_cast<size_t>(n), 0.0f);
  for (int64_t j = 0; j < n; ++j) {
    float mx = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(b[static_cast<size_t>(kk * n + j)]));
    }
    b_scale[static_cast<size_t>(j)] = mx / 127.0f;
  }
  std::vector<int8_t> bq(static_cast<size_t>(k * n));
  for (int64_t j = 0; j < n; ++j) {
    const float inv =
        b_scale[static_cast<size_t>(j)] > 0.0f
            ? 1.0f / b_scale[static_cast<size_t>(j)]
            : 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      bq[static_cast<size_t>(kk * n + j)] =
          RefQuant(b[static_cast<size_t>(kk * n + j)], inv);
    }
  }
  // Per-row activation quant.
  std::vector<float> a_scale(static_cast<size_t>(m), 0.0f);
  std::vector<int8_t> aq(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i) {
    float mx = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(a[static_cast<size_t>(i * k + kk)]));
    }
    a_scale[static_cast<size_t>(i)] = mx / 127.0f;
    const float inv = mx > 0.0f ? 127.0f / mx : 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      aq[static_cast<size_t>(i * k + kk)] =
          RefQuant(a[static_cast<size_t>(i * k + kk)], inv);
    }
  }
  c->assign(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> pre(static_cast<size_t>(n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<int32_t>(aq[static_cast<size_t>(i * k + kk)]) *
               static_cast<int32_t>(bq[static_cast<size_t>(kk * n + j)]);
      }
      pre[static_cast<size_t>(j)] = static_cast<float>(acc) *
                                    a_scale[static_cast<size_t>(i)] *
                                    b_scale[static_cast<size_t>(j)];
    }
    float* row = c->data() + i * n;
    std::memcpy(row, pre.data(), static_cast<size_t>(n) * sizeof(float));
    gemm::EpilogueBiasAct(row, nullptr, 1, n, bias, act);
  }
}

// Runs the production pipeline (quantize weights + activations, packed
// kernel) for one geometry.
void RunQGemm(const std::vector<float>& a, const std::vector<float>& b,
              int64_t m, int64_t k, int64_t n, const float* bias,
              gemm::Activation act, std::vector<float>* c) {
  std::vector<int8_t> bq(static_cast<size_t>(qgemm::PackedQuantBInt8s(k, n)));
  std::vector<float> bs(static_cast<size_t>(qgemm::QuantBScaleFloats(n)));
  qgemm::QuantizeWeightsPerChannel(b.data(), k, n, bq.data(), bs.data());
  std::vector<int16_t> aq(static_cast<size_t>(m * qgemm::QuantARowInt16s(k)));
  std::vector<float> as(static_cast<size_t>(m));
  qgemm::QuantizeActivationsPerRow(a.data(), m, k, aq.data(), as.data());
  c->assign(static_cast<size_t>(m * n), -1234.5f);  // every element written
  qgemm::QGemmPrepacked(aq.data(), as.data(), bq.data(), bs.data(), c->data(),
                        m, k, n, bias, act);
}

// ---- Quantizer properties ---------------------------------------------------

TEST(QuantizerTest, WeightScalesAreColumnAbsmaxOver127) {
  const int64_t k = 13, n = 11;
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), 5, 2.0f);
  std::vector<int8_t> packed(
      static_cast<size_t>(qgemm::PackedQuantBInt8s(k, n)));
  std::vector<float> scales(static_cast<size_t>(qgemm::QuantBScaleFloats(n)));
  qgemm::QuantizeWeightsPerChannel(b.data(), k, n, packed.data(),
                                   scales.data());
  for (int64_t j = 0; j < n; ++j) {
    float mx = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(b[static_cast<size_t>(kk * n + j)]));
    }
    EXPECT_FLOAT_EQ(scales[static_cast<size_t>(j)], mx / 127.0f) << j;
  }
  // Padding columns carry scale 0.
  for (int64_t j = n; j < qgemm::QuantBScaleFloats(n); ++j) {
    EXPECT_EQ(scales[static_cast<size_t>(j)], 0.0f);
  }
}

TEST(QuantizerTest, ActivationRoundTripWithinHalfStep) {
  const int64_t m = 7, k = 29;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), 6, 3.0f);
  std::vector<int16_t> aq(static_cast<size_t>(m * qgemm::QuantARowInt16s(k)));
  std::vector<float> as(static_cast<size_t>(m));
  qgemm::QuantizeActivationsPerRow(a.data(), m, k, aq.data(), as.data());
  const int64_t row_stride = qgemm::QuantARowInt16s(k);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float v = a[static_cast<size_t>(i * k + kk)];
      const float deq =
          static_cast<float>(aq[static_cast<size_t>(i * row_stride + kk)]) *
          as[static_cast<size_t>(i)];
      // |error| <= scale/2 for values inside the clamp range.
      EXPECT_LE(std::fabs(deq - v), as[static_cast<size_t>(i)] * 0.5f + 1e-7f)
          << "row " << i << " col " << kk;
      EXPECT_LE(std::abs(aq[static_cast<size_t>(i * row_stride + kk)]), 127);
    }
    // k padding inside the row stride is zero.
    for (int64_t kk = k; kk < row_stride; ++kk) {
      EXPECT_EQ(aq[static_cast<size_t>(i * row_stride + kk)], 0);
    }
  }
}

TEST(QuantizerTest, ZeroRowAndZeroColumnQuantizeToZero) {
  const int64_t m = 3, k = 9, n = 5;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), 7);
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), 8);
  for (int64_t kk = 0; kk < k; ++kk) {
    a[static_cast<size_t>(1 * k + kk)] = 0.0f;  // zero row 1
    b[static_cast<size_t>(kk * n + 2)] = 0.0f;  // zero column 2
  }
  std::vector<float> c;
  RunQGemm(a, b, m, k, n, nullptr, gemm::Activation::kIdentity, &c);
  for (int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(c[static_cast<size_t>(1 * n + j)], 0.0f) << "row 1, col " << j;
  }
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(c[static_cast<size_t>(i * n + 2)], 0.0f) << "col 2, row " << i;
  }
}

// ---- Kernel vs reference ----------------------------------------------------

struct Geometry {
  int64_t m, k, n;
};

// Edge geometries: off-tile rows (kQr=4 groups), off-panel columns (kNr=8),
// off-quad k (quads of 4), the degenerate K=1 / N=1 / M=1 shapes, and a
// paper-scale shape crossing every blocking boundary.
const Geometry kGeometries[] = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},     {4, 4, 8},    {5, 9, 11},
    {7, 24, 32}, {8, 128, 96}, {13, 65, 17},  {64, 256, 8}, {65, 257, 9},
    {96, 24, 32}, {33, 1, 40}, {40, 513, 1},  {128, 31, 72},
};

TEST(QGemmKernelTest, BitExactAgainstNaiveIntegerReference) {
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE("m=" + std::to_string(g.m) + " k=" + std::to_string(g.k) +
                 " n=" + std::to_string(g.n));
    std::vector<float> a =
        RandomVec(static_cast<size_t>(g.m * g.k), 11 + g.m, 1.5f);
    std::vector<float> b =
        RandomVec(static_cast<size_t>(g.k * g.n), 13 + g.n, 1.5f);
    std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 17);
    for (gemm::Activation act :
         {gemm::Activation::kIdentity, gemm::Activation::kRelu,
          gemm::Activation::kTanh, gemm::Activation::kSigmoid}) {
      std::vector<float> got, want;
      RunQGemm(a, b, g.m, g.k, g.n, bias.data(), act, &got);
      RefQGemm(a, b, g.m, g.k, g.n, bias.data(), act, &want);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << "act " << static_cast<int>(act);
    }
    // No-bias identity as well (the nullptr epilogue path).
    std::vector<float> got, want;
    RunQGemm(a, b, g.m, g.k, g.n, nullptr, gemm::Activation::kIdentity, &got);
    RefQGemm(a, b, g.m, g.k, g.n, nullptr, gemm::Activation::kIdentity,
             &want);
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0);
  }
}

TEST(QGemmKernelTest, GeluEpilogueWithinApproximationTolerance) {
  // The quantized epilogue uses a vectorized tanh-form gelu (~3e-4 absolute
  // error vs the exact erf form the reference applies).
  const Geometry g{33, 40, 27};
  std::vector<float> a = RandomVec(static_cast<size_t>(g.m * g.k), 3, 1.5f);
  std::vector<float> b = RandomVec(static_cast<size_t>(g.k * g.n), 4, 1.5f);
  std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 5);
  std::vector<float> got, want;
  RunQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kGelu, &got);
  RefQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kGelu, &want);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 2e-3f) << i;
  }
}

TEST(QGemmKernelTest, BitIdenticalAcrossThreadCounts) {
  const Geometry g{197, 130, 51};  // crosses kMc=64 row tiles unevenly
  std::vector<float> a = RandomVec(static_cast<size_t>(g.m * g.k), 21, 2.0f);
  std::vector<float> b = RandomVec(static_cast<size_t>(g.k * g.n), 22, 2.0f);
  std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 23);
  std::vector<float> base;
  {
    runtime::ScopedThreads threads(1);
    RunQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kGelu,
             &base);
  }
  for (int64_t t : {int64_t{2}, int64_t{8}}) {
    runtime::ScopedThreads threads(t);
    std::vector<float> got;
    RunQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kGelu, &got);
    EXPECT_EQ(
        std::memcmp(got.data(), base.data(), base.size() * sizeof(float)), 0)
        << t << " threads";
  }
}

TEST(QGemmKernelTest, SaturatesExtremeValuesWithoutOverflow) {
  // Huge dynamic range: quantization saturates at ±127 and the int32
  // accumulator stays in range for k up to kMaxK by construction.
  const int64_t m = 5, k = 300, n = 9;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), 31, 1e6f);
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), 32, 1e-6f);
  std::vector<float> got, want;
  RunQGemm(a, b, m, k, n, nullptr, gemm::Activation::kIdentity, &got);
  RefQGemm(a, b, m, k, n, nullptr, gemm::Activation::kIdentity, &want);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
  for (float v : got) EXPECT_TRUE(std::isfinite(v));
}

// ---- fp32 GemmPrepacked edge geometry (satellite coverage) ------------------

void RefGemm(const std::vector<float>& a, const std::vector<float>& b,
             int64_t m, int64_t k, int64_t n, const float* bias,
             gemm::Activation act, std::vector<float>* c) {
  c->assign(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    float* row = c->data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      // Ascending-k accumulation — the documented determinism order.
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[static_cast<size_t>(i * k + kk)] *
               b[static_cast<size_t>(kk * n + j)];
      }
      row[j] = acc;
    }
    gemm::EpilogueBiasAct(row, nullptr, 1, n, bias, act);
  }
}

// Shapes straddling every fp32 blocking boundary: the 8x8 register tile
// (kMr=8, kNr=8), the Mc=64 row block, and the Kc=256 depth block — plus
// K=1 and N=1 degenerate panels.
const Geometry kFp32Geometries[] = {
    {1, 1, 1},    {1, 256, 1},  {7, 9, 7},     {8, 8, 8},    {9, 255, 9},
    {63, 256, 8}, {64, 257, 9}, {65, 512, 16}, {16, 1, 24},  {24, 513, 1},
    {70, 260, 23},
};

TEST(GemmPrepackedEdgeTest, MatchesNaiveReferenceAtBlockBoundaries) {
  for (const Geometry& g : kFp32Geometries) {
    SCOPED_TRACE("m=" + std::to_string(g.m) + " k=" + std::to_string(g.k) +
                 " n=" + std::to_string(g.n));
    std::vector<float> a =
        RandomVec(static_cast<size_t>(g.m * g.k), 41 + g.m);
    std::vector<float> b =
        RandomVec(static_cast<size_t>(g.k * g.n), 43 + g.n);
    std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 47);
    std::vector<float> packed(
        static_cast<size_t>(gemm::PackedBPanelFloats(g.k, g.n)));
    gemm::PackB(b.data(), g.k, g.n, packed.data());
    for (gemm::Activation act :
         {gemm::Activation::kIdentity, gemm::Activation::kRelu}) {
      std::vector<float> got(static_cast<size_t>(g.m * g.n), -99.0f);
      gemm::GemmPrepacked(a.data(), packed.data(), got.data(), g.m, g.k, g.n,
                          bias.data(), act, nullptr);
      std::vector<float> want;
      RefGemm(a, b, g.m, g.k, g.n, bias.data(), act, &want);
      for (size_t i = 0; i < got.size(); ++i) {
        // fp32 blocking reorders nothing (ascending-k contract), but FMA
        // contraction differences against the naive loop allow tiny ulp
        // drift; bound it tightly relative to the accumulation depth.
        EXPECT_NEAR(got[i], want[i],
                    2e-5f * static_cast<float>(g.k) + 1e-5f)
            << "act " << static_cast<int>(act) << " idx " << i;
      }
    }
    // Prepacked path agrees with the one-shot Gemm entry point bit for bit
    // (same kernels, same order).
    std::vector<float> one(static_cast<size_t>(g.m * g.n), 0.0f);
    std::vector<float> two(static_cast<size_t>(g.m * g.n), 0.0f);
    gemm::Gemm(a.data(), b.data(), one.data(), g.m, g.k, g.n, bias.data(),
               gemm::Activation::kIdentity, nullptr);
    gemm::GemmPrepacked(a.data(), packed.data(), two.data(), g.m, g.k, g.n,
                        bias.data(), gemm::Activation::kIdentity, nullptr);
    EXPECT_EQ(std::memcmp(one.data(), two.data(), one.size() * sizeof(float)),
              0);
  }
}

// C[i][j] as the GEMM's contract defines it, whichever kernel computes it:
// one fused multiply-add per k, in ascending k, from +0.
float FmaChain(const std::vector<float>& a, const std::vector<float>& b,
               int64_t k, int64_t n, int64_t i, int64_t j) {
  float acc = 0.0f;
  for (int64_t kk = 0; kk < k; ++kk) {
    const float x = a[static_cast<size_t>(i * k + kk)];
    const float y = b[static_cast<size_t>(kk * n + j)];
    acc = std::fma(x, y, acc);
  }
  return acc;
}

// Index of the first element whose bits differ, or -1.
int64_t FirstBitDifference(const std::vector<float>& got,
                           const std::vector<float>& want) {
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

// Every tail panel height mr 1..8 (m = 64 + mr: a full row tile, then a
// tile whose last panel has mr rows), every panel width nr 1..8 (n = nr
// alone and after a full panel), k on both sides of the 256-deep slice, and
// every epilogue with and without bias: GemmPrepacked and Gemm equal the
// scalar chain bit for bit. The side buffer holds GeluGradSpan of the
// pre-activation for kGelu and is left untouched by every other activation.
TEST(GemmPrepackedEdgeTest, BitExactAgainstScalarFmaChain) {
  const gemm::Activation acts[] = {
      gemm::Activation::kIdentity, gemm::Activation::kRelu,
      gemm::Activation::kGelu, gemm::Activation::kTanh,
      gemm::Activation::kSigmoid};
  for (int64_t k : {1, 2, 7, 9, 64, 257, 300}) {
    for (int64_t mr = 1; mr <= 8; ++mr) {
      for (int64_t nr = 1; nr <= 8; ++nr) {
        for (int64_t n : {nr, 8 + nr}) {
          const int64_t m = 64 + mr;
          SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                       " n=" + std::to_string(n));
          const std::vector<float> a =
              RandomVec(static_cast<size_t>(m * k), 71 + static_cast<uint32_t>(k));
          const std::vector<float> b =
              RandomVec(static_cast<size_t>(k * n), 73 + static_cast<uint32_t>(n));
          const std::vector<float> bias = RandomVec(static_cast<size_t>(n), 79);
          std::vector<float> packed(
              static_cast<size_t>(gemm::PackedBPanelFloats(k, n)));
          gemm::PackB(b.data(), k, n, packed.data());
          std::vector<float> product(static_cast<size_t>(m * n));
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              product[static_cast<size_t>(i * n + j)] = FmaChain(a, b, k, n, i, j);
            }
          }
          for (gemm::Activation act : acts) {
            for (const float* bias_or_null :
                 {bias.data(), static_cast<const float*>(nullptr)}) {
              SCOPED_TRACE("act " + std::to_string(static_cast<int>(act)) +
                           (bias_or_null != nullptr ? " bias" : " no bias"));
              std::vector<float> want = product;
              gemm::EpilogueBiasAct(want.data(), nullptr, m, n, bias_or_null,
                                    act);
              std::vector<float> want_grad(want.size(), -7.0f);
              if (act == gemm::Activation::kGelu) {
                std::vector<float> z = product;
                for (size_t i = 0; bias_or_null != nullptr && i < z.size();
                     ++i) {
                  z[i] += bias_or_null[i % static_cast<size_t>(n)];
                }
                kernel::GeluGradSpan(z.data(), want_grad.data(), m * n);
              }
              std::vector<float> got(want.size(), -99.0f);
              std::vector<float> got_grad(want.size(), -7.0f);
              gemm::GemmPrepacked(a.data(), packed.data(), got.data(), m, k, n,
                                  bias_or_null, act, got_grad.data());
              EXPECT_EQ(FirstBitDifference(got, want), -1);
              EXPECT_EQ(FirstBitDifference(got_grad, want_grad), -1);
              std::vector<float> one_shot(want.size(), -99.0f);
              std::vector<float> one_shot_grad(want.size(), -7.0f);
              gemm::Gemm(a.data(), b.data(), one_shot.data(), m, k, n,
                         bias_or_null, act, one_shot_grad.data());
              EXPECT_EQ(FirstBitDifference(one_shot, want), -1);
              EXPECT_EQ(FirstBitDifference(one_shot_grad, want_grad), -1);
            }
          }
        }
      }
    }
  }
}

TEST(GemmPrepackedEdgeTest, BitIdenticalAcrossThreadCounts) {
  const Geometry g{130, 300, 45};  // crosses Mc and Kc blocks unevenly
  std::vector<float> a = RandomVec(static_cast<size_t>(g.m * g.k), 51);
  std::vector<float> b = RandomVec(static_cast<size_t>(g.k * g.n), 52);
  std::vector<float> packed(
      static_cast<size_t>(gemm::PackedBPanelFloats(g.k, g.n)));
  gemm::PackB(b.data(), g.k, g.n, packed.data());
  std::vector<float> base(static_cast<size_t>(g.m * g.n));
  {
    runtime::ScopedThreads threads(1);
    gemm::GemmPrepacked(a.data(), packed.data(), base.data(), g.m, g.k, g.n,
                        nullptr, gemm::Activation::kIdentity, nullptr);
  }
  for (int64_t t : {int64_t{2}, int64_t{8}}) {
    runtime::ScopedThreads threads(t);
    std::vector<float> got(static_cast<size_t>(g.m * g.n));
    gemm::GemmPrepacked(a.data(), packed.data(), got.data(), g.m, g.k, g.n,
                        nullptr, gemm::Activation::kIdentity, nullptr);
    EXPECT_EQ(
        std::memcmp(got.data(), base.data(), base.size() * sizeof(float)), 0)
        << t << " threads";
  }
}

// A Linear's input gradient and an MLP block's dz: GemmScaledPrepacked on a
// PackBTransposed weight against its definition, PackB of a materialized
// transpose, GemmPrepacked into a buffer, then the tensor Mul by the scale.
// The packs are memcmp-equal and so is C, for k on both sides of the
// 256-deep slice, n below, at and past one 8-wide panel, m off the 64-row
// tile, and a scale holding -0, quiet and payload NaNs and subnormals, at
// 1, 2 and 8 threads. A null scale gives the plain product.
TEST(GemmPrepackedEdgeTest, ScaledTransposedProductMatchesPackBThenMul) {
  const int64_t m = 130;
  const auto bits = [](uint32_t u) {
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
  };
  const float specials[] = {-0.0f,
                            0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            bits(0xffc00123u),
                            1e-40f,
                            -3e-42f};
  for (int64_t k : {1, 7, 32, 257}) {
    for (int64_t n : {1, 7, 8, 9, 32}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      const std::vector<float> a = RandomVec(static_cast<size_t>(m * k), 81);
      const std::vector<float> bt = RandomVec(static_cast<size_t>(n * k), 82);
      std::vector<float> b(static_cast<size_t>(k * n));
      for (int64_t j = 0; j < n; ++j) {
        for (int64_t kk = 0; kk < k; ++kk) {
          b[static_cast<size_t>(kk * n + j)] =
              bt[static_cast<size_t>(j * k + kk)];
        }
      }
      std::vector<float> scale = RandomVec(static_cast<size_t>(m * n), 83);
      for (size_t i = 0; i < scale.size(); i += 5) {
        scale[i] = specials[(i / 5) % std::size(specials)];
      }
      const size_t packed_floats =
          static_cast<size_t>(gemm::PackedBPanelFloats(k, n));
      std::vector<float> packed(packed_floats, -9.0f);
      std::vector<float> packed_t(packed_floats, -7.0f);
      gemm::PackB(b.data(), k, n, packed.data());
      gemm::PackBTransposed(bt.data(), k, n, packed_t.data());
      EXPECT_EQ(FirstBitDifference(packed_t, packed), -1);

      std::vector<float> product(static_cast<size_t>(m * n));
      gemm::GemmPrepacked(a.data(), packed.data(), product.data(), m, k, n,
                          nullptr, gemm::Activation::kIdentity, nullptr);
      const Tensor want_t =
          Mul(Tensor({m, n}, product), Tensor({m, n}, scale));
      const std::vector<float> want(want_t.data(),
                                    want_t.data() + want_t.numel());
      for (int64_t threads : {1, 2, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        runtime::ScopedThreads scoped(threads);
        std::vector<float> got(want.size(), -99.0f);
        gemm::GemmScaledPrepacked(a.data(), packed_t.data(), scale.data(),
                                  got.data(), m, k, n);
        EXPECT_EQ(FirstBitDifference(got, want), -1);
        std::vector<float> plain(want.size(), -99.0f);
        gemm::GemmScaledPrepacked(a.data(), packed_t.data(), nullptr,
                                  plain.data(), m, k, n);
        EXPECT_EQ(FirstBitDifference(plain, product), -1);
      }
    }
  }
}

// A parallel chunk carries at least 2^15 multiply-adds: row tiles of a small
// GEMM are grouped, down to one inline chunk, while tiles that size or
// larger still go one per chunk. Handing a few-microsecond tile to a pool
// worker costs as much CPU as the tile itself.
TEST(GemmPrepackedEdgeTest, ChunksCarryAtLeastTwoToTheFifteenMacs) {
  struct Case {
    Geometry g;
    int64_t chunks;
  };
  const Case cases[] = {
      {{256, 2, 32}, 1},    // 4 tiles of 4,096 MACs
      {{512, 32, 1}, 1},    // 8 tiles of 2,048 MACs
      {{384, 32, 2}, 1},    // 6 tiles of 4,096 MACs
      {{640, 8, 16}, 3},    // 10 tiles of 8,192 MACs, 4 per chunk
      {{896, 16, 32}, 14},  // 32,768 MACs per tile: one each
      {{130, 300, 45}, 3},  // 3 tiles of 864,000 MACs
  };
  obs::Counter& executed =
      obs::MetricsRegistry::Global().GetCounter("runtime/chunks_executed");
  runtime::ScopedThreads threads(4);
  for (const Case& c : cases) {
    const Geometry& g = c.g;
    SCOPED_TRACE("m=" + std::to_string(g.m) + " k=" + std::to_string(g.k) +
                 " n=" + std::to_string(g.n));
    std::vector<float> a = RandomVec(static_cast<size_t>(g.m * g.k), 61);
    std::vector<float> b = RandomVec(static_cast<size_t>(g.k * g.n), 62);
    std::vector<float> packed(
        static_cast<size_t>(gemm::PackedBPanelFloats(g.k, g.n)));
    gemm::PackB(b.data(), g.k, g.n, packed.data());
    std::vector<float> c_out(static_cast<size_t>(g.m * g.n));
    const int64_t before = executed.value();
    gemm::GemmPrepacked(a.data(), packed.data(), c_out.data(), g.m, g.k, g.n,
                        nullptr, gemm::Activation::kGelu, nullptr);
    EXPECT_EQ(executed.value() - before, c.chunks);
  }
}

// The elementwise counterpart of the GEMM's chunk floor: cheap Map and Zip
// loops carry at least 2^15 elements a chunk, so a mixer-sized product runs
// inline; the exact GELU span keeps 4,096-element chunks.
TEST(ElementwiseChunkTest, CheapLoopsCarryAtLeastTwoToTheFifteenElements) {
  Rng rng(91);
  const Tensor x = Tensor::RandNormal({32, 7, 96, 1}, 0.0f, 1.0f, rng);
  const Tensor mask = Tensor::RandNormal({32, 1, 1, 1}, 0.0f, 1.0f, rng);
  const Tensor big = Tensor::RandNormal({64, 7, 512}, 0.0f, 1.0f, rng);
  const Tensor rows = Tensor::RandNormal({3072, 64}, 0.0f, 1.0f, rng);
  const Tensor bias = Tensor::RandNormal({64}, 0.0f, 1.0f, rng);
  struct Case {
    const char* name;
    std::function<Tensor()> op;
    int64_t chunks;
  };
  const Case cases[] = {
      // DropPath's mask product: 21,504 elements, one chunk.
      {"trailing-run Mul", [&] { return Mul(x, mask); }, 1},
      {"equal-shape Add", [&] { return Add(x, x); }, 1},
      {"MulScalar", [&] { return MulScalar(x, 0.5f); }, 1},
      // 229,376 elements: 7 chunks.
      {"equal-shape Add, large", [&] { return Add(big, big); }, 7},
      // 3,072 rows of 64: 512 rows (32,768 elements) a chunk.
      {"suffix bias Add", [&] { return Add(rows, bias); }, 6},
      // The GELU span: ceil(21,504 / 4,096) chunks.
      {"Gelu", [&] { return Gelu(x); }, 6},
  };
  obs::Counter& executed =
      obs::MetricsRegistry::Global().GetCounter("runtime/chunks_executed");
  runtime::ScopedThreads threads(4);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const int64_t before = executed.value();
    const Tensor out = c.op();
    EXPECT_EQ(executed.value() - before, c.chunks);
  }
}

// gemm::MlpPrepacked against its definition: GemmPrepacked(fc1) into an
// [m, h] buffer, then GemmPrepacked(fc2) from it, memcmp-equal. Every
// shape of m x k x h x n runs all six fc1/fc2 activation pairs; bias
// presence and the thread count (1, 2, 8) rotate across shapes so each value
// of every axis meets each of them. m crosses the 64-row tile, k = 257 and
// h = 300 cross the 256-deep k block, and n covers the narrow panels. The
// 65-row shapes with n in {7, 9} and k = 257, h = 300 or (k, h) = (7, 64)
// also meet a reference that shares no kernel with either side: the scalar
// FmaChain and EpilogueBiasAct composed twice.
TEST(GemmPrepackedEdgeTest, MlpPrepackedMatchesTwoGemmsThroughAHiddenBuffer) {
  const int64_t ms[] = {1, 7, 63, 64, 65, 200};
  const int64_t ks[] = {1, 2, 7, 96, 257};
  const int64_t hs[] = {1, 8, 64, 300};
  const int64_t ns[] = {1, 2, 7, 8, 9, 64};
  const gemm::Activation act1s[] = {gemm::Activation::kGelu,
                                    gemm::Activation::kRelu,
                                    gemm::Activation::kIdentity};
  const gemm::Activation act2s[] = {gemm::Activation::kIdentity,
                                    gemm::Activation::kGelu};
  const int64_t thread_counts[] = {1, 2, 8};
  constexpr float kGuard = -99.0f;
  for (int ti = 0; ti < 3; ++ti) {
    runtime::ScopedThreads threads(thread_counts[ti]);
    for (int mi = 0; mi < 6; ++mi) {
      for (int ki = 0; ki < 5; ++ki) {
        for (int hi = 0; hi < 4; ++hi) {
          for (int ni = 0; ni < 6; ++ni) {
            if ((mi + ki + hi + ni) % 3 != ti) continue;
            const int64_t m = ms[mi], k = ks[ki], h = hs[hi], n = ns[ni];
            const bool scalar_reference =
                m == 65 && (n == 7 || n == 9) &&
                (k == 257 || h == 300 || (k == 7 && h == 64));
            const uint32_t seed = static_cast<uint32_t>(m * 7 + k * 5 + h * 3 + n);
            const std::vector<float> a =
                RandomVec(static_cast<size_t>(m * k), seed, 1.5f);
            const std::vector<float> w1 =
                RandomVec(static_cast<size_t>(k * h), seed + 1);
            const std::vector<float> b1 =
                RandomVec(static_cast<size_t>(h), seed + 2);
            const std::vector<float> w2 =
                RandomVec(static_cast<size_t>(h * n), seed + 3, 0.5f);
            const std::vector<float> b2 =
                RandomVec(static_cast<size_t>(n), seed + 4);
            std::vector<float> packed1(
                static_cast<size_t>(gemm::PackedBPanelFloats(k, h)));
            std::vector<float> packed2(
                static_cast<size_t>(gemm::PackedBPanelFloats(h, n)));
            gemm::PackB(w1.data(), k, h, packed1.data());
            gemm::PackB(w2.data(), h, n, packed2.data());
            for (int combo = 0; combo < 6; ++combo) {
              const gemm::Activation act1 = act1s[combo / 2];
              const gemm::Activation act2 = act2s[combo % 2];
              const int biases = (mi + 2 * ki + hi + ni + combo) % 4;
              const float* bias1 = biases & 1 ? b1.data() : nullptr;
              const float* bias2 = biases & 2 ? b2.data() : nullptr;
              SCOPED_TRACE("m=" + std::to_string(m) + " k=" +
                           std::to_string(k) + " h=" + std::to_string(h) +
                           " n=" + std::to_string(n) + " acts " +
                           std::to_string(static_cast<int>(act1)) + "/" +
                           std::to_string(static_cast<int>(act2)) +
                           " biases " + std::to_string(biases) + " threads " +
                           std::to_string(thread_counts[ti]));
              std::vector<float> hidden(static_cast<size_t>(m * h));
              gemm::GemmPrepacked(a.data(), packed1.data(), hidden.data(), m,
                                  k, h, bias1, act1, nullptr);
              // Eight guard floats past the output must stay untouched.
              std::vector<float> want(static_cast<size_t>(m * n + 8), kGuard);
              gemm::GemmPrepacked(hidden.data(), packed2.data(), want.data(),
                                  m, h, n, bias2, act2, nullptr);
              std::vector<float> got(want.size(), kGuard);
              gemm::MlpPrepacked(a.data(), {packed1.data(), bias1, act1},
                                 {packed2.data(), bias2, act2}, got.data(), m,
                                 k, h, n);
              ASSERT_EQ(FirstBitDifference(got, want), -1);
              if (scalar_reference) {
                std::vector<float> hidden_ref(static_cast<size_t>(m * h));
                for (int64_t i = 0; i < m; ++i) {
                  for (int64_t j = 0; j < h; ++j) {
                    hidden_ref[static_cast<size_t>(i * h + j)] =
                        FmaChain(a, w1, k, h, i, j);
                  }
                }
                gemm::EpilogueBiasAct(hidden_ref.data(), nullptr, m, h, bias1,
                                      act1);
                std::vector<float> scalar(want.size(), kGuard);
                for (int64_t i = 0; i < m; ++i) {
                  for (int64_t j = 0; j < n; ++j) {
                    scalar[static_cast<size_t>(i * n + j)] =
                        FmaChain(hidden_ref, w2, h, n, i, j);
                  }
                }
                gemm::EpilogueBiasAct(scalar.data(), nullptr, m, n, bias2,
                                      act2);
                ASSERT_EQ(FirstBitDifference(got, scalar), -1);
              }
            }
          }
        }
      }
    }
  }
}

// The fused loop's grain is the larger GEMM's, never the one their summed
// multiply-adds would give, so it splits into pool chunks only where one of
// the two separate GemmPrepacked calls would have.
TEST(GemmPrepackedEdgeTest, MlpChunksFollowTheLargerGemm) {
  struct Case {
    int64_t m, k, h, n;
    int64_t chunks;
  };
  const Case cases[] = {
      // 6 tiles of 4,096 + 4,096 MACs: inline, as both GEMMs are (the sum
      // would split them in two).
      {384, 2, 32, 2, 1},
      // offline_fp32's p = 1 MLP: 168 tiles of 4,096 + 4,096 MACs, 8 per
      // chunk, as each GEMM alone (the sum would give 42 chunks).
      {10752, 1, 64, 1, 21},
      // fc1's 8,192-MAC tiles set the grain (4), not fc2's 1,024.
      {640, 8, 16, 1, 3},
  };
  obs::Counter& executed =
      obs::MetricsRegistry::Global().GetCounter("runtime/chunks_executed");
  runtime::ScopedThreads threads(4);
  for (const Case& c : cases) {
    SCOPED_TRACE("m=" + std::to_string(c.m) + " k=" + std::to_string(c.k) +
                 " h=" + std::to_string(c.h) + " n=" + std::to_string(c.n));
    const std::vector<float> a = RandomVec(static_cast<size_t>(c.m * c.k), 81);
    std::vector<float> packed1(
        static_cast<size_t>(gemm::PackedBPanelFloats(c.k, c.h)), 0.5f);
    std::vector<float> packed2(
        static_cast<size_t>(gemm::PackedBPanelFloats(c.h, c.n)), 0.25f);
    std::vector<float> out(static_cast<size_t>(c.m * c.n));
    const int64_t before = executed.value();
    gemm::MlpPrepacked(a.data(),
                       {packed1.data(), nullptr, gemm::Activation::kGelu},
                       {packed2.data(), nullptr, gemm::Activation::kIdentity},
                       out.data(), c.m, c.k, c.h, c.n);
    EXPECT_EQ(executed.value() - before, c.chunks);
  }
}

}  // namespace
}  // namespace msd
