// Unit and property tests for the tensor library.
#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/parallel.h"
#include "tensor/gelu.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

TEST(TensorTest, DefaultConstructedIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, ZerosHasCorrectShapeAndContents) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.at({i, j}), 0.0f);
    }
  }
}

TEST(TensorTest, NegativeAxisAccess) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({2, 2}, 3.5f);
  EXPECT_EQ(t.at({1, 1}), 3.5f);
  Tensor s = Tensor::Scalar(-2.0f);
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.item(), -2.0f);
}

TEST(TensorTest, ArangeContents) {
  Tensor t = Tensor::Arange(5);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(t.at({i}), static_cast<float>(i));
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::Zeros({3});
  Tensor alias = a;
  Tensor deep = a.Clone();
  a.data()[0] = 7.0f;
  EXPECT_EQ(alias.at({0}), 7.0f);
  EXPECT_EQ(deep.at({0}), 0.0f);
}

TEST(TensorTest, ReshapeSharesStorageAndInfersDim) {
  Tensor a = Tensor::Arange(12);
  Tensor b = a.Reshape({3, -1});
  EXPECT_EQ(b.dim(1), 4);
  b.data()[0] = 99.0f;
  EXPECT_EQ(a.at({0}), 99.0f);
}

TEST(TensorTest, ReshapeBadCountDies) {
  Tensor a = Tensor::Arange(12);
  EXPECT_DEATH(a.Reshape({5, 3}), "changes element count");
}

TEST(TensorTest, SetAndAtRoundTrip) {
  Tensor a = Tensor::Zeros({2, 2});
  a.set({0, 1}, 5.0f);
  EXPECT_EQ(a.at({0, 1}), 5.0f);
  EXPECT_EQ(a.at({1, 0}), 0.0f);
}

TEST(TensorTest, RandomFactoriesDeterministic) {
  Rng rng1(42), rng2(42);
  Tensor a = Tensor::RandNormal({4, 4}, 0.0f, 1.0f, rng1);
  Tensor b = Tensor::RandNormal({4, 4}, 0.0f, 1.0f, rng2);
  EXPECT_TRUE(AllClose(a, b, 0.0f, 0.0f));
}

TEST(TensorTest, RandUniformWithinRange) {
  Rng rng(7);
  Tensor a = Tensor::RandUniform({100}, -2.0f, 3.0f, rng);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_GE(a.data()[i], -2.0f);
    EXPECT_LT(a.data()[i], 3.0f);
  }
}

// ---- Elementwise & broadcasting -------------------------------------------

TEST(TensorOpsTest, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 1}), 44.0f);
}

TEST(TensorOpsTest, BroadcastRowVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(TensorOpsTest, BroadcastColumnVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({2, 1}, {100, 200});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 2}), 103.0f);
  EXPECT_EQ(c.at({1, 0}), 204.0f);
}

TEST(TensorOpsTest, BroadcastScalarTensor) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor c = Mul(a, Tensor::Scalar(2.0f));
  EXPECT_EQ(c.at({1, 1}), 8.0f);
}

TEST(TensorOpsTest, BroadcastBothSides) {
  Tensor a({2, 1}, {1, 2});
  Tensor b({1, 3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.at({1, 2}), 32.0f);
}

TEST(TensorOpsTest, IncompatibleBroadcastDies) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 4});
  EXPECT_DEATH(Add(a, b), "not broadcastable");
}

TEST(TensorOpsTest, SubMulDiv) {
  Tensor a({3}, {6, 8, 10});
  Tensor b({3}, {2, 4, 5});
  EXPECT_TRUE(AllClose(Sub(a, b), Tensor({3}, {4, 4, 5})));
  EXPECT_TRUE(AllClose(Mul(a, b), Tensor({3}, {12, 32, 50})));
  EXPECT_TRUE(AllClose(Div(a, b), Tensor({3}, {3, 2, 2})));
}

TEST(TensorOpsTest, MaximumMinimumGreater) {
  Tensor a({3}, {1, 5, 3});
  Tensor b({3}, {2, 4, 3});
  EXPECT_TRUE(AllClose(Maximum(a, b), Tensor({3}, {2, 5, 3})));
  EXPECT_TRUE(AllClose(Minimum(a, b), Tensor({3}, {1, 4, 3})));
  EXPECT_TRUE(AllClose(Greater(a, b), Tensor({3}, {0, 1, 0})));
  EXPECT_TRUE(AllClose(GreaterEqual(a, b), Tensor({3}, {0, 1, 1})));
}

TEST(TensorOpsTest, UnaryOps) {
  Tensor a({4}, {-1.0f, 0.0f, 1.0f, 2.0f});
  EXPECT_TRUE(AllClose(Neg(a), Tensor({4}, {1, 0, -1, -2})));
  EXPECT_TRUE(AllClose(Abs(a), Tensor({4}, {1, 0, 1, 2})));
  EXPECT_TRUE(AllClose(Square(a), Tensor({4}, {1, 0, 1, 4})));
  EXPECT_TRUE(AllClose(Relu(a), Tensor({4}, {0, 0, 1, 2})));
  EXPECT_NEAR(Exp(a).at({3}), std::exp(2.0f), 1e-5f);
  EXPECT_NEAR(Sqrt(Tensor({1}, {9.0f})).at({0}), 3.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(Tensor({1}, {0.0f})).at({0}), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(Tensor({1}, {0.0f})).at({0}), 0.0f, 1e-6f);
}

TEST(TensorOpsTest, GeluKnownValues) {
  // GELU(0) = 0, GELU(x) -> x for large x, GELU(-x) small.
  Tensor x({3}, {0.0f, 10.0f, -10.0f});
  Tensor y = Gelu(x);
  EXPECT_NEAR(y.at({0}), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at({1}), 10.0f, 1e-4f);
  EXPECT_NEAR(y.at({2}), 0.0f, 1e-4f);
  // GELU(1) ~ 0.841345 with exact erf formulation.
  EXPECT_NEAR(Gelu(Tensor({1}, {1.0f})).at({0}), 0.841345f, 1e-5f);
}

// ---- Exact GELU bit identity ----------------------------------------------
// Gelu, GeluGrad and the fused GEMM GELU epilogue, with and without its
// derivative output, run one function (tensor/gelu.h); AVX-512 builds
// vectorize it with a port of glibc 2.36's erff/expf. These tests pin every
// output, bit for bit (NaN by class), to the scalar libm expressions below.

float ScalarGelu(float x) {
  return 0.5f * x * (1.0f + std::erf(x * 0.70710678118654752f));
}

// x * phi_small goes through a volatile so the compiler cannot fuse it into
// the final add: the scalar kernel rounded it (it fused only the exact
// 0.5f * (1 + erf) product, which changes nothing).
float ScalarGeluGrad(float x) {
  const float phi_big = 0.5f * (1.0f + std::erf(x * 0.70710678118654752f));
  const float phi_small = std::exp(-0.5f * x * x) * 0.39894228040143267f;
  const volatile float x_phi_small = x * phi_small;
  return phi_big + x_phi_small;
}

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

uint32_t BitsOf(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

bool SameFloat(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return BitsOf(a) == BitsOf(b);
}

// Inputs go through the kernels in groups of 17 blocks. Block j of a group
// holds kGeluRows rows of width j + 1, so the epilogue meets every tail of
// its 16-float vectors.
constexpr int64_t kGeluRows = 256;
constexpr int64_t kGeluGroup = kGeluRows * (17 * 18 / 2);

struct GeluMismatches {
  std::atomic<int64_t> gelu{0};
  std::atomic<int64_t> grad{0};
  std::atomic<int64_t> epilogue{0};
  std::atomic<int64_t> epilogue_grad{0};
  std::mutex mu;
  std::string first;  // the first few mismatches, for the failure message
};

// Feeds input(0 .. groups * kGeluGroup - 1) through Gelu (in place, via
// GeluInto), GeluGrad and gemm::EpilogueBiasAct(kGelu) (in place), the
// latter once without and once with its GELU' output, blocks in parallel,
// and counts results that differ from the scalar expressions.
template <typename Input>
void CountGeluMismatches(int64_t groups, Input input, GeluMismatches& out) {
  runtime::ParallelFor(0, groups * 17, 1, [&](int64_t bb, int64_t be) {
    for (int64_t block = bb; block < be; ++block) {
      const int64_t width = 1 + block % 17;
      const int64_t start =
          (block / 17) * kGeluGroup + kGeluRows * (width - 1) * width / 2;
      std::vector<float> in(static_cast<size_t>(kGeluRows * width));
      for (size_t i = 0; i < in.size(); ++i) {
        in[i] = input(start + static_cast<int64_t>(i));
      }
      Tensor gelu({kGeluRows, width}, in);
      GeluInto(gelu, gelu);
      const Tensor grad = GeluGrad(Tensor({kGeluRows, width}, in));
      // One epilogue call per row: the epilogue maps all its rows as one
      // span, and a single row makes that span end in a width-1..17 tail.
      std::vector<float> epilogue = in;
      std::vector<float> fused = in;
      std::vector<float> fused_grad(in.size());
      for (int64_t r = 0; r < kGeluRows; ++r) {
        gemm::EpilogueBiasAct(epilogue.data() + r * width, nullptr, 1, width,
                              nullptr, gemm::Activation::kGelu);
        gemm::EpilogueBiasAct(fused.data() + r * width,
                              fused_grad.data() + r * width, 1, width, nullptr,
                              gemm::Activation::kGelu);
      }
      for (size_t i = 0; i < in.size(); ++i) {
        const float x = in[i];
        const float want = ScalarGelu(x);
        const float want_grad = ScalarGeluGrad(x);
        const struct {
          const char* name;
          float got;
          float want;
          std::atomic<int64_t>* count;
        } checks[] = {
            {"Gelu", gelu.data()[i], want, &out.gelu},
            {"GeluGrad", grad.data()[i], want_grad, &out.grad},
            {"EpilogueBiasAct(kGelu)", epilogue[i], want, &out.epilogue},
            {"EpilogueBiasAct(kGelu, gelu_grad) output", fused[i], want,
             &out.epilogue},
            {"EpilogueBiasAct(kGelu, gelu_grad) GELU'", fused_grad[i],
             want_grad, &out.epilogue_grad},
        };
        for (const auto& c : checks) {
          if (SameFloat(c.got, c.want)) continue;
          if (c.count->fetch_add(1) < 8) {
            char line[192];
            std::snprintf(line, sizeof(line), "%s(%a) = %a, scalar %a\n",
                          c.name, x, c.got, c.want);
            std::lock_guard<std::mutex> lock(out.mu);
            out.first += line;
          }
        }
      }
    }
  });
}

// The port reproduces one libm; elsewhere its results may legitimately
// differ from the system's erff/expf by an ulp.
bool IsPortedLibm() {
#if defined(__GLIBC__)
  return std::string(gnu_get_libc_version()) == "2.36";
#else
  return false;
#endif
}

constexpr const char* kNotPortedLibm =
    "needs glibc 2.36, the libm whose erff/expf the vector GELU ports";

// Runs the three spans (tensor/gelu.h) over each length around the
// kernels' 1024-element block, on small-range inputs (|x / sqrt 2| < 0.84375)
// with `specials` scattered at seeded random positions, at most one in eight
// elements per span, until every special has been placed. Each span runs in
// place and out of place; outputs must equal the scalar formulas and the
// floats past the span must stay untouched. Returns the mismatch count and
// appends the first few to `first`.
int64_t CountSpanMismatches(const std::vector<float>& specials,
                            std::string& first) {
  constexpr float kGuard = -7.0f;
  int64_t mismatches = 0;
  auto check = [&](const char* name, const std::vector<float>& in,
                   const std::vector<float>& got, bool grad, int64_t n) {
    for (int64_t i = 0; i < n + 16; ++i) {
      const size_t u = static_cast<size_t>(i);
      const float want = i >= n  ? kGuard
                         : grad ? ScalarGeluGrad(in[u])
                                : ScalarGelu(in[u]);
      if (SameFloat(got[u], want)) continue;
      if (mismatches++ < 8) {
        char line[192];
        std::snprintf(line, sizeof(line), "%s n=%lld [%lld](%a) = %a, want %a\n",
                      name, static_cast<long long>(n),
                      static_cast<long long>(i), i < n ? in[u] : 0.0f,
                      got[u], want);
        first += line;
      }
    }
  };
  Rng rng(2026);
  for (int64_t n : {1023, 1024, 1025, 3 * 1024 + 17}) {
    const int64_t per_span = n / 8;
    for (size_t next = 0; next < specials.size();) {
      std::vector<float> in(static_cast<size_t>(n + 16), kGuard);
      for (int64_t i = 0; i < n; ++i) {
        in[static_cast<size_t>(i)] = rng.Uniform(-1.19f, 1.19f);
      }
      for (int64_t placed = 0; placed < per_span && next < specials.size();
           ++placed, ++next) {
        in[static_cast<size_t>(rng.UniformInt(n))] = specials[next];
      }
      std::vector<float> y(in.size(), kGuard);
      std::vector<float> dy(in.size(), kGuard);
      kernel::GeluSpan(in.data(), y.data(), n);
      check("GeluSpan", in, y, false, n);
      y = in;
      kernel::GeluSpan(y.data(), y.data(), n);
      check("GeluSpan in place", in, y, false, n);
      std::fill(y.begin(), y.end(), kGuard);
      kernel::GeluGradSpan(in.data(), y.data(), n);
      check("GeluGradSpan", in, y, true, n);
      y = in;
      kernel::GeluGradSpan(y.data(), y.data(), n);
      check("GeluGradSpan in place", in, y, true, n);
      std::fill(y.begin(), y.end(), kGuard);
      kernel::GeluAndGradSpan(in.data(), y.data(), dy.data(), n);
      check("GeluAndGradSpan y", in, y, false, n);
      check("GeluAndGradSpan dy", in, dy, true, n);
      y = in;
      std::fill(dy.begin(), dy.end(), kGuard);
      kernel::GeluAndGradSpan(y.data(), y.data(), dy.data(), n);
      check("GeluAndGradSpan in place y", in, y, false, n);
      check("GeluAndGradSpan in place dy", in, dy, true, n);
    }
  }
  return mismatches;
}

// Scrambles the lane order: an odd multiplier is a bijection on 32-bit
// patterns, so consecutive indices land in unrelated |x| ranges and every
// 16-lane vector mixes erf's branches.
float ScrambledPattern(int64_t i) {
  return FloatFromBits(static_cast<uint32_t>(i) * 2654435761u);
}

TEST(TensorOpsTest, GeluKernelsMatchScalarErfFormulas) {
  if (!IsPortedLibm()) GTEST_SKIP() << kNotPortedLibm;
  // Part 1: at least 2^24 scrambled bit patterns.
  GeluMismatches patterns;
  const int64_t groups = ((int64_t{1} << 24) + kGeluGroup - 1) / kGeluGroup;
  CountGeluMismatches(groups, ScrambledPattern, patterns);
  EXPECT_EQ(patterns.gelu.load(), 0) << patterns.first;
  EXPECT_EQ(patterns.grad.load(), 0) << patterns.first;
  EXPECT_EQ(patterns.epilogue.load(), 0) << patterns.first;
  EXPECT_EQ(patterns.epilogue_grad.load(), 0) << patterns.first;

  // Part 2: special values, and the 64 floats either side of each x where
  // x * (1/sqrt 2) crosses one of erff's |u| branch edges, or where
  // GeluGrad's exp argument -x*x/2 crosses expf's underflow cut-offs.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> edges = {0.0f,
                              -0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              std::numeric_limits<float>::min(),
                              -std::numeric_limits<float>::min(),
                              std::numeric_limits<float>::max(),
                              -std::numeric_limits<float>::max(),
                              inf,
                              -inf,
                              std::numeric_limits<float>::quiet_NaN()};
  std::vector<double> crossings;
  for (uint32_t edge : {0x04000000u, 0x31800000u, 0x3f580000u, 0x3fa00000u,
                        0x4036db6eu, 0x40c00000u}) {
    crossings.push_back(FloatFromBits(edge) / double{0.70710678118654752f});
  }
  for (float cut : {0x1.9fe368p6f, 0x1.9d1d9ep6f}) {
    crossings.push_back(std::sqrt(2.0 * cut));
  }
  for (double crossing : crossings) {
    const uint32_t center = BitsOf(static_cast<float>(crossing));
    for (uint32_t bits = center - 64; bits <= center + 64; ++bits) {
      edges.push_back(FloatFromBits(bits));
      edges.push_back(-FloatFromBits(bits));
    }
  }
  GeluMismatches at_edges;
  const int64_t edge_count = static_cast<int64_t>(edges.size());
  const int64_t edge_groups = (edge_count + kGeluGroup - 1) / kGeluGroup;
  CountGeluMismatches(
      edge_groups,
      [&](int64_t i) { return edges[static_cast<size_t>(i % edge_count)]; },
      at_edges);
  EXPECT_EQ(at_edges.gelu.load(), 0) << at_edges.first;
  EXPECT_EQ(at_edges.grad.load(), 0) << at_edges.first;
  EXPECT_EQ(at_edges.epilogue.load(), 0) << at_edges.first;
  EXPECT_EQ(at_edges.epilogue_grad.load(), 0) << at_edges.first;

  // Part 3: the same inputs scattered among small-range values, through
  // spans that cross the kernels' 1024-element block.
  std::string first_span;
  EXPECT_EQ(CountSpanMismatches(edges, first_span), 0) << first_span;
}

// All 2^32 bit patterns (about five minutes on 4 threads). tools/check.sh's
// release leg runs it with --gtest_also_run_disabled_tests, and fails when
// the lane count printed here is 1 on a CPU with AVX-512F and DQ: the sweep
// would then compare the scalar loop with itself.
TEST(TensorOpsTest, DISABLED_GeluKernelsExhaustive) {
  std::printf("gelu lanes: %d\n", kernel::kGeluLanes);
  if (!IsPortedLibm()) GTEST_SKIP() << kNotPortedLibm;
  GeluMismatches all;
  // Index i feeds pattern (uint32) i * odd; the last group wraps around, so
  // every pattern is covered at least once.
  const int64_t groups = ((int64_t{1} << 32) + kGeluGroup - 1) / kGeluGroup;
  CountGeluMismatches(groups, ScrambledPattern, all);
  EXPECT_EQ(all.gelu.load(), 0) << all.first;
  EXPECT_EQ(all.grad.load(), 0) << all.first;
  EXPECT_EQ(all.epilogue.load(), 0) << all.first;
  EXPECT_EQ(all.epilogue_grad.load(), 0) << all.first;
  std::printf("gelu mismatches over 2^32 patterns: Gelu %lld, GeluGrad %lld, "
              "epilogue %lld, epilogue GELU' %lld\n",
              static_cast<long long>(all.gelu.load()),
              static_cast<long long>(all.grad.load()),
              static_cast<long long>(all.epilogue.load()),
              static_cast<long long>(all.epilogue_grad.load()));
}

TEST(TensorOpsTest, ClampBounds) {
  Tensor a({4}, {-5, 0, 5, 10});
  EXPECT_TRUE(AllClose(Clamp(a, -1.0f, 6.0f), Tensor({4}, {-1, 0, 5, 6})));
}

// ---- MatMul -----------------------------------------------------------------

TEST(TensorOpsTest, MatMul2D) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(TensorOpsTest, MatMulIdentity) {
  Rng rng(3);
  Tensor a = Tensor::RandNormal({5, 5}, 0, 1, rng);
  Tensor eye = Tensor::Zeros({5, 5});
  for (int64_t i = 0; i < 5; ++i) eye.set({i, i}, 1.0f);
  EXPECT_TRUE(AllClose(MatMul(a, eye), a));
  EXPECT_TRUE(AllClose(MatMul(eye, a), a));
}

TEST(TensorOpsTest, MatMulBatched) {
  // Two independent 2x2 systems in one batch.
  Tensor a({2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
  Tensor b({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(c.at({0, 0, 0}), 1.0f);
  EXPECT_EQ(c.at({0, 1, 1}), 4.0f);
  EXPECT_EQ(c.at({1, 0, 0}), 10.0f);
  EXPECT_EQ(c.at({1, 1, 1}), 16.0f);
}

TEST(TensorOpsTest, MatMulBroadcastBatch) {
  // [2,2,3] x [3,2] broadcasts rhs across the batch.
  Rng rng(11);
  Tensor a = Tensor::RandNormal({2, 2, 3}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({3, 2}, 0, 1, rng);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  // Check batch 1 equals the standalone 2D product.
  Tensor a1 = Slice(a, 0, 1, 1).Reshape({2, 3});
  EXPECT_TRUE(AllClose(Slice(c, 0, 1, 1).Reshape({2, 2}), MatMul(a1, b)));
}

TEST(TensorOpsTest, MatMulInnerDimMismatchDies) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({4, 2});
  EXPECT_DEATH(MatMul(a, b), "inner dims mismatch");
}

TEST(TensorOpsTest, MatMulExMatchesComposedOps) {
  // The fused epilogue must agree with MatMul + Add + activation composed
  // from separate kernels. Tolerance, not memcmp: the fused path may
  // contract the bias add differently under -ffp-contract.
  Rng rng(19);
  Tensor a = Tensor::RandNormal({3, 5, 20}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({20, 8}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({8}, 0, 1, rng);
  Tensor base = Add(MatMul(a, b), bias);
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kIdentity), base, 1e-5f));
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kRelu), Relu(base), 1e-5f));
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kGelu), Gelu(base), 1e-5f));
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kTanh), Tanh(base), 1e-5f));
  EXPECT_TRUE(AllClose(MatMulEx(a, b, bias, gemm::Activation::kSigmoid),
                       Sigmoid(base), 1e-5f));
  // Without a bias the fused product reduces to plain MatMul exactly.
  Tensor plain = MatMulEx(a, b, Tensor(), gemm::Activation::kIdentity);
  EXPECT_TRUE(AllClose(plain, MatMul(a, b), 0.0f, 0.0f));
}

TEST(TensorOpsTest, MatMulExBiasShapeMismatchDies) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({3, 4});
  Tensor bias = Tensor::Zeros({5});
  EXPECT_DEATH(MatMulEx(a, b, bias, gemm::Activation::kIdentity), "bias");
}

// ---- Reductions --------------------------------------------------------------

TEST(TensorOpsTest, SumAllAndMeanAll) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(SumAll(a).item(), 21.0f);
  EXPECT_NEAR(MeanAll(a).item(), 3.5f, 1e-6f);
}

TEST(TensorOpsTest, SumAlongDim) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(a, {0}, /*keepdim=*/false);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_TRUE(AllClose(s0, Tensor({3}, {5, 7, 9})));
  Tensor s1 = Sum(a, {1}, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_TRUE(AllClose(s1, Tensor({2, 1}, {6, 15})));
}

TEST(TensorOpsTest, SumMultipleDims) {
  Tensor a = Tensor::Ones({2, 3, 4});
  Tensor s = Sum(a, {0, 2}, /*keepdim=*/false);
  EXPECT_EQ(s.shape(), (Shape{3}));
  EXPECT_TRUE(AllClose(s, Tensor::Full({3}, 8.0f)));
}

TEST(TensorOpsTest, SumNegativeDim) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(Sum(a, {-1}, false), Tensor({2}, {6, 15})));
}

TEST(TensorOpsTest, MeanAlongDim) {
  Tensor a({2, 2}, {1, 3, 5, 7});
  EXPECT_TRUE(AllClose(Mean(a, {1}, false), Tensor({2}, {2, 6})));
}

TEST(TensorOpsTest, MaxReduceAndArgMax) {
  Tensor a({2, 3}, {1, 9, 3, 8, 2, 7});
  Tensor mx = MaxReduce(a, 1, false);
  EXPECT_TRUE(AllClose(mx, Tensor({2}, {9, 8})));
  Tensor am = ArgMax(a, 1);
  EXPECT_TRUE(AllClose(am, Tensor({2}, {1, 0})));
}

TEST(TensorOpsTest, ArgMaxTieBreaksLow) {
  Tensor a({1, 3}, {5, 5, 5});
  EXPECT_EQ(ArgMax(a, 1).at({0}), 0.0f);
}

// ---- Movement ------------------------------------------------------------------

TEST(TensorOpsTest, PermuteMatchesManualTranspose) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Permute(a, {1, 0});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.at({j, i}), a.at({i, j}));
    }
  }
}

TEST(TensorOpsTest, Permute3D) {
  Rng rng(5);
  Tensor a = Tensor::RandNormal({2, 3, 4}, 0, 1, rng);
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(p.at({3, 1, 2}), a.at({1, 2, 3}));
}

TEST(TensorOpsTest, PermuteRoundTrip) {
  Rng rng(6);
  Tensor a = Tensor::RandNormal({3, 4, 5}, 0, 1, rng);
  Tensor p = Permute(a, {1, 2, 0});
  Tensor back = Permute(p, {2, 0, 1});
  EXPECT_TRUE(AllClose(back, a, 0.0f, 0.0f));
}

TEST(TensorOpsTest, TransposeSwapsAxes) {
  Rng rng(9);
  Tensor a = Tensor::RandNormal({2, 3, 4}, 0, 1, rng);
  Tensor t = Transpose(a, -1, -2);
  EXPECT_EQ(t.shape(), (Shape{2, 4, 3}));
  EXPECT_EQ(t.at({1, 3, 2}), a.at({1, 2, 3}));
}

// Input bits for the permute test: every element distinct, covering -0,
// signaling and negative quiet NaNs with payloads, and subnormals of both
// signs, so a permute that computes instead of moving bits shows.
std::vector<uint32_t> PermuteTestBits(int64_t numel) {
  std::vector<uint32_t> bits(static_cast<size_t>(numel));
  for (int64_t i = 0; i < numel; ++i) {
    const uint32_t u = static_cast<uint32_t>(i);
    switch (i % 6) {
      case 0: bits[static_cast<size_t>(i)] = 0x3f800000u + u; break;
      case 1: bits[static_cast<size_t>(i)] = 0x7f800000u | (u + 1); break;
      case 2: bits[static_cast<size_t>(i)] = 0xffc00000u | u; break;
      case 3: bits[static_cast<size_t>(i)] = u + 1; break;
      case 4: bits[static_cast<size_t>(i)] = 0x80000000u | (u + 1); break;
      default:
        bits[static_cast<size_t>(i)] = i == 5 ? 0x80000000u : 0xc0000000u + u;
    }
  }
  return bits;
}

// out[i] = in[offset of i's input index], by division per output element:
// the definition of a permute, independent of PermuteInto's canonical
// form, transposes and odometer.
std::vector<uint32_t> ScalarPermute(const std::vector<uint32_t>& in,
                                    const Shape& shape,
                                    const std::vector<int64_t>& perm) {
  const size_t rank = shape.size();
  std::vector<int64_t> strides(rank, 1);
  for (size_t a = rank; a-- > 1;) strides[a - 1] = strides[a] * shape[a];
  std::vector<uint32_t> out(in.size());
  for (size_t i = 0; i < out.size(); ++i) {
    int64_t rest = static_cast<int64_t>(i);
    int64_t off = 0;
    for (size_t axis = rank; axis-- > 0;) {
      const size_t from = static_cast<size_t>(perm[axis]);
      off += rest % shape[from] * strides[from];
      rest /= shape[from];
    }
    out[i] = in[static_cast<size_t>(off)];
  }
  return out;
}

// Permute (PermuteInto's memcpy, blocked transpose and gather paths) equals
// the scalar index loop bit for bit: all 24 orders of rank-4 shapes with
// extents from {1, 2, 7, 8, 9, 17} and a size-1 axis in every position; the
// serving plan's four axis-MLP permutes of [rows, 7, L', p] (p in {96, 48,
// 24, 2, 1}, L' = 96 / p, at 1 and 32 rows) and back; and rank-5 swaps with
// a run of axes between the swapped pair, with and without a trailing run.
// At 1, 2 and 8 threads.
TEST(TensorOpsTest, PermuteFastPathsMatchScalarGather) {
  std::vector<std::pair<Shape, std::vector<int64_t>>> cases;
  const Shape rank4[] = {{1, 7, 8, 9},   {7, 1, 9, 17}, {2, 17, 1, 8},
                         {9, 8, 7, 1},   {1, 9, 1, 17}, {8, 9, 17, 2},
                         {17, 2, 9, 7},  {7, 8, 2, 9},  {9, 17, 8, 8}};
  for (const Shape& shape : rank4) {
    std::vector<int64_t> perm = {0, 1, 2, 3};
    do {
      cases.push_back({shape, perm});
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  for (int64_t rows : {1, 32}) {
    for (int64_t p : {96, 48, 24, 2, 1}) {
      const Shape shape = {rows, 7, 96 / p, p};
      for (const std::vector<int64_t>& perm :
           {std::vector<int64_t>{0, 3, 2, 1}, std::vector<int64_t>{0, 1, 3, 2}}) {
        cases.push_back({shape, perm});
        // The way back: the swap again, from the permuted shape.
        Shape moved(4);
        for (size_t i = 0; i < 4; ++i) {
          moved[i] = shape[static_cast<size_t>(perm[i])];
        }
        cases.push_back({moved, perm});
      }
    }
  }
  cases.push_back({{2, 9, 3, 5, 17}, {0, 4, 2, 3, 1}});
  cases.push_back({{3, 17, 2, 5, 9}, {0, 3, 2, 1, 4}});
  cases.push_back({{5, 9, 1, 3, 8}, {3, 1, 2, 0, 4}});
  for (int64_t threads : {1, 2, 8}) {
    runtime::ScopedThreads scoped(threads);
    for (const auto& [shape, perm] : cases) {
      SCOPED_TRACE(ShapeToString(shape) + " perm " + ShapeToString(perm) +
                   " threads " + std::to_string(threads));
      const int64_t numel = NumElementsOf(shape);
      const std::vector<uint32_t> bits = PermuteTestBits(numel);
      Tensor a = Tensor::Uninitialized(shape);
      std::memcpy(a.data(), bits.data(), bits.size() * sizeof(uint32_t));
      const Tensor got = Permute(a, perm);
      const std::vector<uint32_t> want = ScalarPermute(bits, shape, perm);
      ASSERT_EQ(got.numel(), numel);
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(uint32_t)),
                0);
    }
  }
}

TEST(TensorOpsTest, SliceMiddle) {
  Tensor a = Tensor::Arange(10).Reshape({2, 5});
  Tensor s = Slice(a, 1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 3}));
  EXPECT_TRUE(AllClose(s, Tensor({2, 3}, {1, 2, 3, 6, 7, 8})));
}

TEST(TensorOpsTest, SliceOutOfRangeDies) {
  Tensor a = Tensor::Zeros({2, 5});
  EXPECT_DEATH(Slice(a, 1, 3, 3), "out of range");
}

TEST(TensorOpsTest, ConcatAlongDim) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 1}, {9, 10});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {1, 2, 9, 3, 4, 10})));
}

TEST(TensorOpsTest, ConcatThenSliceRoundTrip) {
  Rng rng(10);
  Tensor a = Tensor::RandNormal({2, 3, 4}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({2, 5, 4}, 0, 1, rng);
  Tensor c = Concat({a, b}, 1);
  EXPECT_TRUE(AllClose(Slice(c, 1, 0, 3), a, 0.0f, 0.0f));
  EXPECT_TRUE(AllClose(Slice(c, 1, 3, 5), b, 0.0f, 0.0f));
}

TEST(TensorOpsTest, PadFrontBack) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor p = Pad(a, 1, 2, 1, 0.0f);
  EXPECT_EQ(p.shape(), (Shape{1, 6}));
  EXPECT_TRUE(AllClose(p, Tensor({1, 6}, {0, 0, 1, 2, 3, 0})));
}

TEST(TensorOpsTest, PadWithValue) {
  Tensor a({2}, {1, 2});
  Tensor p = Pad(a, 0, 1, 0, -7.0f);
  EXPECT_TRUE(AllClose(p, Tensor({3}, {-7, 1, 2})));
}

// ---- Softmax & helpers -----------------------------------------------------------

TEST(TensorOpsTest, SoftmaxSumsToOne) {
  Rng rng(12);
  Tensor a = Tensor::RandNormal({4, 7}, 0, 3, rng);
  Tensor s = Softmax(a, 1);
  Tensor sums = Sum(s, {1}, false);
  EXPECT_TRUE(AllClose(sums, Tensor::Ones({4}), 1e-5f, 1e-5f));
}

TEST(TensorOpsTest, SoftmaxStableForLargeInputs) {
  Tensor a({1, 2}, {1000.0f, 1001.0f});
  Tensor s = Softmax(a, 1);
  EXPECT_FALSE(HasNonFinite(s));
  EXPECT_GT(s.at({0, 1}), s.at({0, 0}));
}

TEST(TensorOpsTest, ExpandToAndReduceToInverse) {
  Tensor a({2, 1}, {3, 4});
  Tensor e = ExpandTo(a, {2, 5});
  EXPECT_EQ(e.shape(), (Shape{2, 5}));
  EXPECT_EQ(e.at({1, 4}), 4.0f);
  Tensor r = ReduceTo(Tensor::Ones({2, 5}), {2, 1});
  EXPECT_TRUE(AllClose(r, Tensor({2, 1}, {5, 5})));
}

TEST(TensorOpsTest, ReduceToDropsLeadingDims) {
  Tensor t = Tensor::Ones({4, 2, 3});
  Tensor r = ReduceTo(t, {2, 3});
  EXPECT_TRUE(AllClose(r, Tensor::Full({2, 3}, 4.0f)));
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// A prefix Sum (a bias gradient's reduction) adds its blocks in ascending
// order from +0 for every output, whatever the chunking and thread count.
TEST(TensorOpsTest, PrefixSumMatchesAscendingBlockLoop) {
  constexpr int64_t kReduced = 21504;  // 32 windows x 96 x 7 channels
  Rng rng(41);
  for (int64_t kept : {1, 7, 16, 32, 33}) {
    Tensor a = Tensor::RandNormal({kReduced, kept}, 0, 1, rng);
    Tensor expected = Tensor::Uninitialized({kept});
    for (int64_t i = 0; i < kept; ++i) {
      float acc = 0.0f;
      for (int64_t r = 0; r < kReduced; ++r) acc += a.data()[r * kept + i];
      expected.data()[i] = acc;
    }
    for (int64_t threads : {1, 2, 8}) {
      runtime::ScopedThreads scoped(threads);
      EXPECT_TRUE(BitIdentical(Sum(a, {0}, false), expected))
          << "kept " << kept << ", threads " << threads;
      EXPECT_TRUE(BitIdentical(
          Sum(a.Reshape({32, kReduced / 32, kept}), {0, 1}, false), expected))
          << "kept " << kept << ", threads " << threads << ", two axes";
    }
  }
}

// Uniform values in [-1, 1) with about one entry in eight replaced by +0, -0
// or a value near 1e-30, whose products underflow to a signed zero: some
// batch partials round to -0, and adding them to the +0 start must give +0
// as the prefix Sum does.
Tensor WithSignedZeros(Shape shape, Rng& rng) {
  Tensor t = Tensor::RandUniform(std::move(shape), -1.0f, 1.0f, rng);
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    switch (rng.UniformInt(24)) {
      case 0: p[i] = 0.0f; break;
      case 1: p[i] = -0.0f; break;
      case 2: p[i] *= 1e-30f; break;
      default: break;
    }
  }
  return t;
}

struct WeightGradCase {
  Shape lead;  // leading dims of a and g: rank 3 or rank 4 inputs
  int64_t y, k, n;
};

std::vector<WeightGradCase> WeightGradCases() {
  const int64_t widths[] = {1, 2, 7, 8, 9, 16, 17, 32, 96};
  std::vector<WeightGradCase> cases;
  // Every (k, n) pair at 1 and 3 batches; y = 257 crosses the GEMM's kKc.
  for (int64_t y : {1, 2, 7, 96, 257}) {
    for (int64_t k : widths) {
      for (int64_t n : widths) {
        for (Shape lead : {Shape{1}, Shape{3}, Shape{1, 1}, Shape{3, 1}}) {
          cases.push_back({lead, y, k, n});
        }
      }
    }
  }
  // 224 batches (32 windows x 7 channels): every width on each side at
  // short y, and MSD-Mixer's channel (k = 7) and one-patch (k = 1) fc1 and
  // fc2 up to y = 96.
  for (int64_t y : {1, 2, 7}) {
    for (size_t i = 0; i < std::size(widths); ++i) {
      const int64_t k = widths[i];
      const int64_t n = widths[std::size(widths) - 1 - i];
      cases.push_back({{224}, y, k, n});
      cases.push_back({{32, 7}, y, n, k});
    }
  }
  const std::pair<int64_t, int64_t> mixer_shapes[] = {
      {7, 32}, {32, 7}, {1, 32}, {32, 1}};
  for (int64_t y : {1, 96}) {
    for (const auto& [k, n] : mixer_shapes) cases.push_back({{32, 7}, y, k, n});
  }
  return cases;
}

TEST(LinearWeightGradTest, MatchesPerBatchMatMulThenReduceBitForBit) {
  const std::vector<WeightGradCase> cases = WeightGradCases();
  for (int64_t threads : {1, 2, 8}) {
    runtime::ScopedThreads scoped(threads);
    Rng rng(43);
    int64_t mismatches = 0;
    for (const WeightGradCase& c : cases) {
      Shape a_shape = c.lead;
      Shape g_shape = c.lead;
      a_shape.insert(a_shape.end(), {c.y, c.k});
      g_shape.insert(g_shape.end(), {c.y, c.n});
      const Tensor a = WithSignedZeros(a_shape, rng);
      const Tensor g = WithSignedZeros(g_shape, rng);
      const Tensor expected =
          ReduceTo(MatMul(Transpose(a, -1, -2), g), {c.k, c.n});
      if (BitIdentical(LinearWeightGrad(a, g), expected)) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << "a " << ShapeToString(a_shape) << ", g "
                      << ShapeToString(g_shape) << ", threads " << threads;
      }
    }
    EXPECT_EQ(mismatches, 0) << "of " << cases.size() << " cases at "
                             << threads << " threads";
  }
}

TEST(LinearWeightGradTest, SignedZeroPartialsAddToPositiveZero) {
  // Each batch's only product underflows to -0, so every partial is -0; the
  // +0 start of the batch sum makes the gradient +0, exactly as the prefix
  // Sum over per-batch products does.
  Tensor a = Tensor::Full({3, 1, 2}, -1e-30f);
  Tensor g = Tensor::Full({3, 1, 2}, 1e-30f);
  Tensor dw = LinearWeightGrad(a, g);
  EXPECT_TRUE(BitIdentical(
      dw, ReduceTo(MatMul(Transpose(a, -1, -2), g), {2, 2})));
  for (int64_t i = 0; i < dw.numel(); ++i) {
    EXPECT_FALSE(std::signbit(dw.data()[i])) << "element " << i;
  }
}

// The bias gradient from the weight-gradient pass: where SharedWeightGrad
// streams g's rows as vectors (n a multiple of 8, or k * ceil(n / 8) <=
// n * ceil(k / 8)), LinearWeightGrad hands back the prefix Sum of g over
// every leading row, bit for bit, with the same weight gradient; elsewhere
// it leaves the sums undefined. An all-(-0) column sums to +0 from the +0
// start, as the prefix Sum's does. At 1, 2 and 8 threads.
TEST(LinearWeightGradTest, ColumnSumsMatchPrefixSum) {
  const std::vector<WeightGradCase> cases = WeightGradCases();
  for (int64_t threads : {1, 2, 8}) {
    runtime::ScopedThreads scoped(threads);
    Rng rng(47);
    int64_t mismatches = 0;
    int64_t summed = 0;
    for (const WeightGradCase& c : cases) {
      Shape a_shape = c.lead;
      Shape g_shape = c.lead;
      a_shape.insert(a_shape.end(), {c.y, c.k});
      g_shape.insert(g_shape.end(), {c.y, c.n});
      const Tensor a = WithSignedZeros(a_shape, rng);
      Tensor g = WithSignedZeros(g_shape, rng);
      // The last column holds only -0.
      for (int64_t r = 0; r < g.numel() / c.n; ++r) {
        g.data()[r * c.n + c.n - 1] = -0.0f;
      }
      Tensor sums;
      const Tensor dw = LinearWeightGrad(a, g, &sums);
      const bool along_n =
          c.k * ((c.n + 7) / 8) <= c.n * ((c.k + 7) / 8);
      bool ok = BitIdentical(dw, LinearWeightGrad(a, g)) &&
                sums.defined() == along_n;
      if (sums.defined()) {
        ++summed;
        ok = ok && BitIdentical(sums, ReduceTo(g, {c.n})) &&
             !std::signbit(sums.data()[c.n - 1]);
      }
      if (ok) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << "a " << ShapeToString(a_shape) << ", g "
                      << ShapeToString(g_shape) << ", threads " << threads;
      }
    }
    EXPECT_EQ(mismatches, 0) << "of " << cases.size() << " cases at "
                             << threads << " threads";
    EXPECT_GT(summed, 0);
  }
}

// ---- Contiguous-run broadcasts -----------------------------------------------

// f(a, b) by broadcasting's definition, one output element at a time.
template <typename F>
Tensor ReferenceZip(const Tensor& a, const Tensor& b, F f) {
  const Shape shape = BroadcastShapes(a.shape(), b.shape());
  const int64_t rank = static_cast<int64_t>(shape.size());
  Tensor out = Tensor::Uninitialized(shape);
  std::vector<int64_t> index(shape.size());
  const auto offset = [&](const Tensor& t) {
    int64_t off = 0;
    for (int64_t d = 0; d < t.rank(); ++d) {
      const int64_t i = index[static_cast<size_t>(rank - t.rank() + d)];
      off = off * t.dim(d) + (t.dim(d) == 1 ? 0 : i);
    }
    return off;
  };
  for (int64_t i = 0; i < out.numel(); ++i) {
    int64_t rest = i;
    for (int64_t d = rank - 1; d >= 0; --d) {
      index[static_cast<size_t>(d)] = rest % shape[static_cast<size_t>(d)];
      rest /= shape[static_cast<size_t>(d)];
    }
    out.data()[i] = f(a.data()[offset(a)], b.data()[offset(b)]);
  }
  return out;
}

constexpr auto kSub = [](float x, float y) { return x - y; };
constexpr auto kMul = [](float x, float y) { return x * y; };
constexpr auto kDiv = [](float x, float y) { return x / y; };

// An operand whose shape is the other's with trailing dims set to 1 pairs
// each element with one contiguous run; the results carry broadcasting's
// bits in both argument orders (Sub and Div, where the order matters), at
// 1, 2 and 8 threads. Shapes that take another path keep theirs too.
TEST(BroadcastRunTest, MatchesScalarBroadcastReference) {
  struct Case {
    Shape small, big;
    int64_t run;  // kernel::TrailingRunLength; 0 = another path
  };
  const Case cases[] = {
      {{32, 1, 1, 1}, {32, 7, 96, 1}, 672},  // DropPath's per-sample mask
      {{32, 7, 1}, {32, 7, 96}, 96},         // RevIN's per-series statistics
      {{5, 2, 1, 1}, {5, 2, 3, 4}, 12},
      {{3, 1}, {3, 5}, 5},
      {{1, 1, 1}, {2, 3, 4}, 24},  // one run
      {{4, 1, 96}, {4, 7, 96}, 0},  // a middle broadcast
      {{7, 1}, {4, 7, 96}, 0},      // unequal ranks
      {{4, 7, 96}, {4, 7, 96}, 0},  // equal shapes
  };
  Rng rng(53);
  for (const Case& c : cases) {
    SCOPED_TRACE(ShapeToString(c.small) + " with " + ShapeToString(c.big));
    EXPECT_EQ(kernel::TrailingRunLength(c.small, c.big), c.run);
    const Tensor small = Tensor::RandNormal(c.small, 0, 1, rng);
    const Tensor big = Tensor::RandNormal(c.big, 0, 1, rng);
    const Tensor want[] = {
        ReferenceZip(big, small, kSub), ReferenceZip(small, big, kSub),
        ReferenceZip(big, small, kDiv), ReferenceZip(small, big, kDiv),
        ReferenceZip(big, small, kMul)};
    for (int64_t threads : {1, 2, 8}) {
      runtime::ScopedThreads scoped(threads);
      EXPECT_TRUE(BitIdentical(Sub(big, small), want[0])) << threads;
      EXPECT_TRUE(BitIdentical(Sub(small, big), want[1])) << threads;
      EXPECT_TRUE(BitIdentical(Div(big, small), want[2])) << threads;
      EXPECT_TRUE(BitIdentical(Div(small, big), want[3])) << threads;
      EXPECT_TRUE(BitIdentical(Mul(small, big), want[4])) << threads;
    }
  }
}

// The output may be the big operand itself (the planner's in-place reuse):
// every element is read before it is written, whichever side is small.
TEST(BroadcastRunTest, InPlaceOnTheBigOperand) {
  Rng rng(59);
  const Tensor small = Tensor::RandNormal({32, 1, 1, 1}, 0, 1, rng);
  const Tensor big = Tensor::RandNormal({32, 7, 96, 1}, 0, 1, rng);
  for (int64_t threads : {1, 2, 8}) {
    runtime::ScopedThreads scoped(threads);
    Tensor out = big.Clone();
    MulInto(out, small, out);
    EXPECT_TRUE(BitIdentical(out, ReferenceZip(big, small, kMul))) << threads;
    out = big.Clone();
    MulInto(small, out, out);
    EXPECT_TRUE(BitIdentical(out, ReferenceZip(small, big, kMul))) << threads;
  }
}

TEST(TensorOpsTest, HasNonFiniteDetectsNaN) {
  Tensor a({2}, {1.0f, std::numeric_limits<float>::quiet_NaN()});
  EXPECT_TRUE(HasNonFinite(a));
  EXPECT_FALSE(HasNonFinite(Tensor::Ones({3})));
}

// ---- Property-style sweeps --------------------------------------------------------

class BroadcastSweep
    : public ::testing::TestWithParam<std::tuple<Shape, Shape>> {};

TEST_P(BroadcastSweep, AddCommutes) {
  const auto& [sa, sb] = GetParam();
  Rng rng(17);
  Tensor a = Tensor::RandNormal(sa, 0, 1, rng);
  Tensor b = Tensor::RandNormal(sb, 0, 1, rng);
  EXPECT_TRUE(AllClose(Add(a, b), Add(b, a), 0.0f, 0.0f));
}

TEST_P(BroadcastSweep, MulDistributesOverAdd) {
  const auto& [sa, sb] = GetParam();
  Rng rng(18);
  Tensor a = Tensor::RandNormal(sa, 0, 1, rng);
  Tensor b = Tensor::RandNormal(sb, 0, 1, rng);
  Tensor c = Tensor::RandNormal(sb, 0, 1, rng);
  Tensor lhs = Mul(a, Add(b, c));
  Tensor rhs = Add(Mul(a, b), Mul(a, c));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-5f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(std::make_tuple(Shape{3}, Shape{3}),
                      std::make_tuple(Shape{2, 3}, Shape{3}),
                      std::make_tuple(Shape{2, 3}, Shape{1, 3}),
                      std::make_tuple(Shape{2, 1, 4}, Shape{3, 1}),
                      std::make_tuple(Shape{5, 1}, Shape{1, 7}),
                      std::make_tuple(Shape{2, 3, 4}, Shape{2, 3, 4})));

class MatMulSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatMulSweep, MatchesNaiveTripleLoop) {
  const auto& [m, k, n] = GetParam();
  Rng rng(19);
  Tensor a = Tensor::RandNormal({m, k}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({k, n}, 0, 1, rng);
  Tensor c = MatMul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += a.at({i, kk}) * b.at({kk, j});
      EXPECT_NEAR(c.at({i, j}), acc, 1e-4f);
    }
  }
}

TEST_P(MatMulSweep, AssociativeWithVector) {
  const auto& [m, k, n] = GetParam();
  Rng rng(20);
  Tensor a = Tensor::RandNormal({m, k}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({k, n}, 0, 1, rng);
  Tensor v = Tensor::RandNormal({n, 1}, 0, 1, rng);
  Tensor lhs = MatMul(MatMul(a, b), v);
  Tensor rhs = MatMul(a, MatMul(b, v));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulSweep,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(7, 5, 3),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(1, 8, 1)));

class ReductionSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ReductionSweep, SumOverEachAxisMatchesTotal) {
  const Shape shape = GetParam();
  Rng rng(21);
  Tensor a = Tensor::RandNormal(shape, 0, 1, rng);
  const float total = SumAll(a).item();
  for (int64_t d = 0; d < a.rank(); ++d) {
    EXPECT_NEAR(SumAll(Sum(a, {d}, false)).item(), total, 1e-3f);
  }
}

TEST_P(ReductionSweep, PermutePreservesSum) {
  const Shape shape = GetParam();
  Rng rng(22);
  Tensor a = Tensor::RandNormal(shape, 0, 1, rng);
  std::vector<int64_t> perm(shape.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::reverse(perm.begin(), perm.end());
  EXPECT_NEAR(SumAll(Permute(a, perm)).item(), SumAll(a).item(), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReductionSweep,
                         ::testing::Values(Shape{4}, Shape{2, 5}, Shape{3, 4, 5},
                                           Shape{2, 3, 4, 5}));

}  // namespace
}  // namespace msd
