// Unit tests for the autograd engine, including numerical gradient checks
// (central finite differences) for every differentiable op.
#include "autograd/ops.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

// Checks analytic gradients of `f` (a scalar-valued function of one leaf)
// against central finite differences at `x0`.
void ExpectGradMatchesNumeric(
    const std::function<Variable(const Variable&)>& f, const Tensor& x0,
    float eps = 1e-2f, float atol = 2e-3f, float rtol = 3e-2f) {
  Variable x(x0.Clone(), /*requires_grad=*/true);
  Variable y = f(x);
  ASSERT_EQ(y.numel(), 1);
  y.Backward();
  ASSERT_TRUE(x.has_grad());
  const Tensor& analytic = x.grad();

  Tensor probe = x0.Clone();
  Variable xp(probe, /*requires_grad=*/false);
  for (int64_t i = 0; i < probe.numel(); ++i) {
    const float saved = probe.data()[i];
    probe.data()[i] = saved + eps;
    const float up = f(xp).item();
    probe.data()[i] = saved - eps;
    const float down = f(xp).item();
    probe.data()[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    const float a = analytic.data()[i];
    EXPECT_NEAR(a, numeric, atol + rtol * std::fabs(numeric))
        << "element " << i;
  }
}

TEST(VariableTest, LeafBasics) {
  Variable v(Tensor::Ones({2, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.shape(), (Shape{2, 2}));
}

TEST(VariableTest, BackwardSimpleChain) {
  // y = sum((2x + 1)^2), dy/dx = 4(2x + 1)
  Variable x(Tensor({3}, {0.0f, 1.0f, -1.0f}), true);
  Variable y = SumAll(Square(AddScalar(MulScalar(x, 2.0f), 1.0f)));
  y.Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor({3}, {4.0f, 12.0f, -4.0f})));
}

TEST(VariableTest, BackwardRequiresScalar) {
  Variable x(Tensor::Ones({3}), true);
  Variable y = MulScalar(x, 2.0f);
  EXPECT_DEATH(y.Backward(), "scalar");
}

TEST(VariableTest, GradientsAccumulateAcrossBackwardCalls) {
  Variable x(Tensor::Ones({2}), true);
  for (int pass = 0; pass < 2; ++pass) {
    Variable y = SumAll(MulScalar(x, 3.0f));
    y.Backward();
  }
  EXPECT_TRUE(AllClose(x.grad(), Tensor::Full({2}, 6.0f)));
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, DiamondDependencyCountsBothPaths) {
  // y = x*x + x, dy/dx = 2x + 1
  Variable x(Tensor({2}, {3.0f, -2.0f}), true);
  Variable y = SumAll(Add(Mul(x, x), x));
  y.Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor({2}, {7.0f, -3.0f})));
}

TEST(VariableTest, DetachStopsGradient) {
  Variable x(Tensor::Ones({2}), true);
  Variable d = x.Detach();
  Variable y = SumAll(Mul(d, d));
  EXPECT_FALSE(y.requires_grad());
  y.Backward();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, NoGradGuardDisablesRecording) {
  Variable x(Tensor::Ones({2}), true);
  {
    NoGradGuard guard;
    Variable y = SumAll(Mul(x, x));
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_TRUE(NoGradGuard::GradEnabled());
}

TEST(VariableTest, NoGradGuardNests) {
  NoGradGuard outer;
  {
    NoGradGuard inner;
    EXPECT_FALSE(NoGradGuard::GradEnabled());
  }
  EXPECT_FALSE(NoGradGuard::GradEnabled());
}

TEST(VariableTest, BroadcastGradReducesToLeafShape) {
  Variable a(Tensor::Ones({2, 3}), true);
  Variable b(Tensor::Ones({3}), true);
  Variable y = SumAll(Add(a, b));
  y.Backward();
  EXPECT_EQ(a.grad().shape(), (Shape{2, 3}));
  EXPECT_EQ(b.grad().shape(), (Shape{3}));
  EXPECT_TRUE(AllClose(b.grad(), Tensor::Full({3}, 2.0f)));
}

TEST(VariableTest, ConstantLeafGetsNoGrad) {
  Variable a(Tensor::Ones({2}), true);
  Variable c(Tensor::Ones({2}), false);
  Variable y = SumAll(Mul(a, c));
  y.Backward();
  EXPECT_TRUE(a.has_grad());
  EXPECT_FALSE(c.has_grad());
}

Tensor TestInput(Shape shape, uint64_t seed, float mean = 0.0f,
                 float stddev = 1.0f) {
  Rng rng(seed);
  return Tensor::RandNormal(std::move(shape), mean, stddev, rng);
}

// ---- Gradients only where an operand reads them ------------------------------

// How far the named global counter moves while `body` runs.
int64_t CounterDelta(const char* name, const std::function<void()>& body) {
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(name);
  const int64_t before = counter.value();
  body();
  return counter.value() - before;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// A Linear's backward runs one product when only one operand requires grad:
// on the rank-2 path and on the batched one-pass weight gradient, fused or
// not. A data input without requires_grad costs no input-gradient GEMM.
TEST(VariableTest, LinearBackwardRunsOnlyTheProductsItReads) {
  for (const Shape& in_shape : {Shape{6, 4}, Shape{2, 3, 6, 4}}) {
    const Tensor xt = TestInput(in_shape, 61);
    const Tensor wt = TestInput({4, 5}, 62);
    const Tensor bt = TestInput({5}, 63);
    for (bool input_requires : {false, true}) {
      SCOPED_TRACE(ShapeToString(in_shape) +
                   (input_requires ? " input only" : " weight only"));
      Variable x(xt, input_requires);
      Variable w(wt, !input_requires);
      Variable bias(bt, !input_requires);
      Variable fused = SumAll(MatMulEx(x, w, bias, gemm::Activation::kGelu));
      EXPECT_EQ(CounterDelta("tensor/matmul_calls", [&] { fused.Backward(); }),
                1);
      Variable plain = SumAll(MatMul(x, w));
      EXPECT_EQ(CounterDelta("tensor/matmul_calls", [&] { plain.Backward(); }),
                1);
    }
  }
}

// Mul, Div and Sub compute nothing for an operand that does not require
// grad. With a constant operand the backward allocates exactly that
// operand's gradient tensors fewer than with two trainable operands (its
// products; AccumulateGrad adopts the last of them as the leaf's gradient,
// and copies only a buffer the node still holds), and the other gradient
// keeps its bits.
TEST(VariableTest, ElementwiseBackwardSkipsConstantOperands) {
  using BinaryOp = Variable (*)(const Variable&, const Variable&);
  struct Case {
    const char* name;
    BinaryOp op;
    bool constant_first;
    int64_t constant_grad_allocs;
  };
  const Case cases[] = {
      {"Mul(x, c)", Mul, false, 1},  // g * x, adopted
      {"Mul(c, x)", Mul, true, 1},
      {"Div(x, c)", Div, false, 4},  // g * x, c^2, divide, negate (adopted)
      {"Div(c, x)", Div, true, 1},   // g / x, adopted
      {"Sub(x, c)", Sub, false, 1},  // negate, adopted
      {"Sub(c, x)", Sub, true, 1},   // copy of self.grad, which the node keeps
  };
  const Tensor xt = TestInput({4, 3, 5}, 71);
  const Tensor ct = TestInput({4, 3, 5}, 72, 3.0f, 0.5f);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto run = [&](bool constant_requires, Tensor* x_grad) {
      Variable x(xt, true);
      Variable constant(ct, constant_requires);
      Variable loss = SumAll(c.constant_first ? c.op(constant, x)
                                              : c.op(x, constant));
      const int64_t allocs =
          CounterDelta("tensor/allocs", [&] { loss.Backward(); });
      *x_grad = x.grad();
      EXPECT_EQ(constant.has_grad(), constant_requires);
      return allocs;
    };
    Tensor both_grad;
    Tensor one_grad;
    const int64_t both = run(true, &both_grad);
    const int64_t one = run(false, &one_grad);
    EXPECT_EQ(both - one, c.constant_grad_allocs);
    EXPECT_TRUE(BitIdentical(one_grad, both_grad));
  }
}

// The fused Linear+GELU saves GELU'(z) from its forward epilogue and its
// backward multiplies by it: every gradient has the bits of the composed
// Gelu(Add(MatMul(x, w), b)), whose backward evaluates GeluGrad(z). The
// derivative is one tensor of the forward, made only when the node records.
TEST(VariableTest, FusedGeluSavesItsDerivativeOnlyWhenRecording) {
  for (const Shape& in_shape : {Shape{6, 4}, Shape{2, 3, 6, 4}}) {
    SCOPED_TRACE(ShapeToString(in_shape));
    const Tensor xt = TestInput(in_shape, 81);
    const Tensor wt = TestInput({4, 5}, 82);
    const Tensor bt = TestInput({5}, 83);
    Variable x1(xt, true), w1(wt, true), b1(bt, true);
    MeanAll(Square(MatMulEx(x1, w1, b1, gemm::Activation::kGelu))).Backward();
    Variable x2(xt, true), w2(wt, true), b2(bt, true);
    MeanAll(Square(Gelu(Add(MatMul(x2, w2), b2)))).Backward();
    EXPECT_TRUE(BitIdentical(x1.grad(), x2.grad()));
    EXPECT_TRUE(BitIdentical(w1.grad(), w2.grad()));
    EXPECT_TRUE(BitIdentical(b1.grad(), b2.grad()));

    auto forward_allocs = [&](bool weight_requires) {
      Variable x(xt, false), w(wt, weight_requires), b(bt, false);
      return CounterDelta("tensor/allocs", [&] {
        MatMulEx(x, w, b, gemm::Activation::kGelu);
      });
    };
    EXPECT_EQ(forward_allocs(true) - forward_allocs(false), 1);
    NoGradGuard guard;
    EXPECT_EQ(forward_allocs(true), forward_allocs(false));
  }
}

// The MLP block's branch as one node (MlpBranch) against the composed graph
// MatMulEx(kGelu) -> MatMulEx under the same probe-weighted loss: the
// forward and all five gradients memcmp-equal, for rank-2 and rank-4
// inputs, with every subset of x, W1, b1, W2 and b2 requiring grad, at 1, 2
// and 8 threads. Widths cover a fc1 and a fc2 whose weight gradient does
// and does not sum the bias gradient in its own pass, hidden widths under
// and over one 8-wide panel, row counts off the GEMM's 64-row tile, a
// feature count over one 256-deep k slice, and a branch without biases.
TEST(VariableTest, MlpBranchMatchesComposedGraphBitForBit) {
  struct Case {
    Shape in_shape;
    int64_t hidden;
    bool bias;
  };
  const Case cases[] = {
      {{70, 7}, 32, true},       {{2, 3, 11, 7}, 32, true},
      {{2, 5, 13, 1}, 32, true}, {{3, 2, 9, 16}, 8, true},
      {{130, 9}, 20, true},      {{2, 2, 5, 3}, 5, false},
      {{2, 1, 33, 257}, 12, true},
  };
  for (const Case& c : cases) {
    const int64_t f = c.in_shape.back();
    const Tensor xt = TestInput(c.in_shape, 91);
    const Tensor w1t = TestInput({f, c.hidden}, 92);
    const Tensor b1t = TestInput({c.hidden}, 93);
    const Tensor w2t = TestInput({c.hidden, f}, 94);
    const Tensor b2t = TestInput({f}, 95);
    const Tensor probe = TestInput(c.in_shape, 96);
    for (int mask = 0; mask < 32; ++mask) {
      // Operand slots: x, W1, b1, W2, b2; b1 and b2 exist only with bias.
      const auto needs = [mask](size_t slot) {
        return (mask >> slot & 1) != 0;
      };
      const auto present = [&c](size_t slot) {
        return c.bias || (slot != 2 && slot != 4);
      };
      for (int64_t threads : {1, 2, 8}) {
        SCOPED_TRACE(ShapeToString(c.in_shape) + " hidden " +
                     std::to_string(c.hidden) + " mask " +
                     std::to_string(mask) + " threads " +
                     std::to_string(threads));
        runtime::ScopedThreads scoped(threads);
        struct Run {
          Tensor y;
          std::vector<Tensor> grads;
        };
        const auto run = [&](bool fused) {
          const Tensor values[] = {xt, w1t, b1t, w2t, b2t};
          std::vector<Variable> leaves(5);
          for (size_t i = 0; i < leaves.size(); ++i) {
            if (present(i)) leaves[i] = Variable(values[i], needs(i));
          }
          Variable y;
          if (fused) {
            y = MlpBranch(leaves[0], {leaves[1], leaves[2], "fc1"},
                          {leaves[3], leaves[4], "fc2"});
          } else {
            y = MatMulEx(MatMulEx(leaves[0], leaves[1], leaves[2],
                                  gemm::Activation::kGelu),
                         leaves[3], leaves[4], gemm::Activation::kIdentity);
          }
          Run r{y.value(), {}};
          if (mask != 0) SumAll(Mul(y, Variable(probe))).Backward();
          for (const Variable& leaf : leaves) {
            r.grads.push_back(leaf.defined() ? leaf.grad() : Tensor());
          }
          return r;
        };
        const Run fused = run(true);
        const Run composed = run(false);
        EXPECT_TRUE(BitIdentical(fused.y, composed.y));
        for (size_t i = 0; i < fused.grads.size(); ++i) {
          SCOPED_TRACE("operand " + std::to_string(i));
          ASSERT_EQ(fused.grads[i].defined(), composed.grads[i].defined());
          EXPECT_EQ(fused.grads[i].defined(), needs(i) && present(i));
          if (fused.grads[i].defined()) {
            EXPECT_TRUE(BitIdentical(fused.grads[i], composed.grads[i]));
          }
        }
      }
    }
  }
}

// AccumulateGrad adopts a first gradient's buffer only when its call holds
// the only reference. A buffer the caller keeps (an lvalue, or a Reshape
// of one) is copied, and the in-place add of a later contribution reaches
// only the node's own gradient.
TEST(VariableTest, AccumulateGradAdoptsOnlyUnsharedBuffers) {
  const Tensor first = TestInput({3, 4}, 101);
  const Tensor second = TestInput({3, 4}, 102);
  const Tensor first_bits = first.Clone();
  const Tensor sum = Add(first, second);

  // Shared: the caller keeps `kept` (and a Reshape of it shares the buffer).
  for (bool reshaped : {false, true}) {
    SCOPED_TRACE(reshaped ? "reshape of a kept buffer" : "kept lvalue");
    AutogradNode node;
    node.value = Tensor::Zeros({3, 4});
    node.requires_grad = true;
    Tensor kept = first.Clone();
    AccumulateGrad(node, reshaped ? kept.Reshape({12}).Reshape({3, 4}) : kept);
    EXPECT_NE(node.grad.data(), kept.data());
    AccumulateGrad(node, second);
    EXPECT_TRUE(BitIdentical(kept, first_bits));
    EXPECT_TRUE(BitIdentical(node.grad, sum));
  }

  // Unshared: a temporary's buffer becomes the gradient, and a later add
  // lands in it without touching anything the caller holds.
  {
    AutogradNode node;
    node.value = Tensor::Zeros({3, 4});
    node.requires_grad = true;
    Tensor temporary = first.Clone();
    const float* buffer = temporary.data();
    AccumulateGrad(node, std::move(temporary));
    EXPECT_EQ(node.grad.data(), buffer);
    EXPECT_EQ(node.grad.use_count(), 1);
    AccumulateGrad(node, second);
    EXPECT_EQ(node.grad.data(), buffer);
    EXPECT_TRUE(BitIdentical(node.grad, sum));
    EXPECT_TRUE(BitIdentical(first, first_bits));
    EXPECT_TRUE(BitIdentical(second, TestInput({3, 4}, 102)));
  }

  // A broadcast gradient is reduced into a fresh buffer, which is adopted.
  {
    AutogradNode node;
    node.value = Tensor::Zeros({4});
    node.requires_grad = true;
    AccumulateGrad(node, first);
    EXPECT_EQ(node.grad.use_count(), 1);
    EXPECT_TRUE(BitIdentical(node.grad, ReduceTo(first, {4})));
    EXPECT_TRUE(BitIdentical(first, first_bits));
  }
}

// ---- Numerical gradient checks, one per op ---------------------------------

TEST(GradCheck, AddBroadcast) {
  Tensor other = TestInput({4}, 1);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        return SumAll(Square(Add(x, Variable(other))));
      },
      TestInput({3, 4}, 2));
}

TEST(GradCheck, SubBothSides) {
  Tensor other = TestInput({3, 4}, 3);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        return SumAll(Square(Sub(Variable(other), x)));
      },
      TestInput({3, 4}, 4));
}

TEST(GradCheck, MulBroadcast) {
  Tensor other = TestInput({3, 1}, 5);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) { return SumAll(Mul(x, Variable(other))); },
      TestInput({3, 4}, 6));
}

TEST(GradCheck, DivNumeratorAndDenominator) {
  Tensor denom = TestInput({2, 3}, 7, 3.0f, 0.2f);  // away from zero
  ExpectGradMatchesNumeric(
      [&](const Variable& x) { return SumAll(Div(x, Variable(denom))); },
      TestInput({2, 3}, 8));
  Tensor numer = TestInput({2, 3}, 9);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) { return SumAll(Div(Variable(numer), x)); },
      TestInput({2, 3}, 10, 3.0f, 0.2f));
}

TEST(GradCheck, MatMul2DBothSides) {
  Tensor rhs = TestInput({4, 2}, 11);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        return SumAll(Square(MatMul(x, Variable(rhs))));
      },
      TestInput({3, 4}, 12));
  Tensor lhs = TestInput({3, 4}, 13);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        return SumAll(Square(MatMul(Variable(lhs), x)));
      },
      TestInput({4, 2}, 14));
}

TEST(GradCheck, MatMulBatchedBroadcastRhs) {
  // x: [2,3,4] times shared rhs [4,2]; rhs gradient must sum over batch.
  Tensor x0 = TestInput({2, 3, 4}, 15);
  ExpectGradMatchesNumeric(
      [&](const Variable& w) {
        return SumAll(Square(MatMul(Variable(x0), w)));
      },
      TestInput({4, 2}, 16));
}

TEST(GradCheck, UnaryElementwise) {
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Exp(x)); }, TestInput({6}, 17));
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Log(x)); },
      TestInput({6}, 18, 3.0f, 0.3f));
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Sqrt(x)); },
      TestInput({6}, 19, 4.0f, 0.3f));
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Square(x)); }, TestInput({6}, 20));
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Tanh(x)); }, TestInput({6}, 21));
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Sigmoid(x)); },
      TestInput({6}, 22));
}

TEST(GradCheck, AbsAwayFromKink) {
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Abs(x)); },
      TestInput({6}, 23, 2.0f, 0.3f));
}

TEST(GradCheck, ReluAwayFromKink) {
  Tensor x0({4}, {1.5f, -1.5f, 2.0f, -0.7f});
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Square(Relu(x))); }, x0);
}

TEST(GradCheck, Gelu) {
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return SumAll(Gelu(x)); }, TestInput({8}, 24));
}

TEST(GradCheck, SumOverDims) {
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Sum(x, {1}, /*keepdim=*/false)));
      },
      TestInput({3, 4}, 25));
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Sum(x, {0, 2}, /*keepdim=*/true)));
      },
      TestInput({2, 3, 4}, 26));
}

TEST(GradCheck, MeanOverDims) {
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Mean(x, {-1}, /*keepdim=*/false)));
      },
      TestInput({3, 5}, 27));
  ExpectGradMatchesNumeric(
      [](const Variable& x) { return Square(MeanAll(x)); },
      TestInput({3, 5}, 28));
}

TEST(GradCheck, MovementOps) {
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Reshape(x, {6, 2})));
      },
      TestInput({3, 4}, 29));
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Permute(x, {2, 0, 1})));
      },
      TestInput({2, 3, 4}, 30));
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Transpose(x, -1, -2)));
      },
      TestInput({3, 4}, 31));
}

TEST(GradCheck, SliceAndPad) {
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Slice(x, 1, 1, 2)));
      },
      TestInput({3, 5}, 32));
  ExpectGradMatchesNumeric(
      [](const Variable& x) {
        return SumAll(Square(Pad(x, 1, 2, 1, 0.5f)));
      },
      TestInput({3, 5}, 33));
}

TEST(GradCheck, Concat) {
  Tensor other = TestInput({3, 2}, 34);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        return SumAll(Square(Concat({x, Variable(other)}, 1)));
      },
      TestInput({3, 4}, 35));
}

TEST(GradCheck, ConcatGradSplitsAcrossAllParts) {
  Variable a(TestInput({2, 2}, 36), true);
  Variable b(TestInput({2, 3}, 37), true);
  Variable y = SumAll(Square(Concat({a, b}, 1)));
  y.Backward();
  EXPECT_TRUE(AllClose(a.grad(), MulScalar(a.value(), 2.0f)));
  EXPECT_TRUE(AllClose(b.grad(), MulScalar(b.value(), 2.0f)));
}

TEST(GradCheck, Softmax) {
  Tensor target = TestInput({2, 5}, 38);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        return SumAll(Square(Sub(Softmax(x, 1), Variable(target))));
      },
      TestInput({2, 5}, 39));
}

TEST(GradCheck, LogSoftmax) {
  Tensor weights = TestInput({2, 5}, 40);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        return SumAll(Mul(LogSoftmax(x, -1), Variable(weights)));
      },
      TestInput({2, 5}, 41));
}

TEST(GradCheck, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x0 = TestInput({3, 7}, 42);
  Variable x(x0, false);
  EXPECT_TRUE(AllClose(LogSoftmax(x, 1).value(), Log(Softmax(x0, 1)), 1e-5f,
                       1e-4f));
}

TEST(GradCheck, DeepCompositeExpression) {
  // A small MLP-like composite touching many ops at once.
  Tensor w1 = TestInput({5, 8}, 43, 0.0f, 0.5f);
  Tensor w2 = TestInput({8, 3}, 44, 0.0f, 0.5f);
  ExpectGradMatchesNumeric(
      [&](const Variable& x) {
        Variable h = Gelu(MatMul(x, Variable(w1)));
        Variable o = MatMul(h, Variable(w2));
        return MeanAll(Square(o));
      },
      TestInput({4, 5}, 45));
}

TEST(GradCheck, ParameterGradientThroughComposite) {
  // Gradient w.r.t. a weight used at two places in the graph.
  Tensor x0 = TestInput({4, 5}, 46);
  ExpectGradMatchesNumeric(
      [&](const Variable& w) {
        Variable x(x0);
        Variable h = MatMul(x, w);          // [4, 5] x [5, 5]
        Variable o = MatMul(h, w);          // reuse of w
        return MeanAll(Square(o));
      },
      TestInput({5, 5}, 47, 0.0f, 0.4f));
}

}  // namespace
}  // namespace msd
