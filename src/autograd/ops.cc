#include "autograd/ops.h"

#include <utility>

#include "obs/metrics.h"
#include "tensor/conv.h"
#include "tensor/optrace.h"
#include "tensor/tensor_ops.h"

namespace msd {

namespace {

using NodePtr = std::shared_ptr<AutogradNode>;

// Whether an op over `parents` joins the tape: recording is enabled and some
// parent participates in gradients.
bool WillRecord(const std::vector<NodePtr>& parents) {
  if (!NoGradGuard::GradEnabled()) return false;
  for (const NodePtr& p : parents) {
    if (p->requires_grad) return true;
  }
  return false;
}

// NaN/Inf guard on every differentiable op output (debug-checks builds).
// Fatal: a non-finite value this deep in a training graph is already silent
// corruption.
void DebugCheckFinite([[maybe_unused]] const Tensor& value) {
#if MSD_DEBUG_CHECKS_ENABLED
  const int64_t bad = debug::FirstNonFinite(value.data(), value.numel());
  MSD_CHECK_EQ(bad, -1) << "debug check: non-finite value in op output "
                        << "(element " << bad << " of shape "
                        << ShapeToString(value.shape()) << ")";
#endif
}

// Creates the result node; records parents + backward closure only when
// WillRecord(parents). A closure computes no gradient for a parent that does
// not require one: AccumulateGrad would discard it.
Variable MakeOp(Tensor value, std::vector<NodePtr> parents,
                std::function<void(AutogradNode&)> backward) {
  static obs::Counter& nodes_created =
      obs::MetricsRegistry::Global().GetCounter("autograd/nodes_created");
  nodes_created.Add(1);
  DebugCheckFinite(value);
  auto node = std::make_shared<AutogradNode>();
  node->value = std::move(value);
  if (WillRecord(parents)) {
    // Counts only nodes that join the tape (parents + backward closure kept).
    // Flat across an inference pass under NoGradGuard — the serving tests
    // regress on exactly that (tests/serve_test.cc).
    static obs::Counter& nodes_recorded =
        obs::MetricsRegistry::Global().GetCounter("autograd/nodes_recorded");
    nodes_recorded.Add(1);
    node->requires_grad = true;
#if MSD_DEBUG_CHECKS_ENABLED
    // Tape lint: mark leaves consumed by this recorded op; Backward() clears
    // the mark on every leaf its sweep reaches and reports the rest.
    for (const NodePtr& p : parents) {
      if (!p->backward_fn && p->requires_grad) p->debug_used_in_graph = true;
    }
#endif
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward);
  }
  return Variable(std::move(node));
}

template <typename F>
Variable UnaryFromGrad(const Variable& a, Tensor value, F local_grad) {
  // local_grad: () -> Tensor, the elementwise dvalue/da (computed lazily so
  // inference pays nothing).
  NodePtr na = a.node();
  return MakeOp(std::move(value), {na},
                [na, local_grad](AutogradNode& self) {
                  AccumulateGrad(*na, Mul(self.grad, local_grad()));
                });
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  NodePtr na = a.node();
  NodePtr nb = b.node();
  return MakeOp(Add(a.value(), b.value()), {na, nb},
                [na, nb](AutogradNode& self) {
                  AccumulateGrad(*na, self.grad);
                  AccumulateGrad(*nb, self.grad);
                });
}

Variable Sub(const Variable& a, const Variable& b) {
  NodePtr na = a.node();
  NodePtr nb = b.node();
  return MakeOp(Sub(a.value(), b.value()), {na, nb},
                [na, nb](AutogradNode& self) {
                  AccumulateGrad(*na, self.grad);
                  if (nb->requires_grad) AccumulateGrad(*nb, Neg(self.grad));
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  NodePtr na = a.node();
  NodePtr nb = b.node();
  return MakeOp(Mul(a.value(), b.value()), {na, nb},
                [na, nb](AutogradNode& self) {
                  if (na->requires_grad) {
                    AccumulateGrad(*na, Mul(self.grad, nb->value));
                  }
                  if (nb->requires_grad) {
                    AccumulateGrad(*nb, Mul(self.grad, na->value));
                  }
                });
}

Variable Div(const Variable& a, const Variable& b) {
  NodePtr na = a.node();
  NodePtr nb = b.node();
  return MakeOp(Div(a.value(), b.value()), {na, nb},
                [na, nb](AutogradNode& self) {
                  if (na->requires_grad) {
                    AccumulateGrad(*na, Div(self.grad, nb->value));
                  }
                  // d/db (a/b) = -a / b^2
                  if (nb->requires_grad) {
                    AccumulateGrad(
                        *nb, Neg(Div(Mul(self.grad, na->value),
                                     Square(nb->value))));
                  }
                });
}

Variable AddScalar(const Variable& a, float s) {
  NodePtr na = a.node();
  return MakeOp(AddScalar(a.value(), s), {na}, [na](AutogradNode& self) {
    AccumulateGrad(*na, self.grad);
  });
}

Variable MulScalar(const Variable& a, float s) {
  NodePtr na = a.node();
  return MakeOp(MulScalar(a.value(), s), {na}, [na, s](AutogradNode& self) {
    AccumulateGrad(*na, MulScalar(self.grad, s));
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Exp(const Variable& a) {
  Tensor y = Exp(a.value());
  return UnaryFromGrad(a, y, [y]() { return y; });
}

Variable Log(const Variable& a) {
  Tensor x = a.value();
  return UnaryFromGrad(a, Log(x), [x]() {
    return Div(Tensor::Ones(x.shape()), x);
  });
}

Variable Sqrt(const Variable& a) {
  Tensor y = Sqrt(a.value());
  return UnaryFromGrad(a, y, [y]() {
    return Div(Tensor::Full(y.shape(), 0.5f), y);
  });
}

Variable Square(const Variable& a) {
  Tensor x = a.value();
  return UnaryFromGrad(a, Square(x), [x]() { return MulScalar(x, 2.0f); });
}

Variable Abs(const Variable& a) {
  Tensor x = a.value();
  return UnaryFromGrad(a, Abs(x), [x]() { return Sign(x); });
}

Variable Relu(const Variable& a) {
  Tensor x = a.value();
  return UnaryFromGrad(a, Relu(x), [x]() {
    return Greater(x, Tensor::Zeros({}));
  });
}

Variable Gelu(const Variable& a) {
  Tensor x = a.value();
  return UnaryFromGrad(a, Gelu(x), [x]() { return GeluGrad(x); });
}

Variable Sigmoid(const Variable& a) {
  Tensor y = Sigmoid(a.value());
  return UnaryFromGrad(a, y, [y]() {
    return Mul(y, Sub(Tensor::Ones(y.shape()), y));
  });
}

Variable Tanh(const Variable& a) {
  Tensor y = Tanh(a.value());
  return UnaryFromGrad(a, y, [y]() {
    return Sub(Tensor::Ones(y.shape()), Square(y));
  });
}

namespace {

// dB = A^T G for A @ B (+ bias) with upstream gradient `g`, and the bias
// gradient, each only when its operand requires grad (AccumulateGrad
// reduces broadcast batches, and a bias gradient over every leading dim
// down to [n]). A rank-2 weight shared by a batched input (every Linear on
// a rank >= 3 tensor) takes the one-pass kernel, which gives the bits of
// the per-batch product once AccumulateGrad has reduced its batches, and
// which hands back the bias gradient from the same pass when it streams
// g's rows as vectors.
void AccumulateWeightGrads(const Tensor& a, AutogradNode& nb,
                           AutogradNode* nbias, const Tensor& g) {
  const bool bias_requires = nbias != nullptr && nbias->requires_grad;
  Tensor bias_grad;
  if (nb.requires_grad) {
    if (nb.value.rank() == 2 && a.rank() >= 3) {
      AccumulateGrad(nb, LinearWeightGrad(a, g, bias_requires ? &bias_grad
                                                              : nullptr));
    } else {
      AccumulateGrad(nb, MatMul(Transpose(a, -1, -2), g));
    }
  }
  if (!bias_requires) return;
  if (bias_grad.defined()) {
    AccumulateGrad(*nbias, std::move(bias_grad));
  } else {
    AccumulateGrad(*nbias, g);
  }
}

// dA = G B^T, then AccumulateWeightGrads. A rank-2 B is read transposed in
// place (LinearInputGrad); a batched one is transposed first.
void AccumulateMatMulGrads(AutogradNode& na, AutogradNode& nb,
                           AutogradNode* nbias, const Tensor& g) {
  if (na.requires_grad) {
    AccumulateGrad(na, nb.value.rank() == 2
                           ? LinearInputGrad(g, nb.value)
                           : MatMul(g, Transpose(nb.value, -1, -2)));
  }
  AccumulateWeightGrads(na.value, nb, nbias, g);
}

const Tensor& ValueOrUndefined(const Variable& v) {
  static const Tensor kUndefined;
  return v.defined() ? v.value() : kUndefined;
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  NodePtr na = a.node();
  NodePtr nb = b.node();
  return MakeOp(
      MatMul(a.value(), b.value()), {na, nb}, [na, nb](AutogradNode& self) {
        AccumulateMatMulGrads(*na, *nb, nullptr, self.grad);
      });
}

Variable MatMulEx(const Variable& a, const Variable& b, const Variable& bias,
                  gemm::Activation act) {
  NodePtr na = a.node();
  NodePtr nb = b.node();
  NodePtr nbias = bias.defined() ? bias.node() : nullptr;
  std::vector<NodePtr> parents = {na, nb};
  if (nbias != nullptr) parents.push_back(nbias);
  // Only gelu's derivative needs the forward: relu, tanh and sigmoid recover
  // theirs from the output, and identity needs nothing. The epilogue writes
  // GELU'(z) from the erf it evaluates for the output anyway (one extra
  // tensor), and only when this node will record.
  Tensor gelu_grad;
  Tensor value = MatMulEx(a.value(), b.value(), ValueOrUndefined(bias), act,
                          WillRecord(parents) ? &gelu_grad : nullptr);
  return MakeOp(
      std::move(value), std::move(parents),
      [na, nb, nbias, act, gelu_grad](AutogradNode& self) {
        // dz: gradient at the pre-activation, shared by all three inputs.
        // The derivative expressions mirror the standalone Relu/Gelu/
        // Sigmoid/Tanh ops so fused and composed graphs train identically.
        const Tensor& y = self.value;
        Tensor dz;
        switch (act) {
          case gemm::Activation::kIdentity:
            dz = self.grad;
            break;
          case gemm::Activation::kRelu:
            // y > 0 exactly where the pre-activation was > 0.
            dz = Mul(self.grad, Greater(y, Tensor::Zeros({})));
            break;
          case gemm::Activation::kGelu:
            dz = Mul(self.grad, gelu_grad);
            break;
          case gemm::Activation::kTanh:
            dz = Mul(self.grad, Sub(Tensor::Ones(y.shape()), Square(y)));
            break;
          case gemm::Activation::kSigmoid:
            dz = Mul(self.grad, Mul(y, Sub(Tensor::Ones(y.shape()), y)));
            break;
        }
        AccumulateMatMulGrads(*na, *nb, nbias.get(), dz);
      });
}

Variable MlpBranch(const Variable& x, const LinearOperands& fc1,
                   const LinearOperands& fc2) {
  MSD_CHECK(fc1.weight.rank() == 2 && fc2.weight.rank() == 2)
      << "MlpBranch takes rank-2 weights";
  NodePtr nx = x.node();
  NodePtr nw1 = fc1.weight.node();
  NodePtr nb1 = fc1.bias.defined() ? fc1.bias.node() : nullptr;
  NodePtr nw2 = fc2.weight.node();
  NodePtr nb2 = fc2.bias.defined() ? fc2.bias.node() : nullptr;
  std::vector<NodePtr> below_gelu = {nx, nw1};
  if (nb1 != nullptr) below_gelu.push_back(nb1);
  // GELU' is kept only when something below the GELU takes a gradient, as a
  // composed fc1 node would keep it.
  Tensor gelu_grad;
  Tensor h;
  {
    optrace::RegionScope region(fc1.region);
    h = MatMulEx(x.value(), fc1.weight.value(), ValueOrUndefined(fc1.bias),
                 gemm::Activation::kGelu,
                 WillRecord(below_gelu) ? &gelu_grad : nullptr);
  }
  DebugCheckFinite(h);
  Tensor y;
  {
    optrace::RegionScope region(fc2.region);
    y = MatMulEx(h, fc2.weight.value(), ValueOrUndefined(fc2.bias),
                 gemm::Activation::kIdentity);
  }
  std::vector<NodePtr> parents = std::move(below_gelu);
  parents.push_back(nw2);
  if (nb2 != nullptr) parents.push_back(nb2);
  return MakeOp(
      std::move(y), std::move(parents),
      [nx, nw1, nb1, nw2, nb2, h, gelu_grad](AutogradNode& self) {
        const Tensor& dy = self.grad;
        AccumulateWeightGrads(h, *nw2, nb2.get(), dy);
        if (!gelu_grad.defined()) return;
        // dz = (dy @ W2^T) ⊙ GELU', each element rounded once after its FMA
        // chain in the GEMM's row tiles: the bits of the composed graph's
        // Mul(grad_h, GELU'), with grad_h never stored.
        const Tensor dz = LinearInputGrad(dy, nw2->value, gelu_grad);
        if (nx->requires_grad) {
          AccumulateGrad(*nx, LinearInputGrad(dz, nw1->value));
        }
        AccumulateWeightGrads(nx->value, *nw1, nb1.get(), dz);
      });
}

Variable Conv2d(const Variable& input, const Variable& kernel, int64_t stride,
                int64_t padding) {
  NodePtr ni = input.node();
  NodePtr nk = kernel.node();
  const Conv2dSpec spec{stride, padding};
  const int64_t height = input.dim(2);
  const int64_t width = input.dim(3);
  const int64_t kh = kernel.dim(2);
  const int64_t kw = kernel.dim(3);
  return MakeOp(Conv2d(input.value(), kernel.value(), spec), {ni, nk},
                [ni, nk, spec, height, width, kh, kw](AutogradNode& self) {
                  AccumulateGrad(*ni, Conv2dInputGrad(self.grad, nk->value,
                                                      height, width, spec));
                  AccumulateGrad(*nk, Conv2dKernelGrad(ni->value, self.grad,
                                                       kh, kw, spec));
                });
}

Variable Sum(const Variable& a, std::vector<int64_t> dims, bool keepdim) {
  NodePtr na = a.node();
  const Shape in_shape = a.shape();
  Shape keep_shape = in_shape;
  for (int64_t d : dims) {
    keep_shape[static_cast<size_t>(NormalizeDim(d, a.rank()))] = 1;
  }
  return MakeOp(Sum(a.value(), dims, keepdim), {na},
                [na, in_shape, keep_shape](AutogradNode& self) {
                  Tensor g = self.grad.Reshape(keep_shape);
                  AccumulateGrad(*na, ExpandTo(g, in_shape));
                });
}

Variable Mean(const Variable& a, std::vector<int64_t> dims, bool keepdim) {
  int64_t count = 1;
  for (int64_t d : dims) count *= a.dim(NormalizeDim(d, a.rank()));
  MSD_CHECK_GT(count, 0);
  return MulScalar(Sum(a, std::move(dims), keepdim),
                   1.0f / static_cast<float>(count));
}

Variable SumAll(const Variable& a) {
  NodePtr na = a.node();
  const Shape in_shape = a.shape();
  return MakeOp(SumAll(a.value()), {na},
                [na, in_shape](AutogradNode& self) {
                  AccumulateGrad(*na,
                                 Tensor::Full(in_shape, self.grad.item()));
                });
}

Variable MeanAll(const Variable& a) {
  MSD_CHECK_GT(a.numel(), 0);
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.numel()));
}

Variable Reshape(const Variable& a, Shape new_shape) {
  NodePtr na = a.node();
  const Shape in_shape = a.shape();
  return MakeOp(a.value().Reshape(std::move(new_shape)), {na},
                [na, in_shape](AutogradNode& self) {
                  AccumulateGrad(*na, self.grad.Reshape(in_shape));
                });
}

Variable Permute(const Variable& a, std::vector<int64_t> perm) {
  NodePtr na = a.node();
  const int64_t rank = a.rank();
  std::vector<int64_t> inverse(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) {
    inverse[static_cast<size_t>(NormalizeDim(perm[static_cast<size_t>(i)], rank))] = i;
  }
  return MakeOp(Permute(a.value(), perm), {na},
                [na, inverse](AutogradNode& self) {
                  AccumulateGrad(*na, Permute(self.grad, inverse));
                });
}

Variable Transpose(const Variable& a, int64_t dim0, int64_t dim1) {
  const int64_t rank = a.rank();
  std::vector<int64_t> perm(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) perm[static_cast<size_t>(i)] = i;
  std::swap(perm[static_cast<size_t>(NormalizeDim(dim0, rank))],
            perm[static_cast<size_t>(NormalizeDim(dim1, rank))]);
  return Permute(a, perm);
}

// msd-hot-path-safe: overload twin of the audited Tensor Slice — the serve
// batcher calls the Tensor overload, but a lexical call graph cannot tell
// overloads apart; the frozen path only reaches Variable ops through
// MsdMixer::Run, which is audited as a unit.
Variable Slice(const Variable& a, int64_t dim, int64_t start, int64_t length) {
  NodePtr na = a.node();
  const int64_t norm_dim = NormalizeDim(dim, a.rank());
  const int64_t in_dim = a.dim(norm_dim);
  return MakeOp(Slice(a.value(), dim, start, length), {na},
                [na, norm_dim, start, length, in_dim](AutogradNode& self) {
                  AccumulateGrad(*na, Pad(self.grad, norm_dim, start,
                                          in_dim - start - length, 0.0f));
                });
}

Variable Concat(const std::vector<Variable>& parts, int64_t dim) {
  MSD_CHECK(!parts.empty());
  std::vector<NodePtr> nodes;
  std::vector<Tensor> tensors;
  nodes.reserve(parts.size());
  tensors.reserve(parts.size());
  for (const Variable& p : parts) {
    nodes.push_back(p.node());
    tensors.push_back(p.value());
  }
  const int64_t norm_dim = NormalizeDim(dim, parts[0].rank());
  std::vector<int64_t> sizes;
  sizes.reserve(parts.size());
  for (const Variable& p : parts) sizes.push_back(p.dim(norm_dim));
  return MakeOp(Concat(tensors, dim), nodes,
                [nodes, sizes, norm_dim](AutogradNode& self) {
                  int64_t offset = 0;
                  for (size_t i = 0; i < nodes.size(); ++i) {
                    AccumulateGrad(*nodes[i], Slice(self.grad, norm_dim,
                                                    offset, sizes[i]));
                    offset += sizes[i];
                  }
                });
}

Variable Pad(const Variable& a, int64_t dim, int64_t before, int64_t after,
             float value) {
  NodePtr na = a.node();
  const int64_t norm_dim = NormalizeDim(dim, a.rank());
  const int64_t in_dim = a.dim(norm_dim);
  return MakeOp(Pad(a.value(), dim, before, after, value), {na},
                [na, norm_dim, before, in_dim](AutogradNode& self) {
                  AccumulateGrad(*na,
                                 Slice(self.grad, norm_dim, before, in_dim));
                });
}

Variable Softmax(const Variable& a, int64_t dim) {
  NodePtr na = a.node();
  const int64_t norm_dim = NormalizeDim(dim, a.rank());
  Tensor y = Softmax(a.value(), norm_dim);
  return MakeOp(y, {na}, [na, y, norm_dim](AutogradNode& self) {
    // dx = y * (g - sum(g * y, dim))
    Tensor gy = Mul(self.grad, y);
    Tensor s = Sum(gy, {norm_dim}, /*keepdim=*/true);
    AccumulateGrad(*na, Mul(y, Sub(self.grad, s)));
  });
}

Variable LogSoftmax(const Variable& a, int64_t dim) {
  NodePtr na = a.node();
  const int64_t norm_dim = NormalizeDim(dim, a.rank());
  // Stable forward: x - max - log(sum(exp(x - max))).
  Tensor x = a.value();
  Tensor mx = MaxReduce(x, norm_dim, /*keepdim=*/true);
  Tensor shifted = Sub(x, mx);
  Tensor logz = Log(Sum(Exp(shifted), {norm_dim}, /*keepdim=*/true));
  Tensor y = Sub(shifted, logz);
  return MakeOp(y, {na}, [na, y, norm_dim](AutogradNode& self) {
    // dx = g - softmax(x) * sum(g, dim)
    Tensor s = Sum(self.grad, {norm_dim}, /*keepdim=*/true);
    AccumulateGrad(*na, Sub(self.grad, Mul(Exp(y), s)));
  });
}

}  // namespace msd
