// Differentiable operations on Variables. Each op computes its value with the
// tensor kernels and, when gradients are enabled and some input requires
// them, records a backward closure on the tape.
//
// These overload the tensor-level functions of the same names; overload
// resolution picks the Variable versions for Variable arguments.
#ifndef MSDMIXER_AUTOGRAD_OPS_H_
#define MSDMIXER_AUTOGRAD_OPS_H_

#include <string>
#include <vector>

#include "autograd/variable.h"
#include "tensor/gemm.h"

namespace msd {

// ---- Elementwise binary (broadcasting) -----------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

// ---- Scalar ----------------------------------------------------------------
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);

// ---- Elementwise unary -------------------------------------------------------
Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Square(const Variable& a);
Variable Abs(const Variable& a);
Variable Relu(const Variable& a);
Variable Gelu(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);

// ---- Linear algebra ------------------------------------------------------------
// Batched matrix product with broadcastable batch dims (see tensor MatMul).
Variable MatMul(const Variable& a, const Variable& b);

// Fused act(a @ b + bias): a single GEMM whose epilogue applies the bias add
// and activation, so neither the bias-sum nor the pre-activation tensor is
// materialized in the graph. `bias` may be an undefined Variable (no bias).
// The backward is fused too: one dz tensor feeds the two matmul gradients
// and the (broadcast-reduced) bias gradient. When the node records, kGelu
// stores GELU' of the pre-activation, which the forward epilogue writes from
// the erf it evaluates anyway; the other activations recover their
// derivative from the output.
Variable MatMulEx(const Variable& a, const Variable& b, const Variable& bias,
                  gemm::Activation act);

// One Linear as MlpBranch reads it: its weight [in, out], its bias [out]
// (undefined for none), and the name its GEMM records under during an op
// capture (tensor/optrace.h), which keeps the Linear's module path in a
// traced plan.
struct LinearOperands {
  Variable weight;
  Variable bias;
  std::string region;
};

// fc2(GELU(fc1(x))), an MLP block's branch (paper Fig. 3a), as one node.
// The forward runs the two fused GEMMs a composed graph would record,
// MatMulEx(x, W1, b1, kGelu) then MatMulEx(h, W2, b2, kIdentity), each in
// its Linear's region, so traced plans and their fusion see the same ops.
// The node keeps the hidden h and, when something below the GELU takes a
// gradient, GELU' of fc1's pre-activation. The backward forms
// dz = (dY W2^T) ⊙ GELU' in the row tiles of the GEMM that computes dY W2^T
// (LinearInputGrad), takes dW2 and dW1 from the one-pass weight gradient
// (with b2's and b1's gradients from the same pass where it streams the
// upstream gradient as vectors) and dx = dz W1^T with W1 read transposed in
// place. Every gradient has the composed graph's bits.
Variable MlpBranch(const Variable& x, const LinearOperands& fc1,
                   const LinearOperands& fc2);

// 2D convolution: input [B, C, H, W] (*) kernel [O, C, kh, kw]; stride and
// symmetric zero padding per tensor/conv.h.
Variable Conv2d(const Variable& input, const Variable& kernel,
                int64_t stride = 1, int64_t padding = 0);

// ---- Reductions -------------------------------------------------------------------
Variable Sum(const Variable& a, std::vector<int64_t> dims, bool keepdim);
Variable Mean(const Variable& a, std::vector<int64_t> dims, bool keepdim);
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);

// ---- Movement ----------------------------------------------------------------------
Variable Reshape(const Variable& a, Shape new_shape);
Variable Permute(const Variable& a, std::vector<int64_t> perm);
Variable Transpose(const Variable& a, int64_t dim0, int64_t dim1);
Variable Slice(const Variable& a, int64_t dim, int64_t start, int64_t length);
Variable Concat(const std::vector<Variable>& parts, int64_t dim);
Variable Pad(const Variable& a, int64_t dim, int64_t before, int64_t after,
             float value);

// ---- Composite -------------------------------------------------------------------------
Variable Softmax(const Variable& a, int64_t dim);
// log(softmax(a)) computed stably; preferred for cross-entropy losses.
Variable LogSoftmax(const Variable& a, int64_t dim);

}  // namespace msd

#endif  // MSDMIXER_AUTOGRAD_OPS_H_
