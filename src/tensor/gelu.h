// The exact GELU and its derivative over contiguous float spans: the one
// home of the formula behind the fused GEMM epilogue (gemm.h kGelu), Gelu /
// GeluInto, and GeluGrad (tensor_ops.h).
//
//   GeluSpan:      y = 0.5f * x * (1 + erf(x / sqrt 2))
//   GeluGradSpan:  y = 0.5f * (1 + erf(x / sqrt 2))
//                      + x * exp(-0.5f * x * x) / sqrt(2 pi)
//
// Builds without AVX2+FMA evaluate those expressions per element with libm's
// float erf and exp. AVX2+FMA builds evaluate 8 lanes at a time through a
// vector port of glibc 2.36's erff and its FMA expf, and are bit-identical to
// the scalar form linked against that libm (tests/tensor_test.cc sweeps the
// float bit patterns; docs/PERFORMANCE.md). `y` may equal `x` (in place) but
// must not otherwise overlap it.
// Internal header: tensor kernels (gemm.cc, tensor_ops.cc) only.
#ifndef MSDMIXER_TENSOR_GELU_H_
#define MSDMIXER_TENSOR_GELU_H_

#include <cstdint>

namespace msd {
namespace kernel {

void GeluSpan(const float* x, float* y, int64_t n);
void GeluGradSpan(const float* x, float* y, int64_t n);

}  // namespace kernel
}  // namespace msd

#endif  // MSDMIXER_TENSOR_GELU_H_
