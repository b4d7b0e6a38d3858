// The exact GELU and its derivative over contiguous float spans: the one
// home of the formula behind the fused GEMM epilogue (gemm.h kGelu), Gelu /
// GeluInto, and GeluGrad (tensor_ops.h).
//
//   GeluSpan:      y = 0.5f * x * (1 + erf(x / sqrt 2))
//   GeluGradSpan:  y = 0.5f * (1 + erf(x / sqrt 2))
//                      + x * exp(-0.5f * x * x) / sqrt(2 pi)
//   GeluAndGradSpan: both, from one erf per element. Each output is
//                  bit-identical to its single span's: the shared erf is the
//                  same value, and every other operation runs in the same
//                  order. The epilogue of a fused Linear+GELU that autograd
//                  records calls it, so the backward needs no second erf.
//
// AVX-512 builds (AVX512F + AVX512DQ) evaluate 16 lanes at a time through a
// vector port of glibc 2.36's erff and its FMA expf, and are bit-identical to
// the scalar form linked against that libm (tests/tensor_test.cc sweeps the
// float bit patterns; docs/PERFORMANCE.md). They run erff's formulas range
// by range: per 1024-element block, the cheap |x / sqrt 2| < 0.84375 formula
// on every vector, then the other lanes gathered 16 at a time through the
// formula libm's branch picks for them. Every other build evaluates those
// expressions per element with libm's float erf and exp. `y` may equal `x`
// (in place) but must not otherwise overlap it; GeluAndGradSpan's `dy`
// overlaps neither.
// Internal header: tensor kernels (gemm.cc, tensor_ops.cc), their tests and
// microbenches.
#ifndef MSDMIXER_TENSOR_GELU_H_
#define MSDMIXER_TENSOR_GELU_H_

#include <cstdint>

namespace msd {
namespace kernel {

// Lanes the spans evaluate at once: 16 on AVX-512 builds, 1 where the
// scalar libm loop runs. The exhaustive sweep prints it, so a build that
// lost its vector path cannot pass the sweep by comparing the scalar loop
// with itself unnoticed (tools/check.sh).
#if defined(__AVX512F__) && defined(__AVX512DQ__)
inline constexpr int kGeluLanes = 16;
#else
inline constexpr int kGeluLanes = 1;
#endif

void GeluSpan(const float* x, float* y, int64_t n);
void GeluGradSpan(const float* x, float* y, int64_t n);
void GeluAndGradSpan(const float* x, float* y, float* dy, int64_t n);

}  // namespace kernel
}  // namespace msd

#endif  // MSDMIXER_TENSOR_GELU_H_
