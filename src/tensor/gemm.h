// Cache-blocked, register-tiled single-precision GEMM with fused epilogues —
// the hot-path compute engine behind MatMul/MatMulEx (docs/PERFORMANCE.md).
//
// Scheme (BLIS-style): B is packed once into kNr-wide column panels, then
// the output is walked in kMc-row tiles; within a tile, kKc-deep slices of A
// are packed into kMr-row panels and a micro-kernel accumulates C per panel
// pair. A full 8-column panel runs an 8x8 AVX2 tile held in eight
// registers, and a narrower panel (n < 8, or n's last panel) runs a kernel
// that vectorizes over the panel's 8 rows, one FMA per k step per real
// column. Every kernel adds the bias in registers after the last k
// slice, just before its store, and the optional activation then runs per
// row tile while C is still cache-hot, so fused Linear layers never
// materialize the intermediate pre-activation tensor; under training a GELU
// layer keeps its derivative instead, written by the same activation pass.
// MlpPrepacked chains two such GEMMs per row tile (an MLP block's fc1 and
// fc2): fc1 writes its tile straight into the packed A panels fc2 reads, so
// the hidden activations between them stay in a per-thread buffer and are
// never packed.
//
// Determinism contract (docs/RUNTIME.md): tile geometry is a pure function
// of (m, k, n); runtime::ParallelFor distributes whole row tiles, each
// written by exactly one chunk; every C element accumulates in ascending-k
// order regardless of blocking boundaries or thread count. Results are
// bit-identical for any MSD_THREADS value.
//
// SharedWeightGrad is the training-side companion: the gradient of a weight
// that one Linear applies to every leading index of a batched input. It
// reads the activations and the upstream gradient in place, keeps a 2 x 32
// output tile's per-batch partial and running sum in registers while it
// streams every batch, and parallelizes over output tiles only, so each
// element's arithmetic is the same for every thread count. Its first row of
// tiles can also sum the upstream gradient's columns, which is the Linear's
// bias gradient. A Linear's input gradient reads its row-major weight
// transposed in place (PackBTransposed), and an MLP block's backward
// multiplies each finished element of dY @ W2^T by GELU' in the GEMM's own
// row tiles (GemmScaledPrepacked), so the gradient at the pre-activation
// takes no separate pass.
#ifndef MSDMIXER_TENSOR_GEMM_H_
#define MSDMIXER_TENSOR_GEMM_H_

#include <cstdint>

namespace msd {
namespace gemm {

// Epilogue activation fused into the GEMM output pass. It runs the elementwise
// kernels of tensor_ops.cc exactly: the same expressions for Relu, Tanh and
// Sigmoid, and one function for Gelu (tensor/gelu.h), so a fused layer and a
// composed MatMul+Add+Act agree to the last code path.
enum class Activation { kIdentity, kRelu, kGelu, kTanh, kSigmoid };

// C[m,n] = act(A[m,k] @ B[k,n] + bias[n]).
//  * `c` may be uninitialized; every element is written (no zero-fill pass).
//  * `bias` is nullptr (none) or n floats.
//  * `gelu_grad`, when non-null and act is kGelu, receives GELU'(A@B + bias)
//    [m, n], the derivative autograd multiplies into the upstream gradient.
//    The epilogue computes it from the erf the output already needs
//    (tensor/gelu.h GeluAndGradSpan), bit-identical to GeluGrad of the
//    pre-activation. Every other activation leaves it untouched: relu, tanh
//    and sigmoid recover their derivatives from the output.
// Parallel over row tiles via runtime::ParallelFor; safe to call from inside
// a parallel region (nested loops run inline per the runtime contract).
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const float* bias = nullptr,
          Activation act = Activation::kIdentity, float* gelu_grad = nullptr);

// Bias add (when non-null) and `act` over `rows` contiguous C rows of width
// n. `gelu_grad` is Gemm's: written for kGelu only, when non-null. The fp32
// kernels add their bias in registers and run only this activation; the
// quantized kernel (tensor/qgemm.h) runs its dequant output through the
// whole epilogue. One rounded add of the bias either way, so both give the
// bits of C = A@B, then C += bias, then act(C).
void EpilogueBiasAct(float* c, float* gelu_grad, int64_t rows, int64_t n,
                     const float* bias, Activation act);

// Split form for batched products that reuse one B: pack once, multiply
// many. `packed` must hold PackedBPanelFloats(k, n) floats.
int64_t PackedBPanelFloats(int64_t k, int64_t n);
void PackB(const float* b, int64_t k, int64_t n, float* packed);
// PackB of B = bt^T, reading the row-major [n, k] matrix `bt` in place: the
// packed floats are PackB's of a materialized transpose, zero padding
// included, so a product against them has that transpose's bits. Each
// kNr-wide panel of B is kNr rows of bt, packed as the GEMM packs A panels.
void PackBTransposed(const float* bt, int64_t k, int64_t n, float* packed);
void GemmPrepacked(const float* a, const float* packed_b, float* c, int64_t m,
                   int64_t k, int64_t n, const float* bias, Activation act,
                   float* gelu_grad);
// C[m,n] = (A[m,k] @ B) ⊙ S[m,n], S row-major like C: each row tile runs
// GemmPrepacked's FMA chains (no bias, no activation), then multiplies every
// finished element by its S entry with one rounded product before the tile
// leaves the cache. The product comes after the last kKc slice of k, so C
// has the bits of GemmPrepacked into a buffer followed by an elementwise
// Mul(C, S): -0, NaN and subnormal S entries included. `scale` may be
// nullptr, which gives GemmPrepacked's plain product.
void GemmScaledPrepacked(const float* a, const float* packed_b,
                         const float* scale, float* c, int64_t m, int64_t k,
                         int64_t n);

// One Linear of MlpPrepacked: a PackB-packed weight, its bias (nullptr or
// one float per output column) and its epilogue activation.
struct MlpLayer {
  const float* packed_b;
  const float* bias;
  Activation act;
};

// C[m,n] = fc2(fc1(A[m,k])), fc1 a [k, h] layer and fc2 an [h, n] one: the
// serving MLP block's two GEMMs in one pass. Each kMc-row tile of fc1,
// bias and activation included, lands in a per-thread buffer laid out as
// the 8-row packed A panels fc2 consumes (one set per 256-deep slice of h),
// written by a tile that vectorizes over 8 rows and broadcasts fc1's
// weights; fc2 reads the panels in place, so the [m, h] hidden never
// reaches memory and is never packed. Every element is still one FMA chain
// in ascending k from +0 plus one bias add, so C is bit-identical to
// GemmPrepacked(fc1) into an [m, h] buffer followed by GemmPrepacked(fc2)
// from it, for any thread count and on every build. A chunk's grain comes
// from the larger of the two GEMMs' per-tile multiply-adds, so the fused
// call runs inline wherever both separate calls would have. No GELU'
// output: the fused step serves frozen plans, which never differentiate.
void MlpPrepacked(const float* a, const MlpLayer& fc1, const MlpLayer& fc2,
                  float* c, int64_t m, int64_t k, int64_t h, int64_t n);

// dw[k,n] = sum over r in [0, batches) of A_r^T @ G_r, where A_r is the
// row-major [rows, k] matrix at a + r*rows*k and G_r the [rows, n] matrix at
// g + r*rows*n: a Linear's input and upstream gradient in their natural
// layouts. The bits are those of `batches` separate Gemm calls followed by
// a prefix Sum over the batch axis:
//  * element (i, j) of batch r is one FMA chain over ascending row index,
//    starting from +0 (Gemm's contract, with A_r^T as the left operand);
//  * the batch partials are added in ascending r, starting from +0.
// `dw` may be uninitialized; every element is written. Parallel over output
// tiles; runs inline when the whole product is below one GEMM chunk.
//
// `g_col_sums` (nullptr, or n floats) asks for G's column sums over all
// batches * rows rows as well: column j summed from +0 in ascending row
// order, which is a prefix Sum's order, so an all-(-0) column gives +0. They
// come from the tiles in the first row of dw's tile grid, which load G's
// rows as vectors anyway; that holds when the vectors run along n
// (k * ceil(n / 8) <= n * ceil(k / 8), true whenever n is a multiple of 8).
// Returns whether `g_col_sums` was written; when it was not, the caller
// sums G itself.
bool SharedWeightGrad(const float* a, const float* g, float* dw,
                      int64_t batches, int64_t rows, int64_t k, int64_t n,
                      float* g_col_sums = nullptr);

}  // namespace gemm
}  // namespace msd

#endif  // MSDMIXER_TENSOR_GEMM_H_
