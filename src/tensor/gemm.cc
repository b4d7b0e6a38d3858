#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/gelu.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"

namespace msd {
namespace gemm {

namespace {

// Register tile: 8 rows x 8 columns of C accumulate in registers (one
// 8-float vector per row on AVX2+; GCC vectorizes the fixed-bound j loops).
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 8;
// Cache blocking: kMc rows of C per parallel tile (the unit ParallelFor
// distributes), kKc-deep A/B slices so a packed B panel (kKc * kNr floats =
// 8 KiB) and the A panel stay resident in L1/L2 across the tile.
constexpr int64_t kMc = 64;
constexpr int64_t kKc = 256;
// Fewest multiply-adds one parallel chunk may carry. 2^15 of them take about
// 3 us on one AVX2 core, no more than the CPU one pool dispatch costs (about
// 3 us back to back, several times that when the workers sleep between
// calls), so a GEMM that small runs inline instead of splitting its tiles.
constexpr int64_t kGemmChunkMacs = int64_t{1} << 15;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Packs the [mc, kc] block of A starting at `a` (row stride `lda`) into
// kMr-row panels: panel ip holds columns kk = 0..kc-1 as 8 consecutive
// row values, zero-padded past mc so the micro-kernel never branches on row
// count (padded rows compute into accumulator lanes that are never stored).
void PackA(const float* a, int64_t lda, int64_t mc, int64_t kc, float* packed) {
  const int64_t panels = CeilDiv(mc, kMr);
  for (int64_t ip = 0; ip < panels; ++ip) {
    float* dst = packed + ip * kMr * kc;
    const int64_t rows = std::min(kMr, mc - ip * kMr);
    for (int64_t ii = 0; ii < rows; ++ii) {
      const float* src = a + (ip * kMr + ii) * lda;
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMr + ii] = src[kk];
    }
    for (int64_t ii = rows; ii < kMr; ++ii) {
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMr + ii] = 0.0f;
    }
  }
}

// One C row of the register tile (kNr floats). Explicit GCC vector type:
// the scalar x vector broadcast-FMA form below compiles to one fused
// multiply-add per row per k step, where plain nested loops tempt the
// auto-vectorizer into cross-row permute shuffles that run ~2x slower.
// aligned(4) permits unaligned loads; may_alias makes the float* punning
// well-defined.
typedef float V8
    __attribute__((vector_size(kNr * sizeof(float)), aligned(4), may_alias));

// Loads/stores go through pointer casts rather than helpers that take or
// return V8 by value: without AVX (sanitizer legs build with
// -DMSD_NATIVE_ARCH=OFF) a 32-byte vector in a function signature trips
// -Werror=psabi, while pointers to vector types have a stable ABI.
const V8* AsV8(const float* p) { return reinterpret_cast<const V8*>(p); }
V8* AsV8(float* p) { return reinterpret_cast<V8*>(p); }

// 8x8 micro-kernel: C_tile (+)= Ap @ Bp over a kc-deep slice. `first` means
// this is the k=0 slice, so the accumulator starts at zero and C (which may
// be uninitialized) is not read. Rows/cols beyond mr/nr are computed against
// packed zero padding and simply not stored.
void MicroKernel(const float* ap, const float* bp, int64_t kc, float* c,
                 int64_t ldc, bool first, int64_t mr, int64_t nr) {
  const bool full = mr == kMr && nr == kNr;
  V8 acc[kMr];
  if (first) {
    for (int64_t i = 0; i < kMr; ++i) acc[i] = V8{};
  } else if (full) {
    for (int64_t i = 0; i < kMr; ++i) acc[i] = *AsV8(c + i * ldc);
  } else {
    float edge[kMr][kNr] = {};
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) edge[i][j] = c[i * ldc + j];
    }
    for (int64_t i = 0; i < kMr; ++i) acc[i] = *AsV8(edge[i]);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const V8 bv = *AsV8(bp + kk * kNr);
    const float* arow = ap + kk * kMr;
    for (int64_t i = 0; i < kMr; ++i) acc[i] += arow[i] * bv;
  }
  if (full) {
    for (int64_t i = 0; i < kMr; ++i) *AsV8(c + i * ldc) = acc[i];
  } else {
    float edge[kMr][kNr];
    for (int64_t i = 0; i < mr; ++i) *AsV8(edge[i]) = acc[i];
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] = edge[i][j];
    }
  }
}

// msd-hot-path-safe: thread-local grow-only pack scratch. Capacity is
// bounded by kMc * kKc floats (64 KiB), so each worker allocates at most
// once and every later GEMM reuses the buffer — no pool lookups and no
// shared_ptr churn from inside the parallel region, which is what lets the
// planned serving path (serve/plan.h) run with zero steady-state pool
// traffic. PackA fully writes every element the micro-kernel reads, so a
// dirty recycled buffer is fine (the pool made the same promise).
float* APackScratch(int64_t floats) {
  struct Scratch {
    float* data = nullptr;
    int64_t cap = 0;
    ~Scratch() {
      if (data != nullptr) {
        std::allocator<float>().deallocate(data, static_cast<size_t>(cap));
      }
    }
  };
  thread_local Scratch scratch;
  if (floats > scratch.cap) {
    if (scratch.data != nullptr) {
      std::allocator<float>().deallocate(scratch.data,
                                         static_cast<size_t>(scratch.cap));
    }
    scratch.data = std::allocator<float>().allocate(static_cast<size_t>(floats));
    scratch.cap = floats;
  }
  return scratch.data;
}

}  // namespace

// Bias add + activation over `rows` finished C rows, applied while the tile
// is cache-hot. Relu / Sigmoid / Tanh are byte-for-byte tensor_ops.cc's
// expressions; Gelu is the one function tensor_ops.cc's Gelu also calls
// (tensor/gelu.h). `pre` (optional) receives the post-bias pre-activation
// values. Public (gemm.h) so the quantized kernel's dequant output runs
// through the very same code.
void EpilogueBiasAct(float* c, float* pre, int64_t rows, int64_t n,
                     const float* bias, Activation act) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = c + r * n;
    float* pre_row = pre == nullptr ? nullptr : pre + r * n;
    if (bias != nullptr) {
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
    if (pre_row != nullptr && act != Activation::kIdentity) {
      for (int64_t j = 0; j < n; ++j) pre_row[j] = row[j];
    }
    switch (act) {
      case Activation::kIdentity:
        break;
      case Activation::kRelu:
        for (int64_t j = 0; j < n; ++j) {
          row[j] = row[j] > 0.0f ? row[j] : 0.0f;
        }
        break;
      case Activation::kGelu:
        kernel::GeluSpan(row, row, n);
        break;
      case Activation::kTanh:
        for (int64_t j = 0; j < n; ++j) row[j] = std::tanh(row[j]);
        break;
      case Activation::kSigmoid:
        for (int64_t j = 0; j < n; ++j) {
          row[j] = 1.0f / (1.0f + std::exp(-row[j]));
        }
        break;
    }
  }
}

int64_t PackedBPanelFloats(int64_t k, int64_t n) {
  return CeilDiv(n, kNr) * kNr * std::max<int64_t>(k, 1);
}

void PackB(const float* b, int64_t k, int64_t n, float* packed) {
  const int64_t n_panels = CeilDiv(n, kNr);
  // Panel jp holds columns [jp*kNr, jp*kNr + kNr) for every k, kk-major,
  // zero-padded past n. Each packed element is written by exactly one chunk.
  runtime::ParallelFor(0, n_panels, kernel::GrainForWork(k * kNr),
                       [&](int64_t pb, int64_t pe) {
    for (int64_t jp = pb; jp < pe; ++jp) {
      float* dst = packed + jp * k * kNr;
      const int64_t j0 = jp * kNr;
      const int64_t cols = std::min(kNr, n - j0);
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* src = b + kk * n + j0;
        for (int64_t jj = 0; jj < cols; ++jj) dst[kk * kNr + jj] = src[jj];
        for (int64_t jj = cols; jj < kNr; ++jj) dst[kk * kNr + jj] = 0.0f;
      }
    }
  });
}

// msd-hot-path: innermost training/serving compute kernel.
void GemmPrepacked(const float* a, const float* packed_b, float* c, int64_t m,
                   int64_t k, int64_t n, const float* bias, Activation act,
                   float* pre) {
  if (m == 0 || n == 0) return;
  const int64_t row_tiles = CeilDiv(m, kMc);
  const int64_t n_panels = CeilDiv(n, kNr);
  // One whole row tile per loop iteration: the chunk partition (a pure
  // function of row_tiles and the grain) decides only which thread runs a
  // tile, never how the tile accumulates. A chunk holds at least
  // kGemmChunkMacs multiply-adds, so a GEMM smaller than that runs inline.
  const int64_t tile_macs = kMc * std::max<int64_t>(k, 1) * n;
  const int64_t grain = std::max<int64_t>(1, kGemmChunkMacs / tile_macs);
  runtime::ParallelFor(0, row_tiles, grain, [&](int64_t tb, int64_t te) {
    float* a_pack = APackScratch(kMc * std::min(k, kKc));
    for (int64_t t = tb; t < te; ++t) {
      const int64_t i0 = t * kMc;
      const int64_t mc = std::min(kMc, m - i0);
      const int64_t m_panels = CeilDiv(mc, kMr);
      if (k == 0) {
        // Empty inner dimension: the product is all zeros by convention.
        std::fill(c + i0 * n, c + (i0 + mc) * n, 0.0f);
      }
      for (int64_t kc0 = 0; kc0 < k; kc0 += kKc) {
        const int64_t kc = std::min(kKc, k - kc0);
        PackA(a + i0 * k + kc0, k, mc, kc, a_pack);
        const bool first = kc0 == 0;
        for (int64_t jp = 0; jp < n_panels; ++jp) {
          const float* bp = packed_b + jp * k * kNr + kc0 * kNr;
          const int64_t j0 = jp * kNr;
          const int64_t nr = std::min(kNr, n - j0);
          for (int64_t ip = 0; ip < m_panels; ++ip) {
            const int64_t mr = std::min(kMr, mc - ip * kMr);
            MicroKernel(a_pack + ip * kMr * kc, bp, kc,
                        c + (i0 + ip * kMr) * n + j0, n, first, mr, nr);
          }
        }
      }
      if (bias != nullptr || act != Activation::kIdentity) {
        EpilogueBiasAct(c + i0 * n, pre == nullptr ? nullptr : pre + i0 * n,
                        mc, n, bias, act);
      }
    }
  });
}

// msd-hot-path: innermost training/serving compute kernel.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const float* bias, Activation act, float* pre) {
  if (m == 0 || n == 0) return;
  std::shared_ptr<float[]> packed = pool::AllocateShared(PackedBPanelFloats(k, n));
  PackB(b, k, n, packed.get());
  GemmPrepacked(a, packed.get(), c, m, k, n, bias, act, pre);
}

}  // namespace gemm
}  // namespace msd
