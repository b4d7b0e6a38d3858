#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <memory>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/gelu.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"

namespace msd {
namespace gemm {

namespace {

// Register tile: 8 rows x 8 columns of C accumulate in registers.
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

// Every kernel below keeps one contract, which is what makes the result
// bit-identical whichever kernel runs: each C element is one chain of fused
// multiply-adds in ascending k, starting from +0 on the first kKc slice and
// from C's stored value on later slices. fma(a, b, acc) == fma(b, a, acc),
// so a kernel may vectorize over rows or over columns.

#if defined(__AVX2__) && defined(__FMA__)

// In-register transpose of eight 8-float rows: r[j][i] <- r[i][j].
[[gnu::always_inline]] inline void Transpose8x8(__m256 (&r)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Packs whole 8x8 blocks of one full 8-row A panel (rows at `src`, stride
// lda) by in-register transposes. Returns how many columns it packed; PackA
// copies the rest one element at a time.
int64_t PackFullPanelBlocks(const float* src, int64_t lda, int64_t kc,
                            float* dst) {
  int64_t kk = 0;
  for (; kk + 8 <= kc; kk += 8) {
    __m256 r[8];
    for (int64_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * lda + kk);
    Transpose8x8(r);
    for (int64_t j = 0; j < 8; ++j) _mm256_storeu_ps(dst + (kk + j) * kMr, r[j]);
  }
  return kk;
}

// Lanes [0, n) set, for maskload / maskstore.
__m256i LaneMask(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Row i of a C tile, or zero past the mr rows that exist.
[[gnu::always_inline]] inline __m256 LoadRow(const float* c, int64_t ldc,
                                             int64_t i, int64_t mr) {
  return i < mr ? _mm256_loadu_ps(c + i * ldc) : _mm256_setzero_ps();
}
[[gnu::always_inline]] inline void StoreRow(float* c, int64_t ldc, int64_t i,
                                            int64_t mr, __m256 v) {
  if (i < mr) _mm256_storeu_ps(c + i * ldc, v);
}

// 8x8 micro-kernel for a full column panel: C_tile (+)= Ap @ Bp over a
// kc-deep slice, the 64 accumulators held in eight named registers. Each k
// step broadcasts A[i][kk] into a fused multiply-add with B's row, the
// instruction the fallback's `acc[i] += arow[i] * bv` compiles to. `first`
// marks the k=0 slice: accumulators start at +0 and C (possibly
// uninitialized) is not read. Rows past mr compute against PackA's zero
// padding and are not stored.
[[gnu::always_inline]] inline void Tile8x8(const float* ap, const float* bp,
                                           int64_t kc, float* c, int64_t ldc,
                                           bool first, int64_t mr) {
  __m256 c0 = _mm256_setzero_ps(), c1 = c0, c2 = c0, c3 = c0, c4 = c0,
         c5 = c0, c6 = c0, c7 = c0;
  if (!first) {
    c0 = LoadRow(c, ldc, 0, mr);
    c1 = LoadRow(c, ldc, 1, mr);
    c2 = LoadRow(c, ldc, 2, mr);
    c3 = LoadRow(c, ldc, 3, mr);
    c4 = LoadRow(c, ldc, 4, mr);
    c5 = LoadRow(c, ldc, 5, mr);
    c6 = LoadRow(c, ldc, 6, mr);
    c7 = LoadRow(c, ldc, 7, mr);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b = _mm256_loadu_ps(bp + kk * kNr);
    const float* ak = ap + kk * kMr;
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 0), b, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 1), b, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 2), b, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 3), b, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 4), b, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 5), b, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 6), b, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 7), b, c7);
  }
  StoreRow(c, ldc, 0, mr, c0);
  StoreRow(c, ldc, 1, mr, c1);
  StoreRow(c, ldc, 2, mr, c2);
  StoreRow(c, ldc, 3, mr, c3);
  StoreRow(c, ldc, 4, mr, c4);
  StoreRow(c, ldc, 5, mr, c5);
  StoreRow(c, ldc, 6, mr, c6);
  StoreRow(c, ldc, 7, mr, c7);
}

// Moves an [mr x cols] C tile between memory and column vectors (lane i =
// row i). With ldc == 1 (n == 1) the one column is contiguous in C; wider
// tiles go through Transpose8x8 and lane-masked row accesses.
[[gnu::always_inline]] inline void LoadColumns(const float* c, int64_t ldc,
                                               int64_t mr, int64_t cols,
                                               __m256 (&v)[8]) {
  if (ldc == 1) {
    v[0] = _mm256_maskload_ps(c, LaneMask(mr));
    return;
  }
  const __m256i lanes = LaneMask(cols);
  for (int64_t i = 0; i < 8; ++i) {
    v[i] = i < mr ? _mm256_maskload_ps(c + i * ldc, lanes)
                  : _mm256_setzero_ps();
  }
  Transpose8x8(v);
}
[[gnu::always_inline]] inline void StoreColumns(float* c, int64_t ldc,
                                                int64_t mr, int64_t cols,
                                                __m256 (&v)[8]) {
  if (ldc == 1) {
    if (mr == kMr) {
      _mm256_storeu_ps(c, v[0]);
    } else {
      _mm256_maskstore_ps(c, LaneMask(mr), v[0]);
    }
    return;
  }
  Transpose8x8(v);
  const __m256i lanes = LaneMask(cols);
  for (int64_t i = 0; i < mr; ++i) _mm256_maskstore_ps(c + i * ldc, lanes, v[i]);
}

// Micro-kernel for a column panel narrower than 8: vectorizes over the A
// panel's 8 packed rows and broadcasts B[kk][j], so a k step costs one
// fused multiply-add per real column instead of eight lanes per row.
template <int64_t kCols>
[[gnu::always_inline]] inline void NarrowTile(const float* ap, const float* bp,
                                              int64_t kc, float* c,
                                              int64_t ldc, bool first,
                                              int64_t mr) {
  __m256 acc[8];
  for (__m256& v : acc) v = _mm256_setzero_ps();
  if (!first) LoadColumns(c, ldc, mr, kCols, acc);
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 a = _mm256_loadu_ps(ap + kk * kMr);
    const float* bk = bp + kk * kNr;
    for (int64_t j = 0; j < kCols; ++j) {
      acc[j] = _mm256_fmadd_ps(a, _mm256_broadcast_ss(bk + j), acc[j]);
    }
  }
  StoreColumns(c, ldc, mr, kCols, acc);
}

// Every kMr-row panel of a packed A block against one nr-wide B panel.
template <int64_t kCols>
void ColumnPanelOf(const float* a_pack, const float* bp, int64_t kc, float* c,
                   int64_t ldc, bool first, int64_t mc) {
  for (int64_t i = 0; i < mc; i += kMr) {
    const int64_t mr = std::min(kMr, mc - i);
    if constexpr (kCols == kNr) {
      Tile8x8(a_pack + i * kc, bp, kc, c + i * ldc, ldc, first, mr);
    } else {
      NarrowTile<kCols>(a_pack + i * kc, bp, kc, c + i * ldc, ldc, first, mr);
    }
  }
}

void ColumnPanel(const float* a_pack, const float* bp, int64_t kc, float* c,
                 int64_t ldc, bool first, int64_t mc, int64_t nr) {
  switch (nr) {
    case 1: return ColumnPanelOf<1>(a_pack, bp, kc, c, ldc, first, mc);
    case 2: return ColumnPanelOf<2>(a_pack, bp, kc, c, ldc, first, mc);
    case 3: return ColumnPanelOf<3>(a_pack, bp, kc, c, ldc, first, mc);
    case 4: return ColumnPanelOf<4>(a_pack, bp, kc, c, ldc, first, mc);
    case 5: return ColumnPanelOf<5>(a_pack, bp, kc, c, ldc, first, mc);
    case 6: return ColumnPanelOf<6>(a_pack, bp, kc, c, ldc, first, mc);
    case 7: return ColumnPanelOf<7>(a_pack, bp, kc, c, ldc, first, mc);
    default: return ColumnPanelOf<kNr>(a_pack, bp, kc, c, ldc, first, mc);
  }
}

#else  // GCC vector extensions

int64_t PackFullPanelBlocks(const float*, int64_t, int64_t, float*) {
  return 0;
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

void ColumnPanel(const float* a_pack, const float* bp, int64_t kc, float* c,
                 int64_t ldc, bool first, int64_t mc, int64_t nr) {
  for (int64_t i = 0; i < mc; i += kMr) {
    MicroKernel(a_pack + i * kc, bp, kc, c + i * ldc, ldc, first,
                std::min(kMr, mc - i), nr);
  }
}

#endif

// Packs the [mc, kc] block of A starting at `a` (row stride `lda`) into
// kMr-row panels: panel ip holds columns kk = 0..kc-1 as 8 consecutive
// row values, zero-padded past mc so the micro-kernel never branches on row
// count (padded rows compute into accumulator lanes that are never stored).
void PackA(const float* a, int64_t lda, int64_t mc, int64_t kc, float* packed) {
  const int64_t panels = CeilDiv(mc, kMr);
  for (int64_t ip = 0; ip < panels; ++ip) {
    float* dst = packed + ip * kMr * kc;
    const float* src = a + ip * kMr * lda;
    const int64_t rows = std::min(kMr, mc - ip * kMr);
    const int64_t packed_cols =
        rows == kMr ? PackFullPanelBlocks(src, lda, kc, dst) : 0;
    for (int64_t ii = 0; ii < rows; ++ii) {
      for (int64_t kk = packed_cols; kk < kc; ++kk) {
        dst[kk * kMr + ii] = src[ii * lda + kk];
      }
    }
    for (int64_t ii = rows; ii < kMr; ++ii) {
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMr + ii] = 0.0f;
    }
  }
}

// msd-hot-path-safe: thread-local grow-only pack scratch. A GEMM asks for
// at most kMc * kKc floats (64 KiB) and MlpPrepacked for that plus its
// kMc-row hidden tile, so each worker allocates once per larger request and
// every later GEMM reuses the buffer — no pool lookups and no shared_ptr
// churn from inside the parallel region, which is what lets the planned
// serving path (serve/plan.h) run with zero steady-state pool traffic.
// PackA, and MlpPrepacked's first GEMM for its hidden tile, fully write
// every element later read, so a dirty recycled buffer is fine (the pool
// made the same promise).
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

// SharedWeightGrad's output tile: kWgRows lines of the broadcast operand by
// kWgLanes lanes (four 8-float vectors) of the vector operand, so a 32-wide
// operand row is one contiguous read per step and even a one-line tile has
// four independent chains. The tile's per-batch partial and its running sum
// take 16 vector registers.
constexpr int64_t kWgRows = 2;
constexpr int64_t kWgLanes = 32;

// Operands of one weight-gradient tile. The tile computes
// T[i][l] = sum_r sum_y u_r[y][i] * v_r[y][l] for i < mu, l < lanes, where
// u_r[y] = u + (r*rows + y)*ldu and likewise for v: `u` is broadcast one
// element at a time and `v` is loaded as vectors.
struct WgTile {
  const float* u;
  const float* v;
  int64_t ldu;
  int64_t ldv;
  int64_t batches;
  int64_t rows;
  int64_t mu;
  int64_t lanes;
};

#if defined(__AVX2__) && defined(__FMA__)

// The tile with kRows broadcast lines and kVecs vectors: each batch's
// partial starts at +0 and takes one fused multiply-add per row y (the
// instruction Tile8x8 and NarrowTile use), then joins the running sum,
// which also starts at +0, with one add. Lanes of the last vector past
// `lanes` load as zero and are never stored.
template <int64_t kRows, int64_t kVecs>
void WeightGradTileOf(const WgTile& t, float (&tile)[kWgRows][kWgLanes]) {
  const int64_t tail = t.lanes - 8 * (kVecs - 1);
  const __m256i mask = LaneMask(tail);
  __m256 sum[kRows][kVecs];
  for (auto& row : sum) {
    for (__m256& s : row) s = _mm256_setzero_ps();
  }
  for (int64_t r = 0; r < t.batches; ++r) {
    const float* ur = t.u + r * t.rows * t.ldu;
    const float* vr = t.v + r * t.rows * t.ldv;
    __m256 part[kRows][kVecs];
    for (auto& row : part) {
      for (__m256& p : row) p = _mm256_setzero_ps();
    }
    for (int64_t y = 0; y < t.rows; ++y) {
      const float* vy = vr + y * t.ldv;
      __m256 vv[kVecs];
      for (int64_t q = 0; q + 1 < kVecs; ++q) {
        vv[q] = _mm256_loadu_ps(vy + 8 * q);
      }
      const float* last = vy + 8 * (kVecs - 1);
      vv[kVecs - 1] =
          tail == 8 ? _mm256_loadu_ps(last) : _mm256_maskload_ps(last, mask);
      const float* uy = ur + y * t.ldu;
      for (int64_t i = 0; i < kRows; ++i) {
        const __m256 b = _mm256_broadcast_ss(uy + i);
        for (int64_t q = 0; q < kVecs; ++q) {
          part[i][q] = _mm256_fmadd_ps(b, vv[q], part[i][q]);
        }
      }
    }
    for (int64_t i = 0; i < kRows; ++i) {
      for (int64_t q = 0; q < kVecs; ++q) {
        sum[i][q] = _mm256_add_ps(sum[i][q], part[i][q]);
      }
    }
  }
  for (int64_t i = 0; i < kRows; ++i) {
    for (int64_t q = 0; q < kVecs; ++q) {
      _mm256_storeu_ps(&tile[i][8 * q], sum[i][q]);
    }
  }
}

template <int64_t kRows>
void WeightGradTileRows(const WgTile& t, float (&tile)[kWgRows][kWgLanes]) {
  switch (CeilDiv(t.lanes, 8)) {
    case 1: return WeightGradTileOf<kRows, 1>(t, tile);
    case 2: return WeightGradTileOf<kRows, 2>(t, tile);
    case 3: return WeightGradTileOf<kRows, 3>(t, tile);
    default: return WeightGradTileOf<kRows, 4>(t, tile);
  }
}

void WeightGradTile(const WgTile& t, float (&tile)[kWgRows][kWgLanes]) {
  if (t.mu == 1) {
    WeightGradTileRows<1>(t, tile);
  } else {
    WeightGradTileRows<kWgRows>(t, tile);
  }
}

#else  // GCC vector extensions

// The same tile in MicroKernel's `acc += a * b` form, so a build without
// FMA rounds the weight gradient exactly as its own GEMM does. Lanes past
// `lanes` read a zero-padded copy of the row.
void WeightGradTile(const WgTile& t, float (&tile)[kWgRows][kWgLanes]) {
  constexpr int64_t kVecs = kWgLanes / kNr;
  V8 sum[kWgRows][kVecs] = {};
  for (int64_t r = 0; r < t.batches; ++r) {
    const float* ur = t.u + r * t.rows * t.ldu;
    const float* vr = t.v + r * t.rows * t.ldv;
    V8 part[kWgRows][kVecs] = {};
    for (int64_t y = 0; y < t.rows; ++y) {
      float vy[kWgLanes] = {};
      std::copy(vr + y * t.ldv, vr + y * t.ldv + t.lanes, vy);
      const float* uy = ur + y * t.ldu;
      for (int64_t i = 0; i < t.mu; ++i) {
        for (int64_t q = 0; q < kVecs; ++q) {
          part[i][q] += uy[i] * *AsV8(vy + 8 * q);
        }
      }
    }
    for (int64_t i = 0; i < t.mu; ++i) {
      for (int64_t q = 0; q < kVecs; ++q) sum[i][q] += part[i][q];
    }
  }
  for (int64_t i = 0; i < kWgRows; ++i) {
    for (int64_t q = 0; q < kVecs; ++q) *AsV8(&tile[i][8 * q]) = sum[i][q];
  }
}

#endif

}  // namespace

// Bias add + activation over `rows` finished C rows, applied while the tile
// is cache-hot. Relu / Sigmoid / Tanh are byte-for-byte tensor_ops.cc's
// expressions; Gelu is the one function tensor_ops.cc's Gelu also calls
// (tensor/gelu.h). The rows are contiguous, so the activation runs over all
// of them as one span: elementwise, so no bit depends on where a row starts.
// `gelu_grad` (optional, kGelu only) receives GELU' from the same erf.
// Public (gemm.h) so the quantized kernel's dequant output runs through the
// very same code.
void EpilogueBiasAct(float* c, float* gelu_grad, int64_t rows, int64_t n,
                     const float* bias, Activation act) {
  if (bias != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      float* row = c + r * n;
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  }
  const int64_t count = rows * n;
  switch (act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      for (int64_t i = 0; i < count; ++i) c[i] = c[i] > 0.0f ? c[i] : 0.0f;
      break;
    case Activation::kGelu:
      if (gelu_grad != nullptr) {
        kernel::GeluAndGradSpan(c, c, gelu_grad, count);
      } else {
        kernel::GeluSpan(c, c, count);
      }
      break;
    case Activation::kTanh:
      for (int64_t i = 0; i < count; ++i) c[i] = std::tanh(c[i]);
      break;
    case Activation::kSigmoid:
      for (int64_t i = 0; i < count; ++i) {
        c[i] = 1.0f / (1.0f + std::exp(-c[i]));
      }
      break;
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

namespace {

// Row tiles per chunk for a [*, k] x [k, n] GEMM: a chunk holds at least
// kGemmChunkMacs multiply-adds, so a GEMM smaller than that runs inline.
int64_t RowTileGrain(int64_t k, int64_t n) {
  const int64_t tile_macs = kMc * std::max<int64_t>(k, 1) * n;
  return std::max<int64_t>(1, kGemmChunkMacs / std::max<int64_t>(1, tile_macs));
}

// One row tile of GemmPrepacked: rows [0, mc) of C (row stride n) from the
// same rows of A (row stride k), epilogue included. `a_pack` holds
// kMc * min(k, kKc) floats.
void RowTile(const float* a, const float* packed_b, float* c, int64_t mc,
             int64_t k, int64_t n, const float* bias, Activation act,
             float* gelu_grad, float* a_pack) {
  if (k == 0) {
    // Empty inner dimension: the product is all zeros by convention.
    std::fill(c, c + mc * n, 0.0f);
  }
  const int64_t n_panels = CeilDiv(n, kNr);
  for (int64_t kc0 = 0; kc0 < k; kc0 += kKc) {
    const int64_t kc = std::min(kKc, k - kc0);
    PackA(a + kc0, k, mc, kc, a_pack);
    const bool first = kc0 == 0;
    for (int64_t jp = 0; jp < n_panels; ++jp) {
      const float* bp = packed_b + jp * k * kNr + kc0 * kNr;
      const int64_t j0 = jp * kNr;
      ColumnPanel(a_pack, bp, kc, c + j0, n, first, mc,
                  std::min(kNr, n - j0));
    }
  }
  if (bias != nullptr || act != Activation::kIdentity) {
    EpilogueBiasAct(c, gelu_grad, mc, n, bias, act);
  }
}

}  // namespace

// msd-hot-path: innermost training/serving compute kernel.
void GemmPrepacked(const float* a, const float* packed_b, float* c, int64_t m,
                   int64_t k, int64_t n, const float* bias, Activation act,
                   float* gelu_grad) {
  if (m == 0 || n == 0) return;
  // One whole row tile per loop iteration: the chunk partition (a pure
  // function of row_tiles and the grain) decides only which thread runs a
  // tile, never how the tile accumulates.
  const int64_t row_tiles = CeilDiv(m, kMc);
  const int64_t grain = RowTileGrain(k, n);
  runtime::ParallelFor(0, row_tiles, grain, [&](int64_t tb, int64_t te) {
    float* a_pack = APackScratch(kMc * std::min(k, kKc));
    for (int64_t t = tb; t < te; ++t) {
      const int64_t i0 = t * kMc;
      RowTile(a + i0 * k, packed_b, c + i0 * n, std::min(kMc, m - i0), k, n,
              bias, act, gelu_grad == nullptr ? nullptr : gelu_grad + i0 * n,
              a_pack);
    }
  });
}

// msd-hot-path: the serving MLP block's two GEMMs in one pass.
void MlpPrepacked(const float* a, const MlpLayer& fc1, const MlpLayer& fc2,
                  float* c, int64_t m, int64_t k, int64_t h, int64_t n) {
  if (m == 0 || n == 0) return;
  // Each row tile runs fc1 into the chunk's hidden tile, then fc2 from it:
  // both are GemmPrepacked's tiles over the same rows, so every element
  // matches the two separate calls. The grain is the larger GEMM's (the
  // smaller of the two grains), not that of their summed multiply-adds: the
  // fused loop then splits only where one of the separate calls would have,
  // and adds no pool dispatch.
  const int64_t row_tiles = CeilDiv(m, kMc);
  const int64_t grain = std::min(RowTileGrain(k, h), RowTileGrain(h, n));
  runtime::ParallelFor(0, row_tiles, grain, [&](int64_t tb, int64_t te) {
    // The hidden tile sits past the A pack in the same scratch, at a
    // 16-float (64-byte) offset.
    const int64_t pack_floats =
        CeilDiv(kMc * std::max(std::min(k, kKc), std::min(h, kKc)), 16) * 16;
    float* a_pack = APackScratch(pack_floats + kMc * h);
    float* hidden = a_pack + pack_floats;
    for (int64_t t = tb; t < te; ++t) {
      const int64_t i0 = t * kMc;
      const int64_t mc = std::min(kMc, m - i0);
      if (h > 0) {
        RowTile(a + i0 * k, fc1.packed_b, hidden, mc, k, h, fc1.bias, fc1.act,
                nullptr, a_pack);
      }
      RowTile(hidden, fc2.packed_b, c + i0 * n, mc, h, n, fc2.bias, fc2.act,
              nullptr, a_pack);
    }
  });
}

// msd-hot-path: innermost training/serving compute kernel.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const float* bias, Activation act, float* gelu_grad) {
  if (m == 0 || n == 0) return;
  std::shared_ptr<float[]> packed = pool::AllocateShared(PackedBPanelFloats(k, n));
  PackB(b, k, n, packed.get());
  GemmPrepacked(a, packed.get(), c, m, k, n, bias, act, gelu_grad);
}

void SharedWeightGrad(const float* a, const float* g, float* dw,
                      int64_t batches, int64_t rows, int64_t k, int64_t n) {
  if (k == 0 || n == 0) return;
  // Vectors run along whichever of dw's axes needs fewer of them (n on a
  // tie). Along n they are dw's rows; along k the tile holds dw^T, and
  // fma(a, g, acc) == fma(g, a, acc) keeps the bits.
  const bool along_n = k * CeilDiv(n, 8) <= n * CeilDiv(k, 8);
  const float* u = along_n ? a : g;
  const float* v = along_n ? g : a;
  const int64_t ldu = along_n ? k : n;
  const int64_t ldv = along_n ? n : k;
  const int64_t v_tiles = CeilDiv(ldv, kWgLanes);
  const int64_t tiles = CeilDiv(ldu, kWgRows) * v_tiles;
  const int64_t tile_macs =
      std::max<int64_t>(1, batches * rows) * kWgRows * kWgLanes;
  const int64_t grain = std::max<int64_t>(1, kGemmChunkMacs / tile_macs);
  runtime::ParallelFor(0, tiles, grain, [&](int64_t tb, int64_t te) {
    for (int64_t t = tb; t < te; ++t) {
      const int64_t u0 = t / v_tiles * kWgRows;
      const int64_t v0 = t % v_tiles * kWgLanes;
      const WgTile tile_args{u + u0,
                             v + v0,
                             ldu,
                             ldv,
                             batches,
                             rows,
                             std::min(kWgRows, ldu - u0),
                             std::min(kWgLanes, ldv - v0)};
      float tile[kWgRows][kWgLanes];
      WeightGradTile(tile_args, tile);
      for (int64_t i = 0; i < tile_args.mu; ++i) {
        for (int64_t l = 0; l < tile_args.lanes; ++l) {
          if (along_n) {
            dw[(u0 + i) * n + v0 + l] = tile[i][l];
          } else {
            dw[(v0 + l) * n + u0 + i] = tile[i][l];
          }
        }
      }
    }
  });
}

}  // namespace gemm
}  // namespace msd
