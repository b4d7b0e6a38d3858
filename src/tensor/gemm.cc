#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/gelu.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"
#include "tensor/transpose8x8.h"

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
static_assert(kKc % kNr == 0, "an fc1 column panel lies within one fc2 k slice");
// Fewest multiply-adds one parallel chunk may carry. 2^15 of them take about
// 3 us on one AVX2 core, no more than the CPU one pool dispatch costs (about
// 3 us back to back, several times that when the workers sleep between
// calls), so a GEMM that small runs inline instead of splitting its tiles.
constexpr int64_t kGemmChunkMacs = int64_t{1} << 15;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Every kernel below keeps one contract, which is what makes the result
// bit-identical whichever kernel runs: each C element is one chain of fused
// multiply-adds in ascending k, starting from +0 on the first kKc slice and
// from C's stored value on later slices, then one add of its column's bias
// after the last slice. fma(a, b, acc) == fma(b, a, acc), so a kernel may
// vectorize over rows or over columns.

using kernel::LaneMask;
using kernel::Transpose8x8;

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
// step broadcasts A[i][kk] into a fused multiply-add with B's row. `first`
// marks the k=0 slice: accumulators start at +0 and C (possibly
// uninitialized) is not read. `bias` (the panel's 8 floats) is non-null on
// the last slice only and joins each accumulator with one add just before
// the store. Rows past mr compute against PackA's zero padding and are not
// stored.
[[gnu::always_inline]] inline void Tile8x8(const float* ap, const float* bp,
                                           int64_t kc, float* c, int64_t ldc,
                                           bool first, int64_t mr,
                                           const float* bias) {
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
  if (bias != nullptr) {
    const __m256 b = _mm256_loadu_ps(bias);
    c0 = _mm256_add_ps(c0, b);
    c1 = _mm256_add_ps(c1, b);
    c2 = _mm256_add_ps(c2, b);
    c3 = _mm256_add_ps(c3, b);
    c4 = _mm256_add_ps(c4, b);
    c5 = _mm256_add_ps(c5, b);
    c6 = _mm256_add_ps(c6, b);
    c7 = _mm256_add_ps(c7, b);
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

// One kc-deep slice of an [8 x kCols] tile held as column vectors (lane i =
// row i of the A panel): each k step loads the panel's 8 packed rows and
// broadcasts B[kk][j], so it costs one fused multiply-add per real column.
// `bias` (kCols floats, last slice only) joins each column with one add.
template <int64_t kCols>
[[gnu::always_inline]] inline void ColumnVectorSlice(const float* ap,
                                                     const float* bp,
                                                     int64_t kc,
                                                     const float* bias,
                                                     __m256 (&acc)[8]) {
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 a = _mm256_loadu_ps(ap + kk * kMr);
    const float* bk = bp + kk * kNr;
    for (int64_t j = 0; j < kCols; ++j) {
      acc[j] = _mm256_fmadd_ps(a, _mm256_broadcast_ss(bk + j), acc[j]);
    }
  }
  if (bias != nullptr) {
    for (int64_t j = 0; j < kCols; ++j) {
      acc[j] = _mm256_add_ps(acc[j], _mm256_broadcast_ss(bias + j));
    }
  }
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

// Micro-kernel for a column panel narrower than 8: the column-vector slice,
// loaded from and stored to C's rows.
template <int64_t kCols>
[[gnu::always_inline]] inline void NarrowTile(const float* ap, const float* bp,
                                              int64_t kc, float* c,
                                              int64_t ldc, bool first,
                                              int64_t mr, const float* bias) {
  __m256 acc[8];
  for (__m256& v : acc) v = _mm256_setzero_ps();
  if (!first) LoadColumns(c, ldc, mr, kCols, acc);
  ColumnVectorSlice<kCols>(ap, bp, kc, bias, acc);
  StoreColumns(c, ldc, mr, kCols, acc);
}

// MlpPrepacked's fc1 tile: the column-vector slice kept in the layout PackA
// gives fc2's A, column j of the tile being the 8 floats at dst + j * kMr.
// The finished tile is kCols contiguous stores, and a later k slice reloads
// its partial sums from there.
template <int64_t kCols>
[[gnu::always_inline]] inline void PanelTile(const float* ap, const float* bp,
                                             int64_t kc, float* dst,
                                             bool first, const float* bias) {
  __m256 acc[8];
  for (int64_t j = 0; j < kCols; ++j) {
    acc[j] = first ? _mm256_setzero_ps() : _mm256_loadu_ps(dst + j * kMr);
  }
  ColumnVectorSlice<kCols>(ap, bp, kc, bias, acc);
  for (int64_t j = 0; j < kCols; ++j) _mm256_storeu_ps(dst + j * kMr, acc[j]);
}

// Calls f(std::integral_constant<int64_t, nr>{}) for a panel width 1..kNr.
template <typename F>
void WithPanelWidth(int64_t nr, F&& f) {
  switch (nr) {
    case 1: return f(std::integral_constant<int64_t, 1>{});
    case 2: return f(std::integral_constant<int64_t, 2>{});
    case 3: return f(std::integral_constant<int64_t, 3>{});
    case 4: return f(std::integral_constant<int64_t, 4>{});
    case 5: return f(std::integral_constant<int64_t, 5>{});
    case 6: return f(std::integral_constant<int64_t, 6>{});
    case 7: return f(std::integral_constant<int64_t, 7>{});
    default: return f(std::integral_constant<int64_t, kNr>{});
  }
}

// Every kMr-row panel of a packed A block against one nr-wide B panel, into
// C's rows.
void ColumnPanel(const float* a_pack, const float* bp, int64_t kc, float* c,
                 int64_t ldc, bool first, int64_t mc, int64_t nr,
                 const float* bias) {
  WithPanelWidth(nr, [&](auto width) {
    constexpr int64_t kCols = decltype(width)::value;
    for (int64_t i = 0; i < mc; i += kMr) {
      const int64_t mr = std::min(kMr, mc - i);
      if constexpr (kCols == kNr) {
        Tile8x8(a_pack + i * kc, bp, kc, c + i * ldc, ldc, first, mr, bias);
      } else {
        NarrowTile<kCols>(a_pack + i * kc, bp, kc, c + i * ldc, ldc, first,
                          mr, bias);
      }
    }
  });
}

// The same against every A panel, into the hidden panels: A panel ip's tile
// lands at dst + ip * panel_stride.
void PanelColumn(const float* a_pack, const float* bp, int64_t kc, float* dst,
                 int64_t panel_stride, bool first, int64_t panels, int64_t nr,
                 const float* bias) {
  WithPanelWidth(nr, [&](auto width) {
    constexpr int64_t kCols = decltype(width)::value;
    for (int64_t ip = 0; ip < panels; ++ip) {
      PanelTile<kCols>(a_pack + ip * kMr * kc, bp, kc,
                       dst + ip * panel_stride, first, bias);
    }
  });
}

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
// kMc-row hidden panels, so each worker allocates once per larger request
// and every later GEMM reuses the buffer — no pool lookups and no
// shared_ptr churn from inside the parallel region, which is what lets the
// planned serving path (serve/plan.h) run with zero steady-state pool
// traffic. PackA, and MlpPrepacked's fc1 for its hidden panels, fully write
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
// element at a time and `v` is loaded as vectors. With `col_sums` it also
// writes S[l] = sum_r sum_y v_r[y][l], added from +0 in ascending (r, y) as
// each row of v arrives.
struct WgTile {
  const float* u;
  const float* v;
  int64_t ldu;
  int64_t ldv;
  int64_t batches;
  int64_t rows;
  int64_t mu;
  int64_t lanes;
  bool col_sums;
};

// The tile with kRows broadcast lines and kVecs vectors: each batch's
// partial starts at +0 and takes one fused multiply-add per row y (the
// instruction Tile8x8 and NarrowTile use), then joins the running sum,
// which also starts at +0, with one add. kSums adds each loaded row of v
// into the column sums too. Lanes of the last vector past `lanes` load as
// zero and are never stored.
template <int64_t kRows, int64_t kVecs, bool kSums>
void WeightGradTileOf(const WgTile& t, float (&tile)[kWgRows][kWgLanes],
                      float (&sums)[kWgLanes]) {
  const int64_t tail = t.lanes - 8 * (kVecs - 1);
  const __m256i mask = LaneMask(tail);
  __m256 sum[kRows][kVecs];
  for (auto& row : sum) {
    for (__m256& s : row) s = _mm256_setzero_ps();
  }
  __m256 col[kVecs];
  for (__m256& s : col) s = _mm256_setzero_ps();
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
      if constexpr (kSums) {
        for (int64_t q = 0; q < kVecs; ++q) {
          col[q] = _mm256_add_ps(col[q], vv[q]);
        }
      }
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
  if constexpr (kSums) {
    for (int64_t q = 0; q < kVecs; ++q) _mm256_storeu_ps(&sums[8 * q], col[q]);
  }
}

template <int64_t kRows, bool kSums>
void WeightGradTileRows(const WgTile& t, float (&tile)[kWgRows][kWgLanes],
                        float (&sums)[kWgLanes]) {
  switch (CeilDiv(t.lanes, 8)) {
    case 1: return WeightGradTileOf<kRows, 1, kSums>(t, tile, sums);
    case 2: return WeightGradTileOf<kRows, 2, kSums>(t, tile, sums);
    case 3: return WeightGradTileOf<kRows, 3, kSums>(t, tile, sums);
    default: return WeightGradTileOf<kRows, 4, kSums>(t, tile, sums);
  }
}

void WeightGradTile(const WgTile& t, float (&tile)[kWgRows][kWgLanes],
                    float (&sums)[kWgLanes]) {
  if (t.mu == 1) {
    t.col_sums ? WeightGradTileRows<1, true>(t, tile, sums)
               : WeightGradTileRows<1, false>(t, tile, sums);
  } else {
    t.col_sums ? WeightGradTileRows<kWgRows, true>(t, tile, sums)
               : WeightGradTileRows<kWgRows, false>(t, tile, sums);
  }
}

// `act` over `count` contiguous floats, in place. Relu / Sigmoid / Tanh are
// byte-for-byte tensor_ops.cc's expressions; Gelu is the one function
// tensor_ops.cc's Gelu also calls (tensor/gelu.h). Elementwise, so it runs
// over a whole row tile, or MlpPrepacked's hidden panels, as one span and no
// bit depends on the layout. `gelu_grad` (optional, kGelu only) receives
// GELU' from the same erf.
void ApplyActivation(float* c, float* gelu_grad, int64_t count,
                     Activation act) {
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

}  // namespace

// Bias add + activation over `rows` finished C rows, applied while the tile
// is cache-hot. The fp32 kernels add their bias in registers and call only
// the activation; the bias pass here serves the quantized kernel's dequant
// output (tensor/qgemm.h), which runs through the very same activation code.
void EpilogueBiasAct(float* c, float* gelu_grad, int64_t rows, int64_t n,
                     const float* bias, Activation act) {
  if (bias != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      float* row = c + r * n;
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  }
  ApplyActivation(c, gelu_grad, rows * n, act);
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

void PackBTransposed(const float* bt, int64_t k, int64_t n, float* packed) {
  // B's panel jp is rows [jp*kNr, jp*kNr + kNr) of bt, k deep: exactly the
  // A panel PackA makes of those rows (8 floats per k, zero past n).
  static_assert(kMr == kNr, "a packed A panel is a packed B panel of bt");
  runtime::ParallelFor(0, CeilDiv(n, kNr), kernel::GrainForWork(k * kNr),
                       [&](int64_t pb, int64_t pe) {
    for (int64_t jp = pb; jp < pe; ++jp) {
      PackA(bt + jp * kNr * k, k, std::min(kNr, n - jp * kNr), k,
            packed + jp * k * kNr);
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

// kKc-deep slices of a k-deep product; one empty slice when k == 0, so the
// kernels still write the bias (or +0) over the tile.
int64_t KSlices(int64_t k) { return std::max<int64_t>(1, CeilDiv(k, kKc)); }

// One kKc-deep slice [kc0, kc0 + kc) of a row tile: C rows [0, mc) (row
// stride n) (+)= the slice's packed A panels against each B panel. `bias` is
// non-null on the last slice only.
void SliceProduct(const float* a_pack, const float* packed_b, int64_t kc0,
                  int64_t kc, int64_t k, float* c, int64_t mc, int64_t n,
                  const float* bias) {
  const int64_t n_panels = CeilDiv(n, kNr);
  for (int64_t jp = 0; jp < n_panels; ++jp) {
    const int64_t j0 = jp * kNr;
    ColumnPanel(a_pack, packed_b + jp * k * kNr + kc0 * kNr, kc, c + j0, n,
                kc0 == 0, mc, std::min(kNr, n - j0),
                bias == nullptr ? nullptr : bias + j0);
  }
}

// One row tile of GemmPrepacked: rows [0, mc) of C (row stride n) from the
// same rows of A (row stride k), epilogue included. `scale` (nullptr, or
// the tile's rows of GemmScaledPrepacked's S) multiplies each element once
// after its last slice. `a_pack` holds kMc * min(k, kKc) floats.
void RowTile(const float* a, const float* packed_b, float* c, int64_t mc,
             int64_t k, int64_t n, const float* bias, Activation act,
             float* gelu_grad, const float* scale, float* a_pack) {
  const int64_t slices = KSlices(k);
  for (int64_t s = 0; s < slices; ++s) {
    const int64_t kc0 = s * kKc;
    const int64_t kc = std::min(kKc, k - kc0);
    PackA(a + kc0, k, mc, kc, a_pack);
    SliceProduct(a_pack, packed_b, kc0, kc, k, c, mc, n,
                 s + 1 == slices ? bias : nullptr);
  }
  if (scale != nullptr) {
    // Mul's expression, C first: one rounded product per finished chain.
    for (int64_t i = 0; i < mc * n; ++i) c[i] = c[i] * scale[i];
  }
  ApplyActivation(c, gelu_grad, mc * n, act);
}

// GemmPrepacked and GemmScaledPrepacked: every row tile through RowTile.
void PrepackedRowTiles(const float* a, const float* packed_b, float* c,
                       int64_t m, int64_t k, int64_t n, const float* bias,
                       Activation act, float* gelu_grad, const float* scale) {
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
              scale == nullptr ? nullptr : scale + i0 * n, a_pack);
    }
  });
}

// Floats of MlpPrepacked's hidden panels before h slice `hc0`: every earlier
// slice holds kKc columns of each of the row tile's `panels` A panels.
int64_t HiddenSliceOffset(int64_t hc0, int64_t panels) {
  return hc0 * panels * kMr;
}

// MlpPrepacked's fc1 for one row tile: act(A[mc, k] @ W1 + b1) lands in
// `hidden` as the kMr-row panels PackA would make of it for fc2, one set per
// kKc-deep slice of h (HiddenSliceOffset), each panel holding its slice's
// columns. Rows past mc hold what PackA's zero padding computes to; fc2
// turns them into accumulator lanes it never stores. `a_pack` holds
// kMc * min(k, kKc) floats.
void Fc1IntoPanels(const float* a, const MlpLayer& fc1, int64_t mc, int64_t k,
                   int64_t h, float* a_pack, float* hidden) {
  const int64_t panels = CeilDiv(mc, kMr);
  const int64_t h_panels = CeilDiv(h, kNr);
  const int64_t slices = KSlices(k);
  for (int64_t s = 0; s < slices; ++s) {
    const int64_t kc0 = s * kKc;
    const int64_t kc = std::min(kKc, k - kc0);
    PackA(a + kc0, k, mc, kc, a_pack);
    const bool last = s + 1 == slices;
    for (int64_t jp = 0; jp < h_panels; ++jp) {
      // kKc is a multiple of kNr, so a B panel never straddles two slices.
      const int64_t j0 = jp * kNr;
      const int64_t hc0 = j0 / kKc * kKc;
      const int64_t hc = std::min(kKc, h - hc0);
      PanelColumn(a_pack, fc1.packed_b + jp * k * kNr + kc0 * kNr, kc,
                  hidden + HiddenSliceOffset(hc0, panels) + (j0 - hc0) * kMr,
                  hc * kMr, s == 0, panels, std::min(kNr, h - j0),
                  last && fc1.bias != nullptr ? fc1.bias + j0 : nullptr);
    }
  }
  ApplyActivation(hidden, nullptr, panels * kMr * h, fc1.act);
}

}  // namespace

// msd-hot-path: innermost training/serving compute kernel.
void GemmPrepacked(const float* a, const float* packed_b, float* c, int64_t m,
                   int64_t k, int64_t n, const float* bias, Activation act,
                   float* gelu_grad) {
  PrepackedRowTiles(a, packed_b, c, m, k, n, bias, act, gelu_grad, nullptr);
}

void GemmScaledPrepacked(const float* a, const float* packed_b,
                         const float* scale, float* c, int64_t m, int64_t k,
                         int64_t n) {
  PrepackedRowTiles(a, packed_b, c, m, k, n, nullptr, Activation::kIdentity,
                    nullptr, scale);
}

// msd-hot-path: the serving MLP block's two GEMMs in one pass.
void MlpPrepacked(const float* a, const MlpLayer& fc1, const MlpLayer& fc2,
                  float* c, int64_t m, int64_t k, int64_t h, int64_t n) {
  if (m == 0 || n == 0) return;
  // Each row tile runs fc1 into the chunk's hidden panels, then fc2 from
  // them: every element is the FMA chain GemmPrepacked's tiles compute over
  // the same rows, so the result matches the two separate calls. The grain
  // is the larger GEMM's (the smaller of the two grains), not that of their
  // summed multiply-adds: the fused loop then splits only where one of the
  // separate calls would have, and adds no pool dispatch.
  const int64_t row_tiles = CeilDiv(m, kMc);
  const int64_t grain = std::min(RowTileGrain(k, h), RowTileGrain(h, n));
  runtime::ParallelFor(0, row_tiles, grain, [&](int64_t tb, int64_t te) {
    // The hidden panels sit past fc1's A pack in the same scratch, at a
    // 16-float (64-byte) offset.
    const int64_t pack_floats = CeilDiv(kMc * std::min(k, kKc), 16) * 16;
    float* a_pack = APackScratch(pack_floats + kMc * h);
    float* hidden = a_pack + pack_floats;
    for (int64_t t = tb; t < te; ++t) {
      const int64_t i0 = t * kMc;
      const int64_t mc = std::min(kMc, m - i0);
      const int64_t panels = CeilDiv(mc, kMr);
      Fc1IntoPanels(a + i0 * k, fc1, mc, k, h, a_pack, hidden);
      const int64_t slices = KSlices(h);
      for (int64_t s = 0; s < slices; ++s) {
        const int64_t hc0 = s * kKc;
        SliceProduct(hidden + HiddenSliceOffset(hc0, panels), fc2.packed_b,
                     hc0, std::min(kKc, h - hc0), h, c + i0 * n, mc, n,
                     s + 1 == slices ? fc2.bias : nullptr);
      }
      ApplyActivation(c + i0 * n, nullptr, mc * n, fc2.act);
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

bool SharedWeightGrad(const float* a, const float* g, float* dw,
                      int64_t batches, int64_t rows, int64_t k, int64_t n,
                      float* g_col_sums) {
  if (k == 0 || n == 0) return false;
  // Vectors run along whichever of dw's axes needs fewer of them (n on a
  // tie). Along n they are dw's rows; along k the tile holds dw^T, and
  // fma(a, g, acc) == fma(g, a, acc) keeps the bits.
  const bool along_n = k * CeilDiv(n, 8) <= n * CeilDiv(k, 8);
  // Along n each tile streams whole rows of g for its lanes; the first row
  // of tiles (u0 == 0) covers every lane once and also sums them.
  const bool sums = g_col_sums != nullptr && along_n;
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
                             std::min(kWgLanes, ldv - v0),
                             sums && u0 == 0};
      float tile[kWgRows][kWgLanes];
      float col[kWgLanes];
      WeightGradTile(tile_args, tile, col);
      if (tile_args.col_sums) {
        std::copy(col, col + tile_args.lanes, g_col_sums + v0);
      }
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
  return sums;
}

}  // namespace gemm
}  // namespace msd
