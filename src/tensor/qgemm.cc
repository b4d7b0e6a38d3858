#include "tensor/qgemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/kernels.h"
#include "tensor/transpose8x8.h"

namespace msd {
namespace qgemm {

namespace {

// Geometry. Row tiles of kMc rows are the parallel unit (same as the fp32
// kernel); within a tile the register micro-kernel covers kQr rows x kNr
// columns. k is padded to quads (kKq) so one 64-bit broadcast feeds four
// ascending-k steps through two vpmaddwd. There is no kKc spill loop: the
// int32 accumulators are exact, so a tile accumulates its entire k extent in
// registers and never round-trips partial sums through C.
constexpr int64_t kQr = 4;
constexpr int64_t kNr = 8;
constexpr int64_t kMc = 64;
constexpr int64_t kKq = 4;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

int64_t KQuads(int64_t k) { return std::max<int64_t>(CeilDiv(k, kKq), 1); }

// Round-to-nearest-even int8 quantization of one value against `inv_scale`
// (127 / absmax). nearbyintf under the ambient FE_TONEAREST mode rounds
// exactly like the AVX2 path's cvtps2dq, and clamping at the float stage
// commutes with rounding because the bounds are integers.
int32_t QuantValue(float v, float inv_scale) {
  const float r = std::nearbyintf(v * inv_scale);
  const float clamped = std::min(127.0f, std::max(-127.0f, r));
  return static_cast<int32_t>(clamped);
}

}  // namespace

int64_t PackedQuantBInt8s(int64_t k, int64_t n) {
  return CeilDiv(n, kNr) * kNr * KQuads(k) * kKq;
}

int64_t QuantBScaleFloats(int64_t n) { return CeilDiv(n, kNr) * kNr; }

int64_t QuantARowInt16s(int64_t k) { return KQuads(k) * kKq; }

void QuantizeWeightsPerChannel(const float* b, int64_t k, int64_t n,
                               int8_t* packed, float* scales) {
  MSD_CHECK_GE(k, 0);
  MSD_CHECK_GE(n, 1);
  MSD_CHECK_LE(k, kMaxK);
  const int64_t n_panels = CeilDiv(n, kNr);
  const int64_t k_quads = KQuads(k);
  // Per-column absmax -> scale. Padding columns get scale 0 (their packed
  // values are 0, and the dequant epilogue never stores past n anyway).
  for (int64_t j = 0; j < n_panels * kNr; ++j) scales[j] = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    float absmax = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      absmax = std::max(absmax, std::fabs(b[kk * n + j]));
    }
    scales[j] = absmax / 127.0f;
  }
  // Panel jp holds columns [jp*kNr, jp*kNr + kNr) with k grouped in quads:
  // quad q stores, per column, the four values k = 4q..4q+3 contiguously
  // (bytes [0, 16) cover columns j0..j0+3, bytes [16, 32) columns
  // j0+4..j0+7) — after sign extension each 16-byte half is exactly one
  // vpmaddwd operand against a broadcast activation quad. Zero-padded past
  // n and past k.
  for (int64_t jp = 0; jp < n_panels; ++jp) {
    int8_t* dst = packed + jp * k_quads * kKq * kNr;
    const int64_t j0 = jp * kNr;
    for (int64_t q = 0; q < k_quads; ++q) {
      for (int64_t jj = 0; jj < kNr; ++jj) {
        for (int64_t t = 0; t < kKq; ++t) {
          const int64_t kk = kKq * q + t;
          const int64_t j = j0 + jj;
          int32_t qv = 0;
          if (kk < k && j < n && scales[j] > 0.0f) {
            qv = QuantValue(b[kk * n + j], 1.0f / scales[j]);
          }
          dst[q * kKq * kNr + jj * kKq + t] = static_cast<int8_t>(qv);
        }
      }
    }
  }
}

// msd-hot-path: per-request activation quantization on the planned path.
void QuantizeActivationsPerRow(const float* a, int64_t m, int64_t k,
                               int16_t* a_q, float* a_scales) {
  const int64_t stride = QuantARowInt16s(k);
  runtime::ParallelFor(0, m, kernel::GrainForWork(k), [&](int64_t rb,
                                                          int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* src = a + i * k;
      int16_t* dst = a_q + i * stride;
      float absmax = 0.0f;
      int64_t kk = 0;
      if (k >= 8) {
        const __m256 sign_mask = _mm256_set1_ps(-0.0f);
        __m256 vmax = _mm256_setzero_ps();
        for (; kk + 8 <= k; kk += 8) {
          vmax = _mm256_max_ps(
              vmax, _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(src + kk)));
        }
        // In-register horizontal max (max is associative/commutative over
        // absolute values, so this equals the scalar fold).
        __m128 mx = _mm_max_ps(_mm256_castps256_ps128(vmax),
                               _mm256_extractf128_ps(vmax, 1));
        mx = _mm_max_ps(mx, _mm_movehl_ps(mx, mx));
        mx = _mm_max_ss(mx, _mm_shuffle_ps(mx, mx, 1));
        absmax = _mm_cvtss_f32(mx);
      }
      for (; kk < k; ++kk) absmax = std::max(absmax, std::fabs(src[kk]));
      a_scales[i] = absmax / 127.0f;
      if (absmax > 0.0f) {
        const float inv = 127.0f / absmax;
        kk = 0;
        const __m256 vinv = _mm256_set1_ps(inv);
        const __m256 vhi = _mm256_set1_ps(127.0f);
        const __m256 vlo = _mm256_set1_ps(-127.0f);
        for (; kk + 16 <= k; kk += 16) {
          __m256 x0 = _mm256_mul_ps(_mm256_loadu_ps(src + kk), vinv);
          __m256 x1 = _mm256_mul_ps(_mm256_loadu_ps(src + kk + 8), vinv);
          x0 = _mm256_max_ps(vlo, _mm256_min_ps(vhi, x0));
          x1 = _mm256_max_ps(vlo, _mm256_min_ps(vhi, x1));
          // cvtps2dq rounds per the ambient MXCSR mode (nearest-even),
          // matching QuantValue's nearbyintf; clamping before the convert
          // commutes with rounding on the integer bounds.
          const __m256i q0 = _mm256_cvtps_epi32(x0);
          const __m256i q1 = _mm256_cvtps_epi32(x1);
          // packs interleaves the two 128-bit lanes; permute restores
          // element order before the contiguous int16 store.
          const __m256i packed = _mm256_permute4x64_epi64(
              _mm256_packs_epi32(q0, q1), _MM_SHUFFLE(3, 1, 2, 0));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + kk), packed);
        }
        for (; kk + 8 <= k; kk += 8) {
          __m256 x = _mm256_mul_ps(_mm256_loadu_ps(src + kk), vinv);
          x = _mm256_max_ps(vlo, _mm256_min_ps(vhi, x));
          const __m256i q = _mm256_cvtps_epi32(x);
          const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                            _mm256_extracti128_si256(q, 1));
          _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + kk), w);
        }
        for (; kk < k; ++kk) {
          dst[kk] = static_cast<int16_t>(QuantValue(src[kk], inv));
        }
      } else {
        for (kk = 0; kk < k; ++kk) dst[kk] = 0;
      }
      for (kk = k; kk < stride; ++kk) dst[kk] = 0;
    }
  });
}

namespace {

// e^z for eight lanes, z <= 0 (clamped to -87 where e^z underflows to 0
// anyway): exp2 range reduction with a degree-6 polynomial on the
// fractional part, relative error ~1e-7.
inline __m256 Exp8NonPos(__m256 z) {
  z = _mm256_max_ps(z, _mm256_set1_ps(-87.0f));
  const __m256 t = _mm256_mul_ps(z, _mm256_set1_ps(1.44269504088896341f));
  const __m256 r =
      _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 f = _mm256_sub_ps(t, r);
  __m256 p = _mm256_set1_ps(1.54035303933816e-4f);
  p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(1.33335581464284e-3f));
  p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(9.61812910762848e-3f));
  p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(5.55041086648216e-2f));
  p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(2.40226506959101e-1f));
  p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(6.93147180559945e-1f));
  p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(1.0f));
  // Scale by 2^r via exponent-field arithmetic; r >= -126 after the clamp.
  const __m256i e = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(r), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(e));
}

// Vectorized gelu for the quantized epilogue: the tanh form
// 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))) with tanh evaluated via
// Exp8NonPos on -2|y|. Absolute error vs the exact erf gelu is ~3e-4 — an
// order of magnitude below the int8 quantization noise. The exact gelu
// (tensor/gelu.h) is vectorized as well, but its libm-faithful erff/expf
// port costs many times this per element and would eat most of the int8
// win on gelu layers (docs/PERFORMANCE.md). Only the quantized path uses
// it; the fp32 kernels keep the exact formula and their fp32 bit-identity
// contract.
inline __m256 Gelu8(__m256 x) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 x2 = _mm256_mul_ps(x, x);
  // sqrt(2/pi) * (x + 0.044715 x^3) = x * (c0 + c1 * x^2).
  const __m256 inner = _mm256_mul_ps(
      x, _mm256_add_ps(_mm256_set1_ps(0.797884560802865f),
                       _mm256_mul_ps(_mm256_set1_ps(0.0356774081363f), x2)));
  const __m256 ay = _mm256_andnot_ps(sign_mask, inner);
  const __m256 sign = _mm256_and_ps(sign_mask, inner);
  const __m256 t = Exp8NonPos(_mm256_mul_ps(ay, _mm256_set1_ps(-2.0f)));
  // tanh(|y|) = (1 - e^-2|y|) / (1 + e^-2|y|), then restore the sign.
  const __m256 th = _mm256_or_ps(
      _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t)), sign);
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), x),
                       _mm256_add_ps(one, th));
}

// Bias + activation for the quantized path. Gelu takes the vectorized
// approximation above (deterministic: one fixed expression per element,
// tail columns go through the same vector code via a padded buffer); every
// other activation shares gemm::EpilogueBiasAct verbatim.
void QuantEpilogue(float* c, int64_t rows, int64_t n, const float* bias,
                   gemm::Activation act) {
  if (act == gemm::Activation::kGelu) {
    for (int64_t r = 0; r < rows; ++r) {
      float* row = c + r * n;
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256 v = _mm256_loadu_ps(row + j);
        if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j));
        _mm256_storeu_ps(row + j, Gelu8(v));
      }
      if (j < n) {
        float buf[8] = {0.0f};
        float bbuf[8] = {0.0f};
        const int64_t rem = n - j;
        std::memcpy(buf, row + j, rem * sizeof(float));
        if (bias != nullptr) std::memcpy(bbuf, bias + j, rem * sizeof(float));
        __m256 v = _mm256_add_ps(_mm256_loadu_ps(buf), _mm256_loadu_ps(bbuf));
        _mm256_storeu_ps(buf, Gelu8(v));
        std::memcpy(row + j, buf, rem * sizeof(float));
      }
    }
    return;
  }
  gemm::EpilogueBiasAct(c, nullptr, rows, n, bias, act);
}

// kQr x kNr register micro-kernel over the full k extent: for each quad the
// packed B half-panels sign-extend to two vpmaddwd operands and each row
// contributes one 64-bit broadcast (four int16 activations), so every
// madd covers four ascending-k products of four columns' partial pairs.
// acc_lo holds columns 0..3 as (even, odd) int32 partial pairs, acc_hi
// columns 4..7; hadd + one permute collapse them to column order before the
// dequant multiply. `rows`/`cols` trim the edge stores; edge row pointers
// must alias a valid row (their lanes are computed and discarded).
void QMicroKernel(const int16_t* const* rows_p, const float* row_scales,
                  const int8_t* bp, const float* bs, int64_t k_quads,
                  float* c, int64_t ldc, int64_t rows, int64_t cols) {
  __m256i acc_lo[kQr];
  __m256i acc_hi[kQr];
  for (int64_t i = 0; i < kQr; ++i) {
    acc_lo[i] = _mm256_setzero_si256();
    acc_hi[i] = _mm256_setzero_si256();
  }
  for (int64_t q = 0; q < k_quads; ++q) {
    const __m256i blo = _mm256_cvtepi8_epi16(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bp + q * kKq * kNr)));
    const __m256i bhi = _mm256_cvtepi8_epi16(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bp + q * kKq * kNr + 16)));
    for (int64_t i = 0; i < kQr; ++i) {
      int64_t quad;
      std::memcpy(&quad, rows_p[i] + q * kKq, sizeof(quad));
      const __m256i av = _mm256_set1_epi64x(quad);
#if defined(__AVXVNNI__)
      // VEX-encoded vpdpwssd fuses the madd and the accumulate (exact: the
      // int32 sums are identical to madd + add).
      acc_lo[i] = _mm256_dpwssd_avx_epi32(acc_lo[i], av, blo);
      acc_hi[i] = _mm256_dpwssd_avx_epi32(acc_hi[i], av, bhi);
#else
      acc_lo[i] = _mm256_add_epi32(acc_lo[i], _mm256_madd_epi16(av, blo));
      acc_hi[i] = _mm256_add_epi32(acc_hi[i], _mm256_madd_epi16(av, bhi));
#endif
    }
  }
  const __m256i order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  const __m256 bscale = _mm256_loadu_ps(bs);
  for (int64_t i = 0; i < rows; ++i) {
    // hadd lanes: [c0,c1,c4,c5 | c2,c3,c6,c7] -> permute to column order.
    const __m256i sums = _mm256_permutevar8x32_epi32(
        _mm256_hadd_epi32(acc_lo[i], acc_hi[i]), order);
    const __m256 f = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_cvtepi32_ps(sums), _mm256_set1_ps(row_scales[i])),
        bscale);
    if (cols == kNr) {
      _mm256_storeu_ps(c + i * ldc, f);
    } else {
      float buf[kNr];
      _mm256_storeu_ps(buf, f);
      for (int64_t j = 0; j < cols; ++j) c[i * ldc + j] = buf[j];
    }
  }
}

}  // namespace

// msd-hot-path: innermost quantized serving compute kernel.
void QGemmPrepacked(const int16_t* a_q, const float* a_scales,
                    const int8_t* packed_b, const float* b_scales, float* c,
                    int64_t m, int64_t k, int64_t n, const float* bias,
                    gemm::Activation act) {
  if (m == 0 || n == 0) return;
  MSD_CHECK_LE(k, kMaxK);
  const int64_t stride = QuantARowInt16s(k);
  const int64_t k_quads = KQuads(k);
  const int64_t row_tiles = CeilDiv(m, kMc);
  const int64_t n_panels = CeilDiv(n, kNr);
  // One whole row tile per loop iteration, same contract as the fp32
  // kernel: the chunk partition decides only which thread runs a tile —
  // and integer accumulation is exact anyway.
  runtime::ParallelFor(0, row_tiles, 1, [&](int64_t tb, int64_t te) {
    for (int64_t t = tb; t < te; ++t) {
      const int64_t i0 = t * kMc;
      const int64_t mc = std::min(kMc, m - i0);
      for (int64_t ig = 0; ig < mc; ig += kQr) {
        const int64_t rows = std::min(kQr, mc - ig);
        const int16_t* rows_p[kQr];
        float row_scales[kQr];
        for (int64_t r = 0; r < kQr; ++r) {
          // Edge rows alias row 0 of the group; their lanes are computed
          // into accumulators that are never stored.
          const int64_t idx = i0 + ig + (r < rows ? r : 0);
          rows_p[r] = a_q + idx * stride;
          row_scales[r] = a_scales[idx];
        }
        for (int64_t jp = 0; jp < n_panels; ++jp) {
          const int64_t j0 = jp * kNr;
          QMicroKernel(rows_p, row_scales, packed_b + jp * k_quads * kKq * kNr,
                       b_scales + j0, k_quads, c + (i0 + ig) * n + j0, n, rows,
                       std::min(kNr, n - j0));
        }
      }
      if (bias != nullptr || act != gemm::Activation::kIdentity) {
        QuantEpilogue(c + i0 * n, mc, n, bias, act);
      }
    }
  });
}

}  // namespace qgemm
}  // namespace msd
