#include "tensor/gelu.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__AVX512F__) && defined(__AVX512DQ__)
// GCC 12's avx512fintrin.h reads _mm512_undefined_* values that, once
// inlined, trip -Werror=(maybe-)uninitialized (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace msd {
namespace kernel {

namespace {

constexpr float kInvSqrt2 = 0.70710678118654752f;
constexpr float kInvSqrt2Pi = 0.39894228040143267f;

}  // namespace

#if defined(__AVX512F__) && defined(__AVX512DQ__)

static_assert(kGeluLanes == 16);

namespace {

// Every helper below is one IEEE operation, and the code performs them in the
// order glibc 2.36's compiled erff / __expf_fma do, so each lane rounds
// exactly where libm rounds. That only holds because this file is built with
// -ffp-contract=off (src/tensor/CMakeLists.txt): GCC lowers _mm512_mul_ps /
// _mm512_add_ps to plain vector arithmetic and would otherwise fuse them.
__m512 F(float v) { return _mm512_set1_ps(v); }
__m512 Add(__m512 a, __m512 b) { return _mm512_add_ps(a, b); }
__m512 Sub(__m512 a, __m512 b) { return _mm512_sub_ps(a, b); }
__m512 Mul(__m512 a, __m512 b) { return _mm512_mul_ps(a, b); }
__m512 Div(__m512 a, __m512 b) { return _mm512_div_ps(a, b); }
// mask ? a : b, per lane.
__m512 Select(__mmask16 mask, __m512 a, __m512 b) {
  return _mm512_mask_blend_ps(mask, b, a);
}
// Lanes whose |x| bit pattern is below `bound` (both non-negative as int32).
__mmask16 Below(__m512i ix, int32_t bound) {
  return _mm512_cmplt_epi32_mask(ix, _mm512_set1_epi32(bound));
}

// Horner's rule as libm's source spells it, c[0] the highest degree:
// ((c[0]*s + c[1])*s + c[2])*s + ... + c[N-1], every step rounded.
template <size_t N>
__m512 Poly(__m512 s, const __m512 (&c)[N]) {
  __m512 acc = Add(Mul(c[0], s), c[1]);
  for (size_t i = 2; i < N; ++i) acc = Add(Mul(acc, s), c[i]);
  return acc;
}
template <size_t N>
__m512 Poly(__m512 s, const float (&c)[N]) {
  __m512 v[N];
  for (size_t i = 0; i < N; ++i) v[i] = F(c[i]);
  return Poly(s, v);
}

// ---- expf -------------------------------------------------------------------
// glibc 2.36's __expf_fma, the expf its run-time dispatcher picks on AVX2+FMA
// machines (Arm optimized-routines' expf, MIT licensed), evaluated in double:
// with k = round(x * 32/ln2) and r the remainder, exp(x) = 2^(k/32) * 2^(r/32),
// a 32-entry table for the first factor and a cubic in r for the second.
constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
constexpr double kShift = 0x1.8p+52;  // adding it rounds to an integer
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
// bits(2^(i/32)) - (i << 47): adding k << 47 gives bits(2^(k/32)).
alignas(64) constexpr long long kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// Eight lanes of the in-range path, widened to double.
__m256 Expf8(__m256 x) {
  const __m512d inv_ln2n = _mm512_set1_pd(kInvLn2N);
  const __m512d shift = _mm512_set1_pd(kShift);
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d kd = _mm512_fmadd_pd(inv_ln2n, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  const __m512d r = _mm512_fmsub_pd(inv_ln2n, xd, _mm512_sub_pd(kd, shift));
  const __m512i t = _mm512_add_epi64(
      _mm512_i64gather_epi64(_mm512_and_si512(ki, _mm512_set1_epi64(31)),
                             kExp2Table, 8),
      _mm512_slli_epi64(ki, 47));
  const __m512d z =
      _mm512_fmadd_pd(_mm512_set1_pd(kExpC0), r, _mm512_set1_pd(kExpC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kExpC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_cvtpd_ps(_mm512_mul_pd(y, _mm512_castsi512_pd(t)));
}

// expf on 16 lanes, with libm's result below log(2^-150): 0. NaN stays NaN.
// Every argument here is below 1 (<= 0 in GeluGrad), far from expf's
// overflow threshold, so that special case is not reproduced.
__m512 Expf16(__m512 x) {
  const __m512 y =
      _mm512_insertf32x8(_mm512_castps256_ps512(Expf8(_mm512_castps512_ps256(x))),
                         Expf8(_mm512_extractf32x8_ps(x, 1)), 1);
  return _mm512_maskz_mov_ps(
      _mm512_cmp_ps_mask(x, F(-0x1.9fe368p6f), _CMP_NLT_UQ), y);
}

// ---- erff -------------------------------------------------------------------
// fdlibm's s_erff.c, as glibc 2.36 compiles it. Coefficients are the source's
// (Copyright (C) 1993 by Sun Microsystems, Inc.; "Permission to use, copy,
// modify, and distribute this software is freely granted, provided that this
// notice is preserved."), highest degree first.
constexpr float kErx = 0x1.b0ac16p-1f;
constexpr float kEfx = 0x1.06eba8p-3f;
constexpr float kEfx16 = 0x1.06eba8p+1f;  // 16 * efx, exactly
// |x| < 0.84375: erf = x + x * pp(x^2) / qq(x^2).
constexpr float kPp[] = {-0x1.8ead62p-16f, -0x1.7a2912p-8f, -0x1.d2a51ep-6f,
                         -0x1.4cd7d6p-2f, 0x1.06eba8p-3f};
constexpr float kQq[] = {-0x1.09c434p-18f, 0x1.15dc92p-13f, 0x1.4d022cp-8f,
                         0x1.0a54c6p-4f, 0x1.97779cp-2f, 1.0f};
// 0.84375 <= |x| < 1.25: erf = erx + pa(|x|-1) / qa(|x|-1).
constexpr float kPa[] = {-0x1.1bf38p-9f,  0x1.22a366p-5f, -0x1.c63984p-4f,
                         0x1.45fca8p-2f,  -0x1.7d241p-2f, 0x1.a8d00ap-2f,
                         -0x1.359b8cp-9f};
constexpr float kQa[] = {0x1.88b546p-7f, 0x1.bedc26p-7f, 0x1.02660ep-3f,
                         0x1.2635cep-4f, 0x1.14af0ap-1f, 0x1.b3e662p-4f, 1.0f};
// 1.25 <= |x| < 6: erf = 1 - exp(-z*z - 0.5625) * exp((z-|x|)(z+|x|) + R/S)
// / |x|, with R, S polynomials in 1/x^2 whose coefficients switch at
// |x| = 1/0.35 (ra/sa below, rb/sb above). rb and sb lack the top term; a
// leading zero makes 0*s + c == c, so one Horner chain serves both sets.
constexpr float kRa[] = {-0x1.3a0efcp+3f, -0x1.452656p+6f, -0x1.7135cep+7f,
                         -0x1.44cb18p+7f, -0x1.f300aep+5f, -0x1.51e044p+3f,
                         -0x1.63416ep-1f, -0x1.434126p-7f};
constexpr float kSa[] = {-0x1.eeff2ep-5f, 0x1.a47ef8p+2f, 0x1.b28a3ep+6f,
                         0x1.ad0216p+8f,  0x1.42b192p+9f, 0x1.b290dep+8f,
                         0x1.1350c6p+7f,  0x1.3a6b9cp+4f, 1.0f};
constexpr float kRb[] = {0.0f,            -0x1.e384eap+8f, -0x1.004616p+10f,
                         -0x1.3ec882p+9f, -0x1.4145d4p+7f, -0x1.1c2096p+4f,
                         -0x1.993ba8p-1f, -0x1.434124p-7f};
constexpr float kSb[] = {0.0f,           -0x1.670e24p+4f, 0x1.da874ep+8f,
                         0x1.3f219cp+11f, 0x1.8ffb76p+11f, 0x1.802eb2p+10f,
                         0x1.45cae2p+8f,  0x1.e568b2p+4f,  1.0f};

// Coefficient set `a` where `use_a`, else `b`, per lane.
template <size_t N>
void SelectCoefficients(__mmask16 use_a, const float (&a)[N],
                        const float (&b)[N], __m512 (&out)[N]) {
  for (size_t i = 0; i < N; ++i) out[i] = Select(use_a, F(a[i]), F(b[i]));
}

// |x|'s bit pattern, as a non-negative int32 per lane.
__m512i AbsBits(__m512 x) {
  return _mm512_and_si512(_mm512_castps_si512(x),
                          _mm512_set1_epi32(0x7fffffff));
}

// libm's |x| range edges, as AbsBits values.
constexpr int32_t kMidBits = 0x3f580000;  // 0.84375
constexpr int32_t kBigBits = 0x3fa00000;  // 1.25

// erf for |x| < 0.84375 (`ix` = AbsBits(x)): x + x * pp(x^2) / qq(x^2). For
// |x| < 2^-28 libm returns x + efx*x instead, scaled by 16 below 2^-119 to
// dodge underflow; those blends run only when some lane is that small.
__m512 ErfSmall(__m512 x, __m512i ix) {
  const __m512 z = Mul(x, x);
  __m512 small = Add(x, Mul(x, Div(Poly(z, kPp), Poly(z, kQq))));
  const __mmask16 tiny = Below(ix, 0x31800000);
  if (tiny != 0) {
    small = Select(tiny, Add(x, Mul(F(kEfx), x)), small);
    small = Select(Below(ix, 0x04000000),
                   Mul(Add(Mul(F(16.0f), x), Mul(F(kEfx16), x)), F(0.0625f)),
                   small);
  }
  return small;
}

// erf for 0.84375 <= |x| < 1.25: +-(erx + pa(|x|-1) / qa(|x|-1)).
__m512 ErfMid(__m512 x) {
  const __m512 ax = _mm512_castsi512_ps(AbsBits(x));
  const __m512 s = Sub(ax, F(1.0f));
  const __m512 e = Add(F(kErx), Div(Poly(s, kPa), Poly(s, kQa)));
  return _mm512_or_ps(_mm512_andnot_ps(ax, x), e);
}

// libm's four |x| ranges become lane masks. Every lane starts at the
// |x| >= 6 answer; each other range is evaluated only when some lane is in
// it, then blended in.
__m512 Erff16(__m512 x) {
  const __m512i ix = AbsBits(x);
  const __m512 ax = _mm512_castsi512_ps(ix);
  const __m512 sign = _mm512_andnot_ps(ax, x);
  // |x| >= 6 and +-inf: +-1 (libm: one - tiny, rounded). NaN stays NaN.
  __m512 y = Select(_mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), x,
                    _mm512_or_ps(sign, F(1.0f)));
  const __mmask16 below_mid = Below(ix, kMidBits);
  const __mmask16 below_big = Below(ix, kBigBits);
  const __mmask16 below_huge = Below(ix, 0x40c00000);  // |x| < 6
  const __mmask16 mid = _kandn_mask16(below_mid, below_big);
  const __mmask16 big = _kandn_mask16(below_big, below_huge);
  if (below_mid != 0) y = Select(below_mid, ErfSmall(x, ix), y);
  if (mid != 0) y = Select(mid, ErfMid(x), y);
  if (big != 0) {
    const __m512 s = Div(F(1.0f), Mul(ax, ax));
    const __mmask16 near = Below(ix, 0x4036db6e);  // |x| < 1/0.35
    __m512 r_coef[8];
    __m512 s_coef[9];
    SelectCoefficients(near, kRa, kRb, r_coef);
    SelectCoefficients(near, kSa, kSb, s_coef);
    const __m512 rs = Div(Poly(s, r_coef), Poly(s, s_coef));
    // z: |x| with the low 12 mantissa bits cleared.
    const __m512 z = _mm512_castsi512_ps(_mm512_and_si512(
        ix, _mm512_set1_epi32(static_cast<int32_t>(0xfffff000))));
    const __m512 neg_z = _mm512_xor_ps(z, F(-0.0f));
    const __m512 r =
        Mul(Expf16(Sub(Mul(neg_z, z), F(0.5625f))),
            Expf16(Add(Mul(Sub(z, ax), Add(z, ax)), rs)));
    y = Select(big, _mm512_or_ps(sign, Sub(F(1.0f), Div(r, ax))), y);
  }
  return y;
}

// x / sqrt 2, the argument of the one erf GELU and its derivative share.
__m512 Scaled(__m512 x) { return Mul(x, F(kInvSqrt2)); }

__m512 GeluFromErf(__m512 x, __m512 e) {
  return Mul(Mul(F(0.5f), x), Add(F(1.0f), e));
}

// The final add stays unfused, as in the scalar build: 0.5f * (1 + e) is
// exact, so fusing it changes nothing, while fma(x, phi_small, phi_big)
// would skip rounding x * phi_small.
__m512 GeluGradFromErf(__m512 x, __m512 e) {
  const __m512 phi_big = Mul(F(0.5f), Add(F(1.0f), e));
  const __m512 phi_small =
      Mul(Expf16(Mul(Mul(F(-0.5f), x), x)), F(kInvSqrt2Pi));
  return Add(phi_big, Mul(x, phi_small));
}

// ---- Range-compacted spans --------------------------------------------------
// On MSD-Mixer's pre-activations ~94% of erf arguments fall in the cheap
// |u| < 0.84375 range, but a third of 16-lane vectors hold some lane beyond
// it, and Erff16 then pays that lane's formula on all sixteen. The spans
// therefore split each kBlock-element block into three passes:
//  1. every vector runs the small-range formula, stores only its small
//     lanes, and appends the other lanes' offsets to a mid list
//     (0.84375 <= |u| < 1.25) or a rest list (|u| >= 1.25, +-inf, NaN);
//  2. the mid list is gathered 16 lanes at a time through ErfMid and the
//     results scattered back;
//  3. the rest list likewise through the whole Erff16.
// Each lane still takes the formula libm's branch picks for it, so the bits
// do not change. Pass 1 writes only its own lanes, so passes 2 and 3 gather
// an untouched x even in place (y == x).
constexpr int64_t kBlock = 1024;

// Where pass 1 writes: the `lanes` of the vector at element `at`.
struct StoreAt {
  int64_t at;
  __mmask16 lanes;
  void operator()(float* dst, __m512 v) const {
    _mm512_mask_storeu_ps(dst + at, lanes, v);
  }
};

// Where passes 2 and 3 write: `lanes` of the offsets `idx` from block `base`.
struct ScatterTo {
  int64_t base;
  __m512i idx;
  __mmask16 lanes;
  void operator()(float* dst, __m512 v) const {
    _mm512_mask_i32scatter_ps(dst + base, lanes, idx, v, 4);
  }
};

// The lanes [0, count) of a vector, count <= 16.
__mmask16 FirstLanes(int64_t count) {
  return count >= 16 ? __mmask16{0xffff}
                     : static_cast<__mmask16>((1u << count) - 1);
}

// Appends the element offsets of `lanes` (offsets `at`) to `list`.
void Append(int32_t* list, int& size, __mmask16 lanes, __m512i at) {
  _mm512_storeu_si512(list + size, _mm512_maskz_compress_epi32(lanes, at));
  size += std::popcount(static_cast<unsigned>(lanes));
}

// Runs `emit(put, x, erf(x / sqrt 2))` once per element of x[0, n), where
// `put(dst, v)` writes v's lanes to the element's slots of dst (one output
// span per call).
template <typename Emit>
void CompactedSpan(const float* x, int64_t n, Emit emit) {
  // 16 slack slots: Append stores whole vectors.
  alignas(64) int32_t mid[kBlock + 16];
  alignas(64) int32_t rest[kBlock + 16];
  const __m512i iota =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  for (int64_t base = 0; base < n; base += kBlock) {
    const int64_t len = std::min(kBlock, n - base);
    const float* xb = x + base;
    int mids = 0;
    int rests = 0;
    for (int64_t i = 0; i < len; i += 16) {
      const __mmask16 lanes = FirstLanes(len - i);
      const __m512 v = _mm512_maskz_loadu_ps(lanes, xb + i);
      const __m512 u = Scaled(v);
      const __m512i iu = AbsBits(u);
      const __mmask16 small = Below(iu, kMidBits) & lanes;
      if (small != 0) emit(StoreAt{base + i, small}, v, ErfSmall(u, iu));
      if (small == lanes) continue;
      const __mmask16 mid_lanes =
          _kandn_mask16(small, Below(iu, kBigBits)) & lanes;
      const __m512i at =
          _mm512_add_epi32(_mm512_set1_epi32(static_cast<int32_t>(i)), iota);
      Append(mid, mids, mid_lanes, at);
      Append(rest, rests, lanes & ~(small | mid_lanes), at);
    }
    for (int j = 0; j < mids; j += 16) {
      const __mmask16 lanes = FirstLanes(mids - j);
      const __m512i idx = _mm512_maskz_loadu_epi32(lanes, mid + j);
      const __m512 v =
          _mm512_mask_i32gather_ps(_mm512_setzero_ps(), lanes, idx, xb, 4);
      emit(ScatterTo{base, idx, lanes}, v, ErfMid(Scaled(v)));
    }
    for (int j = 0; j < rests; j += 16) {
      const __mmask16 lanes = FirstLanes(rests - j);
      const __m512i idx = _mm512_maskz_loadu_epi32(lanes, rest + j);
      // Missing lanes read 16, whose erf is Erff16's cheapest (|u| >= 6).
      const __m512 v =
          _mm512_mask_i32gather_ps(F(16.0f), lanes, idx, xb, 4);
      emit(ScatterTo{base, idx, lanes}, v, Erff16(Scaled(v)));
    }
  }
}

}  // namespace

void GeluSpan(const float* x, float* y, int64_t n) {
  CompactedSpan(x, n, [y](const auto& put, __m512 v, __m512 e) {
    put(y, GeluFromErf(v, e));
  });
}

void GeluGradSpan(const float* x, float* y, int64_t n) {
  CompactedSpan(x, n, [y](const auto& put, __m512 v, __m512 e) {
    put(y, GeluGradFromErf(v, e));
  });
}

void GeluAndGradSpan(const float* x, float* y, float* dy, int64_t n) {
  CompactedSpan(x, n, [y, dy](const auto& put, __m512 v, __m512 e) {
    put(y, GeluFromErf(v, e));
    put(dy, GeluGradFromErf(v, e));
  });
}

#else  // scalar libm

static_assert(kGeluLanes == 1);

namespace {

float GeluFromErf(float v, float e) { return 0.5f * v * (1.0f + e); }

float GeluGradFromErf(float v, float e) {
  const float phi_big = 0.5f * (1.0f + e);
  const float phi_small = std::exp(-0.5f * v * v) * kInvSqrt2Pi;
  return phi_big + v * phi_small;
}

}  // namespace

void GeluSpan(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = GeluFromErf(v, std::erf(v * kInvSqrt2));
  }
}

void GeluGradSpan(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = GeluGradFromErf(v, std::erf(v * kInvSqrt2));
  }
}

void GeluAndGradSpan(const float* x, float* y, float* dy, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float e = std::erf(v * kInvSqrt2);
    y[i] = GeluFromErf(v, e);
    dy[i] = GeluGradFromErf(v, e);
  }
}

#endif

}  // namespace kernel
}  // namespace msd
