#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HSDL_QUANT_AVX2 1
#endif

#include "common/check.hpp"
#include "common/cpuinfo.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {
namespace {

std::uint8_t saturate_u7(long v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0L, 127L));
}

ActQuant observe(const Tensor& x) {
  float lo = x[0], hi = x[0];
  for (std::size_t i = 1; i < x.numel(); ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  return calibrate_act(lo, hi);
}

/// Per-output-channel symmetric weight quantization of `rows` rows of
/// `cols` weights. Fills qw, per-row int sums and per-row combined
/// dequant scale s_in * sw[row].
void quantize_weights(const float* w, std::size_t rows, std::size_t cols,
                      float in_scale, std::vector<std::int8_t>* qw,
                      std::vector<std::int32_t>* wsum,
                      std::vector<float>* combined) {
  qw->resize(rows * cols);
  wsum->resize(rows);
  combined->resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    float m = 0.0f;
    for (std::size_t j = 0; j < cols; ++j) m = std::max(m, std::fabs(row[j]));
    const float sw = m > 0.0f ? m / 127.0f : 1.0f;
    std::int32_t sum = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      const long q = std::clamp(std::lround(row[j] / sw), -127L, 127L);
      (*qw)[r * cols + j] = static_cast<std::int8_t>(q);
      sum += static_cast<std::int32_t>(q);
    }
    (*wsum)[r] = sum;
    (*combined)[r] = in_scale * sw;
  }
}

/// Dequant + bias + optional ReLU for one int32 accumulator.
inline float dequant_acc(std::int32_t acc, std::int32_t corr, float scale,
                         float bias, bool relu) {
  float v = static_cast<float>(acc - corr) * scale + bias;
  if (relu && v < 0.0f) v = 0.0f;
  return v;
}

// ---------------------------------------------------------------------------
// Input quantization: whole rows of fp32 -> u8. The scalar twin uses
// std::lrintf (round-to-nearest-even under the default fp environment),
// which is exactly what _mm256_cvtps_epi32 does, so both variants emit
// identical bytes. Out-of-range conversions produce the sign-independent
// integer-indefinite value in both paths and clamp the same way.

void quantize_row_scalar(const float* in, std::size_t n, const ActQuant& q,
                         std::uint8_t* out) {
  for (std::size_t j = 0; j < n; ++j)
    out[j] = saturate_u7(std::lrintf(in[j] * q.inv_scale) + q.zero_point);
}

#ifdef HSDL_QUANT_AVX2
__attribute__((target("avx2"))) void quantize_row_avx2(const float* in,
                                                       std::size_t n,
                                                       const ActQuant& q,
                                                       std::uint8_t* out) {
  const __m256 inv = _mm256_set1_ps(q.inv_scale);
  const __m256i zp = _mm256_set1_epi32(q.zero_point);
  const __m256i hi = _mm256_set1_epi32(127);
  const __m256i lo = _mm256_setzero_si256();
  // Gathers byte 0 of each dword within each 128-bit lane, then pulls the
  // two lanes' dwords together so the 8 packed bytes sit in the low qword.
  const __m256i shuf = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 1, 1, 1, 1, 1);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i v =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(in + j), inv));
    v = _mm256_add_epi32(v, zp);
    v = _mm256_max_epi32(_mm256_min_epi32(v, hi), lo);
    v = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(v, shuf), perm);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j),
                     _mm256_castsi256_si128(v));
  }
  for (; j < n; ++j)
    out[j] = saturate_u7(std::lrintf(in[j] * q.inv_scale) + q.zero_point);
}
#endif

// ---------------------------------------------------------------------------
// int8 conv drivers. Integer accumulation is exact (products <= 127*127,
// reductions far below 2^31), so summation order cannot change the result:
// the scalar and AVX2 drivers are bitwise identical with no fp caveats in
// the accumulation, and the requant epilogues round identically (see the
// input-quantization note above).
//
// Each driver runs the WHOLE conv — tap loop, axpy, epilogue — inside one
// function. The per-function target attribute blocks inlining of helper
// kernels into a differently-targeted caller, and at serving shapes the
// call per tap-row (13k+ calls for the first conv) costs more than the
// arithmetic; folding the nest into the driver removes all of it.
//
// Stride 1 borrows the fp32 direct kernel's plane trick: the int32
// accumulator plane uses the padded row stride pw, so one weight tap
// updates the plane with a single contiguous axpy of oh*pw elements
// instead of oh separate ow-wide rows. Lanes ox in [ow, pw) accumulate
// values the epilogue never reads, and the axpy may read up to kernel-1
// bytes past the padded image, which the pad buffer's slack absorbs.

constexpr std::size_t kQuantPadSlack = 16;  // >= kernel; covers over-read

/// Everything a conv driver needs (Op is private to QuantizedNet, so the
/// run loop flattens the relevant fields into this view).
struct QConvArgs {
  const std::uint8_t* pad;  ///< padded input, in_channels * ph * pw + slack
  const std::int8_t* qweight;
  const std::int32_t* wsum;
  const float* combined_scale;
  const float* bias;
  std::int32_t zp_in = 0;
  float out_inv_scale = 1.0f;
  std::int32_t out_zp = 0;
  bool fuse_relu = false;
  std::size_t in_channels = 0, ph = 0, pw = 0, oh = 0, ow = 0;
  std::size_t out_channels = 0, kernel = 0, stride = 1;
  /// Fused max-pool window (0 or 1 = no pooling). Requantization is
  /// monotone non-decreasing in the accumulator (all scales positive),
  /// so max-then-requant equals the unfused requant-then-byte-max bit
  /// for bit — fusing just skips the intermediate u8 plane and requants
  /// window*window fewer values.
  std::size_t pool = 0;
  std::int32_t* plane = nullptr;  ///< 2x oh*pw (stride 1) or oh*ow scratch
  std::uint8_t* out = nullptr;
  /// Stride-1 precompute from Op (null for strided convs): padded-image
  /// tap offsets and packed pmaddwd weight pairs (see Op::tap_off/wpair).
  const std::size_t* tap_off = nullptr;
  const std::int32_t* wpair = nullptr;
};

void qconv_run_scalar(const QConvArgs& a) {
  const std::size_t k = a.kernel;
  const std::size_t kk = a.in_channels * k * k;
  const std::size_t row_stride = a.stride == 1 ? a.pw : a.ow;
  const std::size_t n = a.oh * row_stride;
  for (std::size_t oc = 0; oc < a.out_channels; ++oc) {
    std::int32_t* plane = a.plane;
    for (std::size_t j = 0; j < n; ++j) plane[j] = 0;
    const std::int8_t* wrow = a.qweight + oc * kk;
    for (std::size_t c = 0; c < a.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          const std::int32_t w = wrow[(c * k + ky) * k + kx];
          if (w == 0) continue;
          const std::uint8_t* src = a.pad + (c * a.ph + ky) * a.pw + kx;
          if (a.stride == 1) {
            for (std::size_t j = 0; j < n; ++j)
              plane[j] += w * static_cast<std::int32_t>(src[j]);
          } else {
            for (std::size_t oy = 0; oy < a.oh; ++oy) {
              const std::uint8_t* row = src + oy * a.stride * a.pw;
              std::int32_t* prow = plane + oy * a.ow;
              for (std::size_t ox = 0; ox < a.ow; ++ox)
                prow[ox] += w * static_cast<std::int32_t>(row[ox * a.stride]);
            }
          }
        }
      }
    }
    const std::int32_t corr = a.zp_in * a.wsum[oc];
    const float cs = a.combined_scale[oc];
    const float bv = a.bias[oc];
    if (a.pool > 1) {
      const std::size_t p = a.pool;
      const std::size_t oph = a.oh / p, opw = a.ow / p;
      std::uint8_t* oplane = a.out + oc * oph * opw;
      for (std::size_t py = 0; py < oph; ++py) {
        for (std::size_t px = 0; px < opw; ++px) {
          std::int32_t m = plane[py * p * row_stride + px * p];
          for (std::size_t wy = 0; wy < p; ++wy) {
            const std::int32_t* pr =
                plane + (py * p + wy) * row_stride + px * p;
            for (std::size_t wx = 0; wx < p; ++wx) m = std::max(m, pr[wx]);
          }
          const float v = dequant_acc(m, corr, cs, bv, a.fuse_relu);
          oplane[py * opw + px] =
              saturate_u7(std::lrintf(v * a.out_inv_scale) + a.out_zp);
        }
      }
    } else {
      std::uint8_t* oplane = a.out + oc * a.oh * a.ow;
      for (std::size_t oy = 0; oy < a.oh; ++oy) {
        const std::int32_t* pr = plane + oy * row_stride;
        std::uint8_t* orow = oplane + oy * a.ow;
        for (std::size_t ox = 0; ox < a.ow; ++ox) {
          const float v = dequant_acc(pr[ox], corr, cs, bv, a.fuse_relu);
          orow[ox] =
              saturate_u7(std::lrintf(v * a.out_inv_scale) + a.out_zp);
        }
      }
    }
  }
}

#ifdef HSDL_QUANT_AVX2
/// Requant epilogue for one output channel reading accumulators from
/// `plane` (row stride `row_stride`). Identical arithmetic to the scalar
/// driver's epilogue.
__attribute__((target("avx2"))) void qconv_epilogue_avx2(
    const QConvArgs& a, std::size_t oc, const std::int32_t* plane,
    std::size_t row_stride) {
  const std::int32_t corr = a.zp_in * a.wsum[oc];
  const float cs = a.combined_scale[oc];
  const float bv = a.bias[oc];
  if (a.pool > 1) {
    // Pooled epilogue: the window max runs scalar into a small i32
    // staging row (few cells: the serving convs pool 2x2 down to 36 per
    // channel), then the same 8-lane requant as the unpooled path below
    // sweeps the staged maxes. lrintf and _mm256_cvtps_epi32 both round
    // to nearest even, so the split changes no bytes.
    const std::size_t p = a.pool;
    const std::size_t oph = a.oh / p, opw = a.ow / p;
    const std::size_t m = oph * opw;
    thread_local std::vector<std::int32_t> maxes;
    maxes.resize(m);
    for (std::size_t py = 0; py < oph; ++py) {
      for (std::size_t px = 0; px < opw; ++px) {
        std::int32_t mx = plane[py * p * row_stride + px * p];
        for (std::size_t wy = 0; wy < p; ++wy) {
          const std::int32_t* pr =
              plane + (py * p + wy) * row_stride + px * p;
          for (std::size_t wx = 0; wx < p; ++wx) mx = std::max(mx, pr[wx]);
        }
        maxes[py * opw + px] = mx;
      }
    }
    std::uint8_t* oplane = a.out + oc * m;
    if (m >= 8) {
      const __m256i hi = _mm256_set1_epi32(127);
      const __m256i lo = _mm256_setzero_si256();
      const __m256i zpv = _mm256_set1_epi32(a.out_zp);
      const __m256 invv = _mm256_set1_ps(a.out_inv_scale);
      const __m256i shuf = _mm256_setr_epi8(
          0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
          0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
      const __m256i perm = _mm256_setr_epi32(0, 4, 1, 1, 1, 1, 1, 1);
      const __m256i corrv = _mm256_set1_epi32(corr);
      const __m256 csv = _mm256_set1_ps(cs);
      const __m256 bvv = _mm256_set1_ps(bv);
      const std::size_t nvec = (m + 7) / 8;
      for (std::size_t ti = 0; ti < nvec; ++ti) {
        const std::size_t j = std::min(ti * 8, m - 8);  // overlap tail
        const __m256 d = _mm256_cvtepi32_ps(_mm256_sub_epi32(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(maxes.data() + j)),
            corrv));
        __m256 v = _mm256_add_ps(_mm256_mul_ps(d, csv), bvv);
        if (a.fuse_relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
        __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, invv));
        q = _mm256_add_epi32(q, zpv);
        q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
        q = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(q, shuf), perm);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(oplane + j),
                         _mm256_castsi256_si128(q));
      }
    } else {
      for (std::size_t j = 0; j < m; ++j) {
        const float v = dequant_acc(maxes[j], corr, cs, bv, a.fuse_relu);
        oplane[j] =
            saturate_u7(std::lrintf(v * a.out_inv_scale) + a.out_zp);
      }
    }
    return;
  }
  const __m256i hi = _mm256_set1_epi32(127);
  const __m256i lo = _mm256_setzero_si256();
  const __m256i zpv = _mm256_set1_epi32(a.out_zp);
  const __m256 invv = _mm256_set1_ps(a.out_inv_scale);
  const __m256i shuf = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 1, 1, 1, 1, 1);
  const __m256i corrv = _mm256_set1_epi32(corr);
  const __m256 csv = _mm256_set1_ps(cs);
  const __m256 bvv = _mm256_set1_ps(bv);
  std::uint8_t* oplane = a.out + oc * a.oh * a.ow;
  for (std::size_t oy = 0; oy < a.oh; ++oy) {
    const std::int32_t* pr = plane + oy * row_stride;
    std::uint8_t* orow = oplane + oy * a.ow;
    std::size_t ox = 0;
    for (; ox + 8 <= a.ow; ox += 8) {
      const __m256 d = _mm256_cvtepi32_ps(_mm256_sub_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pr + ox)),
          corrv));
      __m256 v = _mm256_add_ps(_mm256_mul_ps(d, csv), bvv);
      if (a.fuse_relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
      __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, invv));
      q = _mm256_add_epi32(q, zpv);
      q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
      q = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(q, shuf), perm);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(orow + ox),
                       _mm256_castsi256_si128(q));
    }
    if (ox < a.ow && a.ow >= 8) {
      // Remainder: re-run one vector shifted to end at ow; overlapped
      // lanes recompute identical bytes.
      ox = a.ow - 8;
      const __m256 d = _mm256_cvtepi32_ps(_mm256_sub_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pr + ox)),
          corrv));
      __m256 v = _mm256_add_ps(_mm256_mul_ps(d, csv), bvv);
      if (a.fuse_relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
      __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, invv));
      q = _mm256_add_epi32(q, zpv);
      q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
      q = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(q, shuf), perm);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(orow + ox),
                       _mm256_castsi256_si128(q));
      ox = a.ow;
    }
    for (; ox < a.ow; ++ox) {
      const float v = dequant_acc(pr[ox], corr, cs, bv, a.fuse_relu);
      orow[ox] = saturate_u7(std::lrintf(v * a.out_inv_scale) + a.out_zp);
    }
  }
}

__attribute__((target("avx2"))) void qconv_run_avx2(const QConvArgs& a) {
  const std::size_t k = a.kernel;
  const std::size_t kk = a.in_channels * k * k;
  const std::size_t row_stride = a.stride == 1 ? a.pw : a.ow;
  const std::size_t n = a.oh * row_stride;
  // Stride-1 accumulation pairs consecutive taps for pmaddwd (i16
  // products of u7 x s8 inputs: |w0*x0 + w1*x1| <= 2*127*127 < 2^15 per
  // madd half, and the dword sums stay far below 2^31 over <= kk taps),
  // with the partial sums held in registers for a 16-lane output tile.
  // Two output channels run per sweep so each input load is shared.
  // Integer accumulation is exact, so the pairing, the interleaved lane
  // layout inside the tile, and the overlapped remainder tile all yield
  // the same accumulator values as the scalar tap-by-tap loop.
  if (a.stride == 1) {
    const std::size_t pairs = (kk + 1) / 2;
    const std::size_t* tap_off = a.tap_off;
    const std::size_t ntiles = n >= 16 ? (n + 15) / 16 : 0;
    for (std::size_t oc0 = 0; oc0 < a.out_channels; oc0 += 2) {
      const std::size_t nc = std::min<std::size_t>(2, a.out_channels - oc0);
      const std::int32_t* wpair0 = a.wpair + oc0 * pairs;
      const std::int32_t* wpair1 = a.wpair + (oc0 + nc - 1) * pairs;
      for (std::size_t ti = 0; ti < ntiles; ++ti) {
        const std::size_t j = std::min(ti * 16, n - 16);
        __m256i acc0_a = _mm256_setzero_si256();  // lanes 0-3 | 8-11
        __m256i acc0_b = _mm256_setzero_si256();  // lanes 4-7 | 12-15
        __m256i acc1_a = _mm256_setzero_si256();
        __m256i acc1_b = _mm256_setzero_si256();
        for (std::size_t t = 0; t < pairs; ++t) {
          const std::uint8_t* s0 = a.pad + tap_off[2 * t] + j;
          const std::uint8_t* s1 =
              2 * t + 1 < kk ? a.pad + tap_off[2 * t + 1] + j : s0;
          const __m256i va = _mm256_cvtepu8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(s0)));
          const __m256i vb = _mm256_cvtepu8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(s1)));
          const __m256i ilo = _mm256_unpacklo_epi16(va, vb);
          const __m256i ihi = _mm256_unpackhi_epi16(va, vb);
          const __m256i wp0 = _mm256_set1_epi32(wpair0[t]);
          acc0_a = _mm256_add_epi32(acc0_a, _mm256_madd_epi16(ilo, wp0));
          acc0_b = _mm256_add_epi32(acc0_b, _mm256_madd_epi16(ihi, wp0));
          if (nc == 2) {
            const __m256i wp1 = _mm256_set1_epi32(wpair1[t]);
            acc1_a = _mm256_add_epi32(acc1_a, _mm256_madd_epi16(ilo, wp1));
            acc1_b = _mm256_add_epi32(acc1_b, _mm256_madd_epi16(ihi, wp1));
          }
        }
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(a.plane + j),
            _mm256_permute2x128_si256(acc0_a, acc0_b, 0x20));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(a.plane + j + 8),
            _mm256_permute2x128_si256(acc0_a, acc0_b, 0x31));
        if (nc == 2) {
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(a.plane + n + j),
              _mm256_permute2x128_si256(acc1_a, acc1_b, 0x20));
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(a.plane + n + j + 8),
              _mm256_permute2x128_si256(acc1_a, acc1_b, 0x31));
        }
      }
      if (ntiles == 0) {
        for (std::size_t q = 0; q < nc; ++q) {
          const std::int8_t* wrow = a.qweight + (oc0 + q) * kk;
          for (std::size_t j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (std::size_t t = 0; t < kk; ++t)
              acc += static_cast<std::int32_t>(wrow[t]) *
                     static_cast<std::int32_t>(a.pad[tap_off[t] + j]);
            a.plane[q * n + j] = acc;
          }
        }
      }
      for (std::size_t q = 0; q < nc; ++q)
        qconv_epilogue_avx2(a, oc0 + q, a.plane + q * n, row_stride);
    }
    return;
  }
  for (std::size_t oc = 0; oc < a.out_channels; ++oc) {
    std::int32_t* plane = a.plane;
    const std::int8_t* wrow = a.qweight + oc * kk;
    for (std::size_t j = 0; j < n; ++j) plane[j] = 0;
    for (std::size_t c = 0; c < a.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          const std::int32_t w = wrow[(c * k + ky) * k + kx];
          if (w == 0) continue;
          const std::uint8_t* src = a.pad + (c * a.ph + ky) * a.pw + kx;
          for (std::size_t oy = 0; oy < a.oh; ++oy) {
            const std::uint8_t* row = src + oy * a.stride * a.pw;
            std::int32_t* prow = plane + oy * a.ow;
            for (std::size_t ox = 0; ox < a.ow; ++ox)
              prow[ox] += w * static_cast<std::int32_t>(row[ox * a.stride]);
          }
        }
      }
    }
    qconv_epilogue_avx2(a, oc, plane, row_stride);
  }
}

__attribute__((target("avx2"))) std::int32_t qdot_avx2(
    const std::int8_t* w, const std::uint8_t* in, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256i wv = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + j)));
    const __m256i iv = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + j)));
    const __m256i prod = _mm256_mullo_epi16(wv, iv);
    acc = _mm256_add_epi32(
        acc, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
    acc = _mm256_add_epi32(
        acc, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int32_t a = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                   lanes[5] + lanes[6] + lanes[7];
  for (; j < n; ++j)
    a += static_cast<std::int32_t>(w[j]) * static_cast<std::int32_t>(in[j]);
  return a;
}
#endif

std::int32_t qdot_scalar(const std::int8_t* w, const std::uint8_t* in,
                         std::size_t n) {
  std::int32_t a = 0;
  for (std::size_t j = 0; j < n; ++j)
    a += static_cast<std::int32_t>(w[j]) * static_cast<std::int32_t>(in[j]);
  return a;
}

}  // namespace

std::uint8_t quantize_value(float x, const ActQuant& q) {
  // Round-to-nearest-even via the precomputed reciprocal, matching the
  // vectorized kernels (_mm256_cvtps_epi32) bit for bit.
  return saturate_u7(std::lrintf(x * q.inv_scale) + q.zero_point);
}

float dequantize_value(std::uint8_t v, const ActQuant& q) {
  return static_cast<float>(static_cast<std::int32_t>(v) - q.zero_point) *
         q.scale;
}

ActQuant calibrate_act(float lo, float hi) {
  // Always cover 0 so padding / ReLU zeros land exactly on the grid.
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  ActQuant q;
  if (!(hi - lo > 0.0f)) return q;  // constant tensor: scale 1, zp 0
  q.scale = (hi - lo) / 127.0f;
  q.inv_scale = 1.0f / q.scale;
  q.zero_point =
      static_cast<std::int32_t>(std::clamp(std::lround(-lo / q.scale), 0L,
                                           127L));
  return q;
}

QuantizedNet::QuantizedNet(const Sequential& net, const Tensor& calibration) {
  HSDL_CHECK_MSG(net.size() >= 1, "empty net");
  HSDL_CHECK_MSG(calibration.dim() >= 2 && calibration.extent(0) >= 1,
                 "calibration needs a [N, ...] batch");
  const auto& cshape = calibration.shape();
  in_shape_.assign(cshape.begin() + 1, cshape.end());
  in_numel_ = 1;
  for (std::size_t d : in_shape_) in_numel_ *= d;
  max_act_ = in_numel_;

  WorkspaceArena ws;  // outputs and scratch for the fp32 replay below
  Tensor x = calibration;
  ActQuant cur = observe(x);
  input_q_ = cur;

  std::size_t i = 0;
  while (i < net.size()) {
    const Layer* l = &net.layer(i);
    if (const auto* conv = dynamic_cast<const Conv2d*>(l)) {
      const Conv2dConfig& c = conv->config();
      Op op;
      op.kind = OpKind::kConv;
      op.in_channels = c.in_channels;
      op.height = x.extent(2);
      op.width = x.extent(3);
      op.out_channels = c.out_channels;
      op.kernel = c.kernel;
      op.stride = c.stride;
      op.padding = c.padding;
      op.in_q = cur;
      quantize_weights(conv->weight().value.data(), c.out_channels,
                       c.in_channels * c.kernel * c.kernel, cur.scale,
                       &op.qweight, &op.wsum, &op.combined_scale);
      op.bias.assign(conv->bias().value.data(),
                     conv->bias().value.data() + c.out_channels);
      if (op.stride == 1) {
        const std::size_t k = op.kernel;
        const std::size_t kk = op.in_channels * k * k;
        const std::size_t ph = op.height + 2 * op.padding;
        const std::size_t pw = op.width + 2 * op.padding;
        op.tap_off.resize(kk);
        for (std::size_t ic = 0; ic < op.in_channels; ++ic)
          for (std::size_t ky = 0; ky < k; ++ky)
            for (std::size_t kx = 0; kx < k; ++kx)
              op.tap_off[(ic * k + ky) * k + kx] = (ic * ph + ky) * pw + kx;
        const std::size_t pairs = (kk + 1) / 2;
        op.wpair.resize(op.out_channels * pairs);
        for (std::size_t oc = 0; oc < op.out_channels; ++oc) {
          const std::int8_t* wrow = op.qweight.data() + oc * kk;
          for (std::size_t t = 0; t < pairs; ++t) {
            const std::int32_t w0 = wrow[2 * t];
            const std::int32_t w1 = 2 * t + 1 < kk ? wrow[2 * t + 1] : 0;
            op.wpair[oc * pairs + t] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(static_cast<std::uint16_t>(w0)) |
                (static_cast<std::uint32_t>(static_cast<std::uint16_t>(w1))
                 << 16));
          }
        }
      }
      op.fuse_relu =
          i + 1 < net.size() &&
          dynamic_cast<const Relu*>(&net.layer(i + 1)) != nullptr;
      x = op.fuse_relu ? conv->infer_relu(x, ws) : conv->infer(x, ws);
      i += op.fuse_relu ? 2 : 1;
      cur = observe(x);
      op.out_q = cur;
      max_pad_ = std::max(
          max_pad_, op.in_channels * (op.height + 2 * op.padding) *
                        (op.width + 2 * op.padding));
      max_act_ = std::max(max_act_, x.numel() / x.extent(0));
      ops_.push_back(std::move(op));
    } else if (const auto* pool = dynamic_cast<const MaxPool2d*>(l)) {
      Op op;
      op.kind = OpKind::kPool;
      op.in_channels = x.extent(1);
      op.height = x.extent(2);
      op.width = x.extent(3);
      op.window = pool->window();
      op.in_q = op.out_q = cur;  // max() commutes with the monotone quant map
      x = pool->infer(x, ws);
      ++i;
      ops_.push_back(std::move(op));
    } else if (const auto* lin = dynamic_cast<const Linear*>(l)) {
      Op op;
      op.kind = OpKind::kLinear;
      op.in_features = lin->in_features();
      op.out_features = lin->out_features();
      op.in_q = cur;
      quantize_weights(lin->weight().value.data(), op.out_features,
                       op.in_features, cur.scale, &op.qweight, &op.wsum,
                       &op.combined_scale);
      op.bias.assign(lin->bias().value.data(),
                     lin->bias().value.data() + op.out_features);
      op.fuse_relu =
          i + 1 < net.size() &&
          dynamic_cast<const Relu*>(&net.layer(i + 1)) != nullptr;
      x = op.fuse_relu ? lin->infer_relu(x, ws) : lin->infer(x, ws);
      i += op.fuse_relu ? 2 : 1;
      cur = observe(x);
      op.out_q = cur;
      max_act_ = std::max(max_act_, op.out_features);
      ops_.push_back(std::move(op));
    } else if (dynamic_cast<const Flatten*>(l) != nullptr) {
      x = l->infer(x, ws);  // layout only: the u8 buffer is already flat
      ++i;
    } else if (dynamic_cast<const Dropout*>(l) != nullptr) {
      ++i;  // identity at inference
    } else {
      HSDL_CHECK_MSG(false, "cannot quantize layer: " << l->name());
    }
  }
  HSDL_CHECK_MSG(!ops_.empty() && ops_.back().kind == OpKind::kLinear,
                 "quantized net must end in a Linear classifier");
  ops_.back().fp32_out = true;
  classes_ = ops_.back().out_features;
}

std::uint32_t QuantizedNet::fingerprint() const {
  io::ByteWriter w;
  const auto act = [&](const ActQuant& q) {
    w.f32(q.scale);
    w.u32(static_cast<std::uint32_t>(q.zero_point));
  };
  act(input_q_);
  for (const Op& op : ops_) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.bytes(op.qweight.data(), op.qweight.size());
    w.f32_array(op.combined_scale.data(), op.combined_scale.size());
    w.f32_array(op.bias.data(), op.bias.size());
    act(op.in_q);
    act(op.out_q);
  }
  return io::crc32(w.buffer());
}

std::size_t QuantizedNet::num_quantized_layers() const {
  std::size_t n = 0;
  for (const Op& op : ops_)
    if (op.kind != OpKind::kPool) ++n;
  return n;
}

void QuantizedNet::run_sample(const float* in, float* probs_out) const {
  thread_local std::vector<std::uint8_t> bufa, bufb, pad;
  thread_local std::vector<std::int32_t> plane;
  thread_local std::vector<float> logits;
  bufa.resize(max_act_);
  bufb.resize(max_act_);
  pad.resize(max_pad_ + kQuantPadSlack);
  logits.resize(classes_);

  const bool avx2 = cpu::has_avx2_fma();
  (void)avx2;

  std::uint8_t* curb = bufa.data();
  std::uint8_t* nextb = bufb.data();
#ifdef HSDL_QUANT_AVX2
  if (avx2)
    quantize_row_avx2(in, in_numel_, input_q_, curb);
  else
#endif
    quantize_row_scalar(in, in_numel_, input_q_, curb);

  for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
    const Op& op = ops_[oi];
    switch (op.kind) {
      case OpKind::kConv: {
        const std::size_t ph = op.height + 2 * op.padding;
        const std::size_t pw = op.width + 2 * op.padding;
        const std::size_t oh =
            (op.height + 2 * op.padding - op.kernel) / op.stride + 1;
        const std::size_t ow =
            (op.width + 2 * op.padding - op.kernel) / op.stride + 1;
        const std::uint8_t zp = static_cast<std::uint8_t>(op.in_q.zero_point);
        // Padded copy: borders hold the zero point, which dequantizes to
        // exactly 0 — no bounds checks in the kernels. The slack bytes
        // also hold zp; the plane path's tail over-read touches them, but
        // only into accumulator lanes the epilogue never reads. Every
        // element is written per call (borders + slack explicitly,
        // interior copied), so the reused scratch never needs a full fill.
        const std::size_t p = op.padding;
        for (std::size_t c = 0; c < op.in_channels; ++c) {
          std::uint8_t* img = pad.data() + c * ph * pw;
          std::fill(img, img + p * pw, zp);
          for (std::size_t y = 0; y < op.height; ++y) {
            std::uint8_t* dst = img + (y + p) * pw;
            std::fill(dst, dst + p, zp);
            std::copy_n(curb + (c * op.height + y) * op.width, op.width,
                        dst + p);
            std::fill(dst + p + op.width, dst + pw, zp);
          }
          std::fill(img + (p + op.height) * pw, img + ph * pw, zp);
        }
        std::uint8_t* slack = pad.data() + op.in_channels * ph * pw;
        std::fill(slack, slack + kQuantPadSlack, zp);
        // 2x: the AVX2 stride-1 path accumulates two output channels per
        // sweep, each into its own plane segment.
        plane.resize(2 * oh * (op.stride == 1 ? pw : ow));
        // Fold an immediately following max-pool into the epilogue when
        // its geometry matches the conv output (see QConvArgs::pool).
        std::size_t fused_pool = 0;
        if (oi + 1 < ops_.size()) {
          const Op& next = ops_[oi + 1];
          if (next.kind == OpKind::kPool && next.window > 1 &&
              next.in_channels == op.out_channels && next.height == oh &&
              next.width == ow) {
            fused_pool = next.window;
          }
        }
        QConvArgs args;
        args.pad = pad.data();
        args.qweight = op.qweight.data();
        args.wsum = op.wsum.data();
        args.combined_scale = op.combined_scale.data();
        args.bias = op.bias.data();
        args.zp_in = op.in_q.zero_point;
        args.out_inv_scale = op.out_q.inv_scale;
        args.out_zp = op.out_q.zero_point;
        args.fuse_relu = op.fuse_relu;
        args.in_channels = op.in_channels;
        args.ph = ph;
        args.pw = pw;
        args.oh = oh;
        args.ow = ow;
        args.out_channels = op.out_channels;
        args.kernel = op.kernel;
        args.stride = op.stride;
        args.pool = fused_pool;
        args.plane = plane.data();
        args.out = nextb;
        args.tap_off = op.tap_off.data();
        args.wpair = op.wpair.data();
#ifdef HSDL_QUANT_AVX2
        if (avx2)
          qconv_run_avx2(args);
        else
#endif
          qconv_run_scalar(args);
        if (fused_pool > 0) ++oi;  // the pool ran inside the epilogue
        std::swap(curb, nextb);
        break;
      }
      case OpKind::kPool: {
        const std::size_t oh = op.height / op.window;
        const std::size_t ow = op.width / op.window;
        for (std::size_t c = 0; c < op.in_channels; ++c) {
          const std::uint8_t* iplane = curb + c * op.height * op.width;
          std::uint8_t* oplane = nextb + c * oh * ow;
          for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              std::uint8_t m = 0;
              for (std::size_t wy = 0; wy < op.window; ++wy) {
                const std::uint8_t* row =
                    iplane + (oy * op.window + wy) * op.width + ox * op.window;
                for (std::size_t wx = 0; wx < op.window; ++wx)
                  m = std::max(m, row[wx]);
              }
              oplane[oy * ow + ox] = m;
            }
          }
        }
        std::swap(curb, nextb);
        break;
      }
      case OpKind::kLinear: {
        for (std::size_t o = 0; o < op.out_features; ++o) {
          const std::int8_t* wrow = op.qweight.data() + o * op.in_features;
          std::int32_t a;
#ifdef HSDL_QUANT_AVX2
          if (avx2)
            a = qdot_avx2(wrow, curb, op.in_features);
          else
#endif
            a = qdot_scalar(wrow, curb, op.in_features);
          const float v =
              dequant_acc(a, op.in_q.zero_point * op.wsum[o],
                          op.combined_scale[o], op.bias[o], op.fuse_relu);
          if (op.fp32_out)
            logits[o] = v;
          else
            nextb[o] = quantize_value(v, op.out_q);
        }
        if (!op.fp32_out) std::swap(curb, nextb);
        break;
      }
    }
  }
  softmax_row(logits.data(), classes_, probs_out);
}

Tensor QuantizedNet::probabilities(const Tensor& input,
                                   WorkspaceArena& ws) const {
  HSDL_CHECK_MSG(input.dim() >= 2 && input.numel() ==
                     input.extent(0) * in_numel_,
                 "input shape mismatch vs calibration: " << input.shape_str());
  const std::size_t n = input.extent(0);
  Tensor out = ws.take({n, classes_});
  HSDL_TRACE_SPAN("quant.infer");
  hsdl::parallel_for(0, n, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      run_sample(input.data() + i * in_numel_, out.data() + i * classes_);
  });
  return out;
}

}  // namespace hsdl::nn
