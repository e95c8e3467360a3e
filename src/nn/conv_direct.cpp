#include "nn/conv_direct.hpp"

#include <algorithm>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HSDL_CONV_DIRECT_AVX2 1
#endif

#include "common/cpuinfo.hpp"

#define HSDL_RESTRICT __restrict__

namespace hsdl::nn {
namespace {

/// Output index range [*o0, *o1) for kernel offset `k_off` whose input
/// index o*stride + k_off - padding lands inside [0, in_extent). Outputs
/// outside this range would read padding (exact zeros), whose
/// contribution is a bitwise no-op — see the header.
inline void valid_out_range(std::size_t out_extent, std::size_t in_extent,
                            std::size_t k_off, std::size_t stride,
                            std::size_t padding, std::size_t* o0,
                            std::size_t* o1) {
  std::size_t lo = 0;
  if (k_off < padding) lo = (padding - k_off + stride - 1) / stride;
  const long long top = static_cast<long long>(in_extent) - 1 +
                        static_cast<long long>(padding) -
                        static_cast<long long>(k_off);
  if (top < 0) {
    *o0 = *o1 = 0;
    return;
  }
  const std::size_t hi =
      std::min(out_extent, static_cast<std::size_t>(top) / stride + 1);
  *o0 = std::min(lo, hi);
  *o1 = hi;
}

/// Bias + optional ReLU epilogue over one output channel plane. Same
/// arithmetic as the unfused path (bias pass, then Relu::infer's
/// `v > 0 ? v : 0`), just without materializing the intermediate.
inline void bias_relu_epilogue(float* HSDL_RESTRICT plane, std::size_t n,
                               float bias, bool fuse_relu) {
  if (fuse_relu) {
    for (std::size_t j = 0; j < n; ++j) {
      const float v = plane[j] + bias;
      plane[j] = v > 0.0f ? v : 0.0f;
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) plane[j] += bias;
  }
}

// ---------------------------------------------------------------------------
// Stride-1 plane path.
//
// The generic body below updates each output row tap by tap, but serving
// feature maps are narrow (12 wide): every row update is one partial
// vector plus a scalar tail plus the valid-range bookkeeping, and that
// overhead dominates the arithmetic. The stride-1 path instead copies the
// input into an explicitly padded buffer and gives the accumulator plane
// the SAME row stride pw as the padded input. Then one weight tap updates
// the whole plane with a single contiguous axpy of oh*pw elements — long
// enough to vectorize cleanly. The k-1 lanes per row beyond ow accumulate
// values no one reads (the epilogue copies only the first ow of each row)
// and the axpy may read up to kernel-1 floats past the last input channel,
// which the scratch buffer's slack absorbs.
//
// Bitwise: each real output element still accumulates taps in ascending
// p = (c, ky, kx) order with one multiply + one add per tap, now including
// the padded positions' w * (+0.0) terms — exactly the products the
// im2col + gemm_naive reference adds (its im2col buffer holds +0.0 for
// padding, and it too skips zero weights).

constexpr std::size_t kPadSlack = 16;  // >= kernel; covers the over-read

struct Stride1Scratch {
  std::vector<float> pad;    ///< in_c x ph x pw (+ slack), borders +0.0
  std::vector<float> plane;  ///< oh x pw accumulator, tail lanes garbage
};

Stride1Scratch& stride1_scratch() {
  thread_local Stride1Scratch s;
  return s;
}

/// Fills the padded copy; returns the padded row width pw. Every element
/// is written each call — borders and slack zeroed explicitly, interior
/// rows copied — so the reused scratch never needs a full clear.
std::size_t fill_padded(const float* in, const ConvDirectShape& s,
                        std::vector<float>* pad) {
  const std::size_t ph = s.height + 2 * s.padding;
  const std::size_t pw = s.width + 2 * s.padding;
  const std::size_t p = s.padding;
  const std::size_t total = s.in_channels * ph * pw;
  pad->resize(total + kPadSlack);
  float* base = pad->data();
  for (std::size_t c = 0; c < s.in_channels; ++c) {
    float* img = base + c * ph * pw;
    std::fill(img, img + p * pw, 0.0f);  // top border rows
    for (std::size_t y = 0; y < s.height; ++y) {
      float* dst = img + (y + p) * pw;
      std::fill(dst, dst + p, 0.0f);
      std::copy_n(in + (c * s.height + y) * s.width, s.width, dst + p);
      std::fill(dst + p + s.width, dst + pw, 0.0f);
    }
    std::fill(img + (p + s.height) * pw, img + ph * pw, 0.0f);  // bottom
  }
  std::fill(base + total, base + total + kPadSlack, 0.0f);
  return pw;
}

void conv_plane_scalar(const float* HSDL_RESTRICT pad,
                       const float* HSDL_RESTRICT weight,
                       const float* HSDL_RESTRICT bias,
                       const ConvDirectShape& s, bool fuse_relu,
                       float* HSDL_RESTRICT plane,
                       float* HSDL_RESTRICT out) {
  const std::size_t oh = s.out_height(), ow = s.out_width();
  const std::size_t ph = s.height + 2 * s.padding;
  const std::size_t pw = s.width + 2 * s.padding;
  const std::size_t k = s.kernel;
  const std::size_t kk = s.in_channels * k * k;
  const std::size_t n = oh * pw;
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t j = 0; j < n; ++j) plane[j] = 0.0f;
    const float* wrow = weight + oc * kk;
    for (std::size_t c = 0; c < s.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float w = wrow[(c * k + ky) * k + kx];
          if (w == 0.0f) continue;
          const float* HSDL_RESTRICT src = pad + (c * ph + ky) * pw + kx;
          for (std::size_t j = 0; j < n; ++j) plane[j] += w * src[j];
        }
      }
    }
    const float b = bias[oc];
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* pr = plane + oy * pw;
      float* orow = out + (oc * oh + oy) * ow;
      if (fuse_relu) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float v = pr[ox] + b;
          orow[ox] = v > 0.0f ? v : 0.0f;
        }
      } else {
        for (std::size_t ox = 0; ox < ow; ++ox) orow[ox] = pr[ox] + b;
      }
    }
  }
}

#ifdef HSDL_CONV_DIRECT_AVX2
__attribute__((target("avx2"))) void conv_plane_avx2(
    const float* HSDL_RESTRICT pad, const float* HSDL_RESTRICT weight,
    const float* HSDL_RESTRICT bias, const ConvDirectShape& s,
    bool fuse_relu, float* HSDL_RESTRICT plane, float* HSDL_RESTRICT out) {
  const std::size_t oh = s.out_height(), ow = s.out_width();
  const std::size_t ph = s.height + 2 * s.padding;
  const std::size_t pw = s.width + 2 * s.padding;
  const std::size_t k = s.kernel;
  const std::size_t kk = s.in_channels * k * k;
  const std::size_t n = oh * pw;
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    const float* wrow = weight + oc * kk;
    // Register-blocked accumulation: each tile of output lanes walks the
    // whole tap list with the partial sums held in ymm registers, so the
    // plane is written exactly once per lane instead of re-loaded and
    // re-stored for every tap. Per output lane the tap order and the
    // separate multiply + add per tap are unchanged, so every lane rounds
    // exactly like the tap-by-tap loop above.
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      for (std::size_t c = 0; c < s.in_channels; ++c) {
        for (std::size_t ky = 0; ky < k; ++ky) {
          const float* HSDL_RESTRICT row = pad + (c * ph + ky) * pw + j;
          for (std::size_t kx = 0; kx < k; ++kx) {
            const float w = wrow[(c * k + ky) * k + kx];
            if (w == 0.0f) continue;
            const float* HSDL_RESTRICT src = row + kx;
            const __m256 wv = _mm256_set1_ps(w);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(wv, _mm256_loadu_ps(src)));
            a1 = _mm256_add_ps(a1,
                               _mm256_mul_ps(wv, _mm256_loadu_ps(src + 8)));
            a2 = _mm256_add_ps(a2,
                               _mm256_mul_ps(wv, _mm256_loadu_ps(src + 16)));
            a3 = _mm256_add_ps(a3,
                               _mm256_mul_ps(wv, _mm256_loadu_ps(src + 24)));
          }
        }
      }
      _mm256_storeu_ps(plane + j, a0);
      _mm256_storeu_ps(plane + j + 8, a1);
      _mm256_storeu_ps(plane + j + 16, a2);
      _mm256_storeu_ps(plane + j + 24, a3);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 a0 = _mm256_setzero_ps();
      for (std::size_t c = 0; c < s.in_channels; ++c) {
        for (std::size_t ky = 0; ky < k; ++ky) {
          const float* HSDL_RESTRICT row = pad + (c * ph + ky) * pw + j;
          for (std::size_t kx = 0; kx < k; ++kx) {
            const float w = wrow[(c * k + ky) * k + kx];
            if (w == 0.0f) continue;
            const __m256 wv = _mm256_set1_ps(w);
            a0 = _mm256_add_ps(a0,
                               _mm256_mul_ps(wv, _mm256_loadu_ps(row + kx)));
          }
        }
      }
      _mm256_storeu_ps(plane + j, a0);
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < s.in_channels; ++c) {
        for (std::size_t ky = 0; ky < k; ++ky) {
          for (std::size_t kx = 0; kx < k; ++kx) {
            const float w = wrow[(c * k + ky) * k + kx];
            if (w == 0.0f) continue;
            acc += w * pad[(c * ph + ky) * pw + kx + j];
          }
        }
      }
      plane[j] = acc;
    }
    const float b = bias[oc];
    const __m256 bv = _mm256_set1_ps(b);
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* pr = plane + oy * pw;
      float* orow = out + (oc * oh + oy) * ow;
      if (ow >= 8) {
        // Vector rows; a remainder re-runs one vector shifted to end at
        // ow — the overlapped lanes recompute identical values.
        std::size_t ox = 0;
        for (; ox + 8 <= ow; ox += 8) {
          __m256 v = _mm256_add_ps(_mm256_loadu_ps(pr + ox), bv);
          if (fuse_relu) v = _mm256_max_ps(v, zero);
          _mm256_storeu_ps(orow + ox, v);
        }
        if (ox < ow) {
          __m256 v = _mm256_add_ps(_mm256_loadu_ps(pr + (ow - 8)), bv);
          if (fuse_relu) v = _mm256_max_ps(v, zero);
          _mm256_storeu_ps(orow + (ow - 8), v);
        }
      } else if (fuse_relu) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float v = pr[ox] + b;
          orow[ox] = v > 0.0f ? v : 0.0f;
        }
      } else {
        for (std::size_t ox = 0; ox < ow; ++ox) orow[ox] = pr[ox] + b;
      }
    }
  }
}
#endif

// Generic tap-accumulation body for strided convs. No model builds one
// (HotspotCnn is stride 1), so it has no vector twin: every dispatch
// path runs this scalar loop for stride != 1.

void conv_body_scalar(const float* HSDL_RESTRICT in,
                      const float* HSDL_RESTRICT weight,
                      const float* HSDL_RESTRICT bias,
                      const ConvDirectShape& s, bool fuse_relu,
                      float* HSDL_RESTRICT out) {
  const std::size_t oh = s.out_height(), ow = s.out_width();
  const std::size_t kk = s.in_channels * s.kernel * s.kernel;
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    float* plane = out + oc * oh * ow;
    for (std::size_t j = 0; j < oh * ow; ++j) plane[j] = 0.0f;
    const float* wrow = weight + oc * kk;
    for (std::size_t c = 0; c < s.in_channels; ++c) {
      const float* img = in + c * s.height * s.width;
      for (std::size_t ky = 0; ky < s.kernel; ++ky) {
        std::size_t oy0, oy1;
        valid_out_range(oh, s.height, ky, s.stride, s.padding, &oy0, &oy1);
        for (std::size_t kx = 0; kx < s.kernel; ++kx) {
          const float w = wrow[(c * s.kernel + ky) * s.kernel + kx];
          if (w == 0.0f) continue;
          std::size_t ox0, ox1;
          valid_out_range(ow, s.width, kx, s.stride, s.padding, &ox0, &ox1);
          if (ox0 >= ox1) continue;
          const std::size_t len = ox1 - ox0;
          for (std::size_t oy = oy0; oy < oy1; ++oy) {
            const std::size_t iy = oy * s.stride + ky - s.padding;
            const float* HSDL_RESTRICT ip =
                img + iy * s.width + ox0 * s.stride + kx - s.padding;
            float* HSDL_RESTRICT op = plane + oy * ow + ox0;
            for (std::size_t j = 0; j < len; ++j)
              op[j] += w * ip[j * s.stride];
          }
        }
      }
    }
    bias_relu_epilogue(plane, oh * ow, bias[oc], fuse_relu);
  }
}

}  // namespace

void conv2d_direct_scalar(const float* in, const float* weight,
                          const float* bias, const ConvDirectShape& shape,
                          bool fuse_relu, float* out) {
  if (shape.stride == 1) {
    Stride1Scratch& scratch = stride1_scratch();
    const std::size_t pw = fill_padded(in, shape, &scratch.pad);
    scratch.plane.resize(shape.out_height() * pw);
    conv_plane_scalar(scratch.pad.data(), weight, bias, shape, fuse_relu,
                      scratch.plane.data(), out);
    return;
  }
  conv_body_scalar(in, weight, bias, shape, fuse_relu, out);
}

void conv2d_direct(const float* in, const float* weight, const float* bias,
                   const ConvDirectShape& shape, bool fuse_relu, float* out) {
#ifdef HSDL_CONV_DIRECT_AVX2
  if (cpu::has_avx2_fma() && shape.stride == 1) {
    Stride1Scratch& scratch = stride1_scratch();
    const std::size_t pw = fill_padded(in, shape, &scratch.pad);
    scratch.plane.resize(shape.out_height() * pw);
    conv_plane_avx2(scratch.pad.data(), weight, bias, shape, fuse_relu,
                    scratch.plane.data(), out);
    return;
  }
#endif
  conv2d_direct_scalar(in, weight, bias, shape, fuse_relu, out);
}

}  // namespace hsdl::nn
