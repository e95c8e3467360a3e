#include "nn/conv_direct.hpp"

#include <algorithm>
#include <cmath>
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
/// contribution is a bitwise no-op — see conv_body_scalar.
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
// Serving feature maps are narrow (12 wide), so per-row loops would be
// dominated by partial vectors and bookkeeping. The stride-1 path instead
// copies the input into an explicitly padded buffer and gives each
// output channel's accumulator plane the SAME row stride pw as the padded
// input. Then lane j of a plane reads tap (c, ky, kx) at pad offset
// (c*ph + ky)*pw + kx + j: one contiguous sweep of n = oh*pw lanes, long
// enough to vectorize cleanly. The k-1 lanes per row beyond ow accumulate
// values no one reads (the epilogue copies only the first ow of each row)
// and the sweep may read up to kernel-1 floats past the last input
// channel, which the scratch buffer's slack absorbs. The AVX2 variant
// rounds each channel plane up to whole 8-lane vectors (plane_lanes), so
// up to 7 more lanes of garbage, and up to 7 more floats of over-read.
//
// Per-lane arithmetic, identical in both variants: acc = +0.0f, then
// acc = fma(w, x, acc) for every tap in ascending (c, ky, kx) order —
// padded positions and zero weights included. Only the grouping of lanes
// and channels into registers differs between the variants, and that
// grouping never reorders a lane's taps, so the two are bitwise equal.

constexpr std::size_t kPadSlack = 24;  // >= kernel + 7; covers the over-read

struct Stride1Scratch {
  std::vector<float> pad;    ///< in_c x ph x pw (+ slack), borders +0.0
  /// oh x pw accumulators (AVX2: plane_lanes) per output channel (the
  /// scalar path reuses one), tail lanes garbage
  std::vector<float> plane;
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

/// Scalar twin of conv_plane_avx2: tap-outer, lane-inner, so each lane
/// sees its taps in the kernel's order. Without -mfma std::fma is a libm
/// call per tap and the lane loop does not vectorize: exact, but about
/// 15x slower than a vectorized mul+add loop (DESIGN.md §12).
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
  const std::size_t n = oh * pw;
  const float* HSDL_RESTRICT wt = weight;  // walks [out_c, in_c*k*k]
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t j = 0; j < n; ++j) plane[j] = 0.0f;
    for (std::size_t c = 0; c < s.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float w = *wt++;
          const float* HSDL_RESTRICT src = pad + (c * ph + ky) * pw + kx;
          for (std::size_t j = 0; j < n; ++j)
            plane[j] = std::fma(w, src[j], plane[j]);
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
#define HSDL_AVX2_FMA __attribute__((target("avx2,fma")))

/// oh*pw lanes rounded up to whole 8-lane vectors: the AVX2 plane stride.
inline std::size_t plane_lanes(const ConvDirectShape& s) {
  const std::size_t n = s.out_height() * (s.width + 2 * s.padding);
  return (n + 7) / 8 * 8;
}

/// Plane geometry shared by the stride-1 blocks: `kk` = in_c*k*k floats
/// per weight row, `n` = plane_lanes lanes (and floats) per channel plane.
struct PlaneGeom {
  std::size_t in_c, ph, pw, k, kk, n;
};

/// Lanes [j, j + 8V) of OC consecutive output channels (weight rows from
/// `w`, planes from `plane`), in OC x V ymm accumulators: each source
/// vector feeds OC fmadds.
template <std::size_t OC, std::size_t V>
HSDL_AVX2_FMA inline void fma_block(const float* HSDL_RESTRICT pad,
                                    const float* HSDL_RESTRICT w,
                                    const PlaneGeom& g, std::size_t j,
                                    float* HSDL_RESTRICT plane) {
  __m256 a[OC][V];
  for (std::size_t o = 0; o < OC; ++o)
    for (std::size_t v = 0; v < V; ++v) a[o][v] = _mm256_setzero_ps();
  const float* wt = w;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t ky = 0; ky < g.k; ++ky) {
      const float* HSDL_RESTRICT row = pad + (c * g.ph + ky) * g.pw + j;
      for (std::size_t kx = 0; kx < g.k; ++kx, ++wt) {
        __m256 x[V];
        for (std::size_t v = 0; v < V; ++v)
          x[v] = _mm256_loadu_ps(row + kx + 8 * v);
        for (std::size_t o = 0; o < OC; ++o) {
          const __m256 wv = _mm256_broadcast_ss(wt + o * g.kk);
          for (std::size_t v = 0; v < V; ++v)
            a[o][v] = _mm256_fmadd_ps(wv, x[v], a[o][v]);
        }
      }
    }
  }
  for (std::size_t o = 0; o < OC; ++o)
    for (std::size_t v = 0; v < V; ++v)
      _mm256_storeu_ps(plane + o * g.n + j + 8 * v, a[o][v]);
}

/// All n lanes (a multiple of 8) of OC consecutive output channels:
/// 16-lane blocks, then one 8-lane block.
template <std::size_t OC>
HSDL_AVX2_FMA inline void fma_channels(const float* HSDL_RESTRICT pad,
                                       const float* HSDL_RESTRICT w,
                                       const PlaneGeom& g,
                                       float* HSDL_RESTRICT plane) {
  std::size_t j = 0;
  for (; j + 16 <= g.n; j += 16) fma_block<OC, 2>(pad, w, g, j, plane);
  // The 12x12 layers' n = 12*14 = 168 leaves 8 lanes after the 16-lane
  // blocks.
  if (j < g.n) fma_block<OC, 1>(pad, w, g, j, plane);
}

HSDL_AVX2_FMA void conv_plane_avx2(const float* HSDL_RESTRICT pad,
                                   const float* HSDL_RESTRICT weight,
                                   const float* HSDL_RESTRICT bias,
                                   const ConvDirectShape& s, bool fuse_relu,
                                   float* HSDL_RESTRICT plane,
                                   float* HSDL_RESTRICT out) {
  const std::size_t oh = s.out_height(), ow = s.out_width();
  const std::size_t pw = s.width + 2 * s.padding;
  const std::size_t n = plane_lanes(s);
  const PlaneGeom g{s.in_channels, s.height + 2 * s.padding, pw, s.kernel,
                    s.in_channels * s.kernel * s.kernel, n};
  std::size_t oc = 0;
  for (; oc + 4 <= s.out_channels; oc += 4)
    fma_channels<4>(pad, weight + oc * g.kk, g, plane + oc * n);
  for (; oc < s.out_channels; ++oc)
    fma_channels<1>(pad, weight + oc * g.kk, g, plane + oc * n);

  const __m256 zero = _mm256_setzero_ps();
  for (oc = 0; oc < s.out_channels; ++oc) {
    const float b = bias[oc];
    const __m256 bv = _mm256_set1_ps(b);
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* pr = plane + oc * n + oy * pw;
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
// path runs this scalar loop for stride != 1. It multiplies and adds
// separately in ascending (c, ky, kx) order and skips zero weights and
// padded positions, like gemm_naive over im2col columns. The skips are
// bitwise no-ops: a skipped term is w * 0.0 = ±0.0 or 0.0 * x = ±0.0, and
// an accumulator that starts at +0.0 never becomes -0.0 under addition,
// so adding ±0.0 never changes it.

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
    fill_padded(in, shape, &scratch.pad);
    scratch.plane.resize(shape.out_channels * plane_lanes(shape));
    conv_plane_avx2(scratch.pad.data(), weight, bias, shape, fuse_relu,
                    scratch.plane.data(), out);
    return;
  }
#endif
  conv2d_direct_scalar(in, weight, bias, shape, fuse_relu, out);
}

}  // namespace hsdl::nn
