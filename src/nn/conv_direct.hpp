// Direct 2-D convolution kernels (no im2col materialization).
//
// The im2col+GEMM path pays a full [in_c*k*k x oh*ow] buffer write and
// read per sample before a single multiply happens. These kernels walk
// the input in place instead, accumulating each output row with the
// exact arithmetic the im2col path's reference GEMM performs:
//
//   * outputs start at +0.0 and accumulate weight terms in ascending
//     p = (in_channel, ky, kx) order — the im2col row order;
//   * zero weights are skipped, mirroring gemm_naive's `av == 0` skip;
//   * out-of-bounds (padded) input positions are skipped, which is
//     bitwise safe: the padded contribution is w * 0.0 = ±0.0, and an
//     accumulator that starts at +0.0 can never become -0.0 under
//     addition, so adding ±0.0 is always an exact no-op;
//   * the AVX2 variant uses separate multiply and add (never FMA), so
//     its lanes round exactly like the scalar loop.
//
// Consequently conv2d_direct() is bitwise identical to
// im2col + gemm_naive + bias for every shape, on every dispatch path.
// (For large shapes the im2col path used to route through the blocked
// FMA GEMM, which rounds differently; the direct kernel pins those
// shapes to the reference accumulation order instead — see DESIGN.md
// §12.)
#pragma once

#include <cstddef>

namespace hsdl::nn {

struct ConvDirectShape {
  std::size_t in_channels = 0;
  std::size_t height = 0;  ///< input H
  std::size_t width = 0;   ///< input W
  std::size_t out_channels = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  std::size_t out_height() const {
    return (height + 2 * padding - kernel) / stride + 1;
  }
  std::size_t out_width() const {
    return (width + 2 * padding - kernel) / stride + 1;
  }
};

/// One-sample direct convolution: out[oc][oy][ox] =
/// bias[oc] + sum_p W[oc][p] * in(p, oy, ox), with optional fused ReLU
/// applied after the bias add (max with +0.0 via `v > 0 ? v : 0`, the
/// same predicate as Relu::infer). `in` is [in_c, H, W], `weight` is
/// [out_c, in_c*k*k], `out` is [out_c, oh, ow]; all row-major and fully
/// overwritten. Stride-1 shapes dispatch to AVX2 when available (see
/// common/cpuinfo); other strides always run the scalar body.
void conv2d_direct(const float* in, const float* weight, const float* bias,
                   const ConvDirectShape& shape, bool fuse_relu, float* out);

/// Scalar reference path, exposed so tests can pin the dispatch variants
/// against each other bitwise.
void conv2d_direct_scalar(const float* in, const float* weight,
                          const float* bias, const ConvDirectShape& shape,
                          bool fuse_relu, float* out);

}  // namespace hsdl::nn
