// Direct 2-D convolution kernels (no im2col materialization).
//
// The im2col+GEMM path pays a full [in_c*k*k x oh*ow] buffer write and
// read per sample before a single multiply happens. These kernels walk
// the input in place instead.
//
// Stride 1 (every conv HotspotCnn builds) runs one fused multiply-add
// kernel over a zero-padded copy of the input:
//
//   * each output element starts at +0.0f and takes one fma per tap,
//     acc = fma(W[oc][p], in(p), acc), in ascending p = (in_channel, ky,
//     kx) order, padded positions included and no weight skipped;
//   * the AVX2 variant blocks 4 output channels x 16 lanes in registers
//     (then 4 x 8, over a plane rounded up to whole 8-lane vectors;
//     leftover channels one at a time) and broadcasts each weight
//     straight from the [out_c, in_c*k*k] rows, so nothing is packed and
//     no weight copy can go stale after training, update_online or load;
//   * conv2d_direct_scalar runs the same per-element order with
//     std::fma, which rounds exactly like one vfmadd lane.
//
// So the scalar and AVX2 stride-1 paths are bitwise identical for every
// shape, and since every scoring path (serial, engine, cached, sharded,
// resumed) runs this one kernel they agree bitwise with each other. The
// im2col + GEMM reference (reference mode, common/refmode.hpp) rounds
// differently — separate multiply and add — and stays only as a
// tolerance oracle.
//
// Strided convs (no model builds one) take a generic scalar body on every
// dispatch path: separate multiply and add in the same ascending p order,
// skipping zero weights and padded positions, which makes it bitwise
// equal to im2col + gemm_naive.
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
/// overwritten. Stride-1 shapes dispatch to AVX2+FMA when available (see
/// common/cpuinfo); other strides always run the scalar body.
void conv2d_direct(const float* in, const float* weight, const float* bias,
                   const ConvDirectShape& shape, bool fuse_relu, float* out);

/// Scalar path (the std::fma twin at stride 1), exposed so tests can pin
/// the dispatch variants against each other bitwise.
void conv2d_direct_scalar(const float* in, const float* weight,
                          const float* bias, const ConvDirectShape& shape,
                          bool fuse_relu, float* out);

}  // namespace hsdl::nn
