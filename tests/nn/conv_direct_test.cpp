#include "nn/conv_direct.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/cpuinfo.hpp"
#include "common/refmode.hpp"
#include "common/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// The reference arithmetic the direct kernel promises to reproduce
/// bitwise: im2col, then per output element a +0.0-seeded accumulation
/// over ascending p (skipping zero weights, like gemm_naive), then bias
/// and the optional ReLU predicate.
std::vector<float> ref_conv(const std::vector<float>& in,
                            const std::vector<float>& weight,
                            const std::vector<float>& bias,
                            const ConvDirectShape& s, bool fuse_relu) {
  const std::size_t rows = s.in_channels * s.kernel * s.kernel;
  const std::size_t cols = s.out_height() * s.out_width();
  std::vector<float> col(rows * cols);
  im2col(in.data(), s.in_channels, s.height, s.width, s.kernel, s.stride,
         s.padding, col.data());
  std::vector<float> out(s.out_channels * cols);
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < rows; ++p) {
        const float w = weight[oc * rows + p];
        if (w == 0.0f) continue;
        acc += w * col[p * cols + j];
      }
      float v = acc + bias[oc];
      if (fuse_relu) v = v > 0.0f ? v : 0.0f;
      out[oc * cols + j] = v;
    }
  }
  return out;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(ConvDirectTest, BitwiseMatchesIm2colAcrossShapes) {
  Rng rng(7);
  for (std::size_t ic : {std::size_t{1}, std::size_t{3}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (std::size_t stride : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}}) {
        for (std::size_t pad : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}}) {
          ConvDirectShape s;
          s.in_channels = ic;
          s.height = 9;  // odd dims exercise the AVX2 tail loops
          s.width = 7;
          s.out_channels = 4;
          s.kernel = k;
          s.stride = stride;
          s.padding = pad;
          const std::vector<float> in = random_vec(ic * 9 * 7, rng);
          const std::vector<float> w =
              random_vec(s.out_channels * ic * k * k, rng);
          const std::vector<float> b = random_vec(s.out_channels, rng);
          const std::vector<float> want = ref_conv(in, w, b, s, false);
          std::vector<float> got(want.size(), -1.0f);
          conv2d_direct(in.data(), w.data(), b.data(), s, false, got.data());
          SCOPED_TRACE(::testing::Message()
                       << "ic=" << ic << " k=" << k << " stride=" << stride
                       << " pad=" << pad);
          expect_bitwise_equal(want, got);
        }
      }
    }
  }
}

TEST(ConvDirectTest, FusedReluMatchesSeparatePass) {
  Rng rng(11);
  ConvDirectShape s;
  s.in_channels = 3;
  s.height = 11;
  s.width = 11;
  s.out_channels = 6;
  s.kernel = 3;
  s.padding = 1;
  const std::vector<float> in = random_vec(3 * 11 * 11, rng);
  const std::vector<float> w = random_vec(6 * 3 * 3 * 3, rng);
  const std::vector<float> b = random_vec(6, rng);
  const std::size_t n = 6 * s.out_height() * s.out_width();
  std::vector<float> plain(n), fused(n);
  conv2d_direct(in.data(), w.data(), b.data(), s, false, plain.data());
  conv2d_direct(in.data(), w.data(), b.data(), s, true, fused.data());
  for (float& v : plain) v = v > 0.0f ? v : 0.0f;
  expect_bitwise_equal(plain, fused);
}

TEST(ConvDirectTest, ScalarMatchesDispatchedKernel) {
  Rng rng(13);
  ConvDirectShape s;
  s.in_channels = 2;
  s.height = 13;
  s.width = 9;
  s.out_channels = 5;
  s.kernel = 3;
  s.stride = 2;
  s.padding = 1;
  const std::vector<float> in = random_vec(2 * 13 * 9, rng);
  const std::vector<float> w = random_vec(5 * 2 * 3 * 3, rng);
  const std::vector<float> b = random_vec(5, rng);
  const std::size_t n = 5 * s.out_height() * s.out_width();
  std::vector<float> scalar(n), dispatched(n), forced(n);
  conv2d_direct_scalar(in.data(), w.data(), b.data(), s, true, scalar.data());
  conv2d_direct(in.data(), w.data(), b.data(), s, true, dispatched.data());
  expect_bitwise_equal(scalar, dispatched);
  // Forcing the scalar path through the shared dispatcher gives the same
  // bits again.
  const bool prev = cpu::force_scalar();
  cpu::set_force_scalar(true);
  conv2d_direct(in.data(), w.data(), b.data(), s, true, forced.data());
  cpu::set_force_scalar(prev);
  expect_bitwise_equal(scalar, forced);
}

TEST(ConvDirectTest, Conv2dInferFastMatchesReferenceMode) {
  Rng rng(17);
  Conv2dConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 8;
  cfg.kernel = 3;
  cfg.stride = 1;
  cfg.padding = 1;
  Conv2d conv(cfg, rng);
  // m*n*k = 8 * 144 * 27 stays under the GEMM blocking cutoff, so the
  // im2col reference path uses the naive kernel and the direct path must
  // reproduce it bitwise.
  Tensor x({2, 3, 12, 12});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.normal());
  WorkspaceArena ws;
  Tensor fast = conv.infer(x, ws);
  runtime::ReferenceModeGuard guard(true);
  Tensor ref = conv.infer(x, ws);
  ASSERT_EQ(fast.shape(), ref.shape());
  ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(),
                           fast.numel() * sizeof(float)));
}

TEST(ConvDirectTest, Conv2dInferReluMatchesInferThenRelu) {
  Rng rng(19);
  Conv2dConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 6;
  Conv2d conv(cfg, rng);
  Tensor x({3, 4, 10, 10});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.normal());
  WorkspaceArena ws;
  Tensor fused = conv.infer_relu(x, ws);
  Tensor plain = conv.infer(x, ws);
  for (std::size_t i = 0; i < plain.numel(); ++i)
    plain[i] = plain[i] > 0.0f ? plain[i] : 0.0f;
  ASSERT_EQ(fused.shape(), plain.shape());
  ASSERT_EQ(0, std::memcmp(fused.data(), plain.data(),
                           fused.numel() * sizeof(float)));
}

}  // namespace
}  // namespace hsdl::nn
