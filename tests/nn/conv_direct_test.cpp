#include "nn/conv_direct.hpp"

#include <gtest/gtest.h>

#include <cmath>
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

/// The im2col oracle: per output element a +0.0-seeded accumulation over
/// ascending p with separate multiply and add (skipping zero weights,
/// like gemm_naive), then bias and the optional ReLU predicate. `mag`
/// receives |bias| + sum_p |w_p * x_p| per element, the scale of the
/// rounding error either summation order can make.
struct OracleConv {
  std::vector<float> out;
  std::vector<double> mag;
};

OracleConv ref_conv(const std::vector<float>& in,
                    const std::vector<float>& weight,
                    const std::vector<float>& bias, const ConvDirectShape& s,
                    bool fuse_relu) {
  const std::size_t rows = s.in_channels * s.kernel * s.kernel;
  const std::size_t cols = s.out_height() * s.out_width();
  std::vector<float> col(rows * cols);
  im2col(in.data(), s.in_channels, s.height, s.width, s.kernel, s.stride,
         s.padding, col.data());
  OracleConv r{std::vector<float>(s.out_channels * cols),
               std::vector<double>(s.out_channels * cols)};
  for (std::size_t oc = 0; oc < s.out_channels; ++oc) {
    for (std::size_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      double mag = std::abs(static_cast<double>(bias[oc]));
      for (std::size_t p = 0; p < rows; ++p) {
        const float w = weight[oc * rows + p];
        mag += std::abs(static_cast<double>(w) * col[p * cols + j]);
        if (w == 0.0f) continue;
        acc += w * col[p * cols + j];
      }
      float v = acc + bias[oc];
      if (fuse_relu) v = v > 0.0f ? v : 0.0f;
      r.out[oc * cols + j] = v;
      r.mag[oc * cols + j] = mag;
    }
  }
  return r;
}

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

/// The stated bound between the stride-1 FMA kernel and the im2col
/// oracle. Each computes bias + kk products with kk + 1 roundings, so
/// each lies within gamma * mag of the exact sum, gamma ~= (kk+1) * 2^-24
/// (mag = |bias| + sum |w * x|); the two differ by at most twice that.
/// The bound doubles it once more for headroom: (kk+1) * 2^-22 * mag.
/// A wrong or missing tap moves an element by about mag / kk, far
/// outside it.
void expect_within_oracle(const std::vector<float>& got,
                          const OracleConv& want, std::size_t kk) {
  ASSERT_EQ(got.size(), want.out.size());
  const double rel = static_cast<double>(kk + 1) * std::ldexp(1.0, -22);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(got[i]) - want.out[i]),
              rel * want.mag[i])
        << "element " << i << ": " << got[i] << " vs oracle " << want.out[i];
}

ConvDirectShape make_shape(std::size_t ic, std::size_t h, std::size_t w,
                           std::size_t oc, std::size_t k, std::size_t stride,
                           std::size_t pad) {
  ConvDirectShape s;
  s.in_channels = ic;
  s.height = h;
  s.width = w;
  s.out_channels = oc;
  s.kernel = k;
  s.stride = stride;
  s.padding = pad;
  return s;
}

TEST(ConvDirectTest, MatchesIm2colOracleAcrossShapes) {
  Rng rng(7);
  for (std::size_t ic : {std::size_t{1}, std::size_t{3}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (std::size_t stride : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}}) {
        for (std::size_t pad : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}}) {
          // Odd dims exercise the vector tail loops.
          const ConvDirectShape s = make_shape(ic, 9, 7, 4, k, stride, pad);
          const std::vector<float> in = random_vec(ic * 9 * 7, rng);
          const std::vector<float> w =
              random_vec(s.out_channels * ic * k * k, rng);
          const std::vector<float> b = random_vec(s.out_channels, rng);
          const OracleConv want = ref_conv(in, w, b, s, false);
          std::vector<float> got(want.out.size(), -1.0f);
          conv2d_direct(in.data(), w.data(), b.data(), s, false, got.data());
          SCOPED_TRACE(::testing::Message()
                       << "ic=" << ic << " k=" << k << " stride=" << stride
                       << " pad=" << pad);
          // Stride 1 is the FMA kernel; strided convs keep the oracle's
          // separate multiply and add in its order.
          if (stride == 1)
            expect_within_oracle(got, want, ic * k * k);
          else
            expect_bitwise_equal(want.out, got);
        }
      }
    }
  }
}

TEST(ConvDirectTest, FusedReluMatchesSeparatePass) {
  Rng rng(11);
  const ConvDirectShape s = make_shape(3, 11, 11, 6, 3, 1, 1);
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

/// conv2d_direct_scalar vs conv2d_direct on one shape, bitwise.
void expect_scalar_matches_dispatched(const ConvDirectShape& s,
                                      bool fuse_relu, Rng& rng) {
  const std::size_t kk = s.in_channels * s.kernel * s.kernel;
  const std::vector<float> in =
      random_vec(s.in_channels * s.height * s.width, rng);
  std::vector<float> w = random_vec(s.out_channels * kk, rng);
  for (std::size_t i = 0; i < w.size(); i += 7) w[i] = 0.0f;  // no skips
  const std::vector<float> b = random_vec(s.out_channels, rng);
  const std::size_t n = s.out_channels * s.out_height() * s.out_width();
  std::vector<float> scalar(n, -1.0f), dispatched(n, -2.0f);
  conv2d_direct_scalar(in.data(), w.data(), b.data(), s, fuse_relu,
                       scalar.data());
  conv2d_direct(in.data(), w.data(), b.data(), s, fuse_relu,
                dispatched.data());
  expect_bitwise_equal(scalar, dispatched);
}

TEST(ConvDirectTest, ScalarMatchesDispatchedKernel) {
  Rng rng(13);
  // Stride 1, the FMA kernel. With oh = 6, the plane's n = 6 * pw lanes
  // is a multiple of 16 at pw = 16, 16k + 8 at pw = 12 (the 8-lane
  // block), 16k + 2 at pw = 11 (AVX2 rounds it to 16k + 8: the 8-lane
  // block over 6 garbage lanes) and 16k + 14 at pw = 13 (rounded to
  // 16(k + 1): a last 16-lane block over 2 garbage lanes); out_c = 1..9
  // hits every channel tail of the 4-channel blocking.
  for (std::size_t ic : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                         std::size_t{32}}) {
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      for (std::size_t pad : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}}) {
        const std::size_t h = 6 + k - 1 - 2 * pad;  // oh = 6
        for (std::size_t pw : {std::size_t{16}, std::size_t{12},
                               std::size_t{11}, std::size_t{13}}) {
          for (std::size_t oc = 1; oc <= 9; ++oc) {
            const ConvDirectShape s =
                make_shape(ic, h, pw - 2 * pad, oc, k, 1, pad);
            ASSERT_EQ(s.out_height(), 6u);
            SCOPED_TRACE(::testing::Message()
                         << "ic=" << ic << " k=" << k << " pad=" << pad
                         << " pw=" << pw << " oc=" << oc);
            expect_scalar_matches_dispatched(s, /*fuse_relu=*/oc % 2 == 0,
                                             rng);
          }
        }
      }
    }
  }
  // The four Table 1 convs (conv1-1, conv1-2, conv2-1, conv2-2).
  const ConvDirectShape table1[] = {make_shape(32, 12, 12, 16, 3, 1, 1),
                                    make_shape(16, 12, 12, 16, 3, 1, 1),
                                    make_shape(16, 6, 6, 32, 3, 1, 1),
                                    make_shape(32, 6, 6, 32, 3, 1, 1)};
  for (const ConvDirectShape& s : table1) {
    SCOPED_TRACE(::testing::Message() << "table1 ic=" << s.in_channels
                                      << " side=" << s.height);
    expect_scalar_matches_dispatched(s, /*fuse_relu=*/true, rng);
    expect_scalar_matches_dispatched(s, /*fuse_relu=*/false, rng);
  }
  // Stride 2 runs the generic scalar body on every path.
  expect_scalar_matches_dispatched(make_shape(2, 13, 9, 5, 3, 2, 1), true,
                                   rng);

  // Forcing the scalar path through the shared dispatcher gives the same
  // bits again.
  const ConvDirectShape s = table1[0];
  const std::vector<float> in = random_vec(32 * 12 * 12, rng);
  const std::vector<float> w = random_vec(16 * 32 * 9, rng);
  const std::vector<float> b = random_vec(16, rng);
  std::vector<float> scalar(16 * 144), forced(16 * 144);
  conv2d_direct_scalar(in.data(), w.data(), b.data(), s, true, scalar.data());
  const bool prev = cpu::force_scalar();
  cpu::set_force_scalar(true);
  conv2d_direct(in.data(), w.data(), b.data(), s, true, forced.data());
  cpu::set_force_scalar(prev);
  expect_bitwise_equal(scalar, forced);
}

TEST(ConvDirectTest, Conv2dInferFastMatchesReferenceMode) {
  Rng rng(17);
  // Reference mode's im2col + gemm_naive (8 * 144 * 27 stays under gemm's
  // blocking cutoff) is the oracle itself. Stride 1 runs the FMA kernel,
  // held within the oracle bound; stride 2 the generic body, bitwise.
  for (std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
    Conv2dConfig cfg;
    cfg.in_channels = 3;
    cfg.out_channels = 8;
    cfg.kernel = 3;
    cfg.stride = stride;
    cfg.padding = 1;
    Conv2d conv(cfg, rng);
    for (std::size_t i = 0; i < conv.bias().value.numel(); ++i)
      conv.bias().value[i] = static_cast<float>(rng.normal());
    Tensor x({2, 3, 12, 12});
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = static_cast<float>(rng.normal());
    WorkspaceArena ws;
    const Tensor fast = conv.infer(x, ws);
    Tensor ref;
    {
      runtime::ReferenceModeGuard guard(true);
      ref = conv.infer(x, ws);
    }
    ASSERT_EQ(fast.shape(), ref.shape());
    const ConvDirectShape s = make_shape(3, 12, 12, 8, 3, stride, 1);
    const std::size_t per_in = 3 * 12 * 12;
    const std::size_t per_out = 8 * s.out_height() * s.out_width();
    for (std::size_t i = 0; i < 2; ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "stride=" << stride << " sample=" << i);
      const OracleConv want = ref_conv(
          std::vector<float>(x.data() + i * per_in,
                             x.data() + (i + 1) * per_in),
          conv.weight().value.vec(), conv.bias().value.vec(), s, false);
      const std::vector<float> got_ref(ref.data() + i * per_out,
                                       ref.data() + (i + 1) * per_out);
      const std::vector<float> got_fast(fast.data() + i * per_out,
                                        fast.data() + (i + 1) * per_out);
      expect_bitwise_equal(want.out, got_ref);
      if (stride == 1)
        expect_within_oracle(got_fast, want, 3 * 9);
      else
        expect_bitwise_equal(want.out, got_fast);
    }
  }
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
