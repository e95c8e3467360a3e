#include "nn/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/cpuinfo.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"

namespace hsdl::nn {
namespace {

TEST(ActQuantTest, RoundTripWithinHalfStep) {
  const ActQuant q = calibrate_act(-1.5f, 2.0f);
  ASSERT_GT(q.scale, 0.0f);
  for (float x = -1.5f; x <= 2.0f; x += 0.013f) {
    const float back = dequantize_value(quantize_value(x, q), q);
    EXPECT_NEAR(back, x, q.scale / 2.0f + 1e-6f) << "x=" << x;
  }
}

TEST(ActQuantTest, ZeroIsExactlyRepresentable) {
  // Padding relies on 0 mapping to the zero point and back to exactly 0.
  for (auto [lo, hi] : {std::pair<float, float>{-1.0f, 1.0f},
                        {0.25f, 3.0f},
                        {-4.0f, -0.5f}}) {
    const ActQuant q = calibrate_act(lo, hi);
    const std::uint8_t z = quantize_value(0.0f, q);
    EXPECT_EQ(z, static_cast<std::uint8_t>(q.zero_point));
    EXPECT_EQ(dequantize_value(z, q), 0.0f);
  }
}

TEST(ActQuantTest, PostReluRangeGetsZeroPointZero) {
  const ActQuant q = calibrate_act(0.0f, 5.0f);
  EXPECT_EQ(q.zero_point, 0);
  EXPECT_EQ(quantize_value(5.0f, q), 127);
}

TEST(ActQuantTest, ConstantTensorFallsBackToUnitScale) {
  const ActQuant q = calibrate_act(0.0f, 0.0f);
  EXPECT_EQ(q.scale, 1.0f);
  EXPECT_EQ(q.zero_point, 0);
}

TEST(ActQuantTest, OutOfRangeValuesSaturate) {
  const ActQuant q = calibrate_act(-1.0f, 1.0f);
  EXPECT_EQ(quantize_value(1000.0f, q), 127);
  EXPECT_EQ(quantize_value(-1000.0f, q), 0);
}

/// The HotspotCnn-shaped stack QuantizedNet supports, scaled down.
Sequential tiny_net(Rng& rng) {
  Sequential net;
  Conv2dConfig c;
  c.in_channels = 2;
  c.out_channels = 4;
  c.kernel = 3;
  c.padding = 1;
  net.emplace<Conv2d>(c, rng);
  net.emplace<Relu>();
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 4 * 4, 8, rng);
  net.emplace<Relu>();
  net.emplace<Linear>(8, 2, rng);
  return net;
}

Tensor random_batch(std::size_t n, Rng& rng) {
  Tensor x({n, 2, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.normal(0.0, 0.5));
  return x;
}

TEST(QuantizedNetTest, ProbabilitiesCloseToFp32) {
  Rng rng(23);
  Sequential net = tiny_net(rng);
  Tensor cal = random_batch(16, rng);
  QuantizedNet qn(net, cal);
  EXPECT_EQ(qn.num_quantized_layers(), 3u);  // conv + 2 linears

  Tensor x = random_batch(8, rng);
  WorkspaceArena ws;
  Tensor probs = qn.probabilities(x, ws);
  ASSERT_EQ(probs.shape(), (std::vector<std::size_t>{8, 2}));
  Tensor logits = net.infer(x, ws);
  for (std::size_t i = 0; i < 8; ++i) {
    float ref[2];
    softmax_row(logits.data() + i * 2, 2, ref);
    EXPECT_NEAR(probs[i * 2] + probs[i * 2 + 1], 1.0f, 1e-5f);
    EXPECT_NEAR(probs[i * 2], ref[0], 0.1f) << "sample " << i;
  }
}

TEST(QuantizedNetTest, ScalarAndAvx2AreBitwiseIdentical) {
  // Integer accumulation is exact, so forcing the scalar kernels must not
  // change a single bit of the output.
  Rng rng(29);
  Sequential net = tiny_net(rng);
  Tensor cal = random_batch(12, rng);
  QuantizedNet qn(net, cal);
  Tensor x = random_batch(5, rng);
  WorkspaceArena ws;
  Tensor fast = qn.probabilities(x, ws);
  const bool prev = cpu::force_scalar();
  cpu::set_force_scalar(true);
  Tensor scalar = qn.probabilities(x, ws);
  cpu::set_force_scalar(prev);
  ASSERT_EQ(fast.shape(), scalar.shape());
  ASSERT_EQ(0, std::memcmp(fast.data(), scalar.data(),
                           fast.numel() * sizeof(float)));
}

TEST(QuantizedNetTest, ThreadCountDoesNotChangeResults) {
  Rng rng(31);
  Sequential net = tiny_net(rng);
  Tensor cal = random_batch(12, rng);
  QuantizedNet qn(net, cal);
  Tensor x = random_batch(9, rng);
  WorkspaceArena ws;
  set_num_threads(1);
  Tensor serial = qn.probabilities(x, ws);
  set_num_threads(4);
  Tensor parallel = qn.probabilities(x, ws);
  set_num_threads(0);  // restore the default pool size
  ASSERT_EQ(serial.shape(), parallel.shape());
  ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           serial.numel() * sizeof(float)));
}

TEST(QuantizedNetTest, RejectsUnsupportedLayer) {
  Rng rng(37);
  Sequential net;
  net.emplace<Linear>(4, 4, rng);
  net.emplace<Sigmoid>();  // not part of the quantizable serving stack
  net.emplace<Linear>(4, 2, rng);
  Tensor cal({3, 4}, 0.1f);
  EXPECT_THROW(QuantizedNet(net, cal), CheckError);
}

TEST(QuantizedNetTest, RejectsInputShapeMismatch) {
  Rng rng(41);
  Sequential net = tiny_net(rng);
  Tensor cal = random_batch(4, rng);
  QuantizedNet qn(net, cal);
  Tensor bad({2, 2, 8, 7}, 0.0f);
  WorkspaceArena ws;
  EXPECT_THROW(qn.probabilities(bad, ws), CheckError);
}

}  // namespace
}  // namespace hsdl::nn
