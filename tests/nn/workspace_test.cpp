// WorkspaceArena contracts: pooled tensors are recycled (smallest
// adequate buffer first), scratch scopes rewind the cursor, stats track
// the allocation/reuse split, and the fused arena inference walk is
// bitwise identical to the unfused production walk (and within float
// rounding of the reference-mode walk).
#include "nn/workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/refmode.hpp"
#include "common/rng.hpp"
#include "hotspot/cnn.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"

namespace hsdl::nn {
namespace {

TEST(WorkspaceArenaTest, TakeRecycleReusesStorage) {
  WorkspaceArena ws;
  Tensor a = ws.take({4, 8});
  const float* storage = a.data();
  ws.recycle(std::move(a));
  Tensor b = ws.take({8, 4});  // same numel, different shape
  EXPECT_EQ(b.data(), storage);
  const WorkspaceArena::Stats s = ws.stats();
  EXPECT_EQ(s.takes, 2u);
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.reuses, 1u);
}

TEST(WorkspaceArenaTest, TakePicksSmallestAdequateBuffer) {
  WorkspaceArena ws;
  Tensor big = ws.take({100});
  Tensor small = ws.take({10});
  const float* small_storage = small.data();
  ws.recycle(std::move(big));
  ws.recycle(std::move(small));
  // A 10-element request must come from the 10-capacity buffer even
  // though the 100-capacity one was pooled first.
  Tensor t = ws.take({10});
  EXPECT_EQ(t.data(), small_storage);
}

TEST(WorkspaceArenaTest, TakeReturnsRequestedShape) {
  WorkspaceArena ws;
  Tensor t = ws.take({2, 3, 4});
  ASSERT_EQ(t.dim(), 3u);
  EXPECT_EQ(t.extent(0), 2u);
  EXPECT_EQ(t.extent(1), 3u);
  EXPECT_EQ(t.extent(2), 4u);
  EXPECT_EQ(t.numel(), 24u);
}

TEST(WorkspaceArenaTest, ScratchScopeRewindsCursor) {
  WorkspaceArena ws;
  std::span<float> outer = ws.scratch(16);
  const float* outer_data = outer.data();
  {
    ScratchScope scope(ws);
    std::span<float> inner = ws.scratch(16);
    EXPECT_NE(inner.data(), outer_data);  // outer slab stays live
  }
  // After the scope exits the inner slab is reusable again.
  const std::size_t mark = ws.scratch_mark();
  std::span<float> again = ws.scratch(16);
  EXPECT_EQ(ws.scratch_mark(), mark + 1);
  (void)again;
  ws.release_scratch();
  EXPECT_EQ(ws.scratch_mark(), 0u);
}

TEST(WorkspaceArenaTest, ScratchReuseDoesNotCountAsAllocation) {
  WorkspaceArena ws;
  {
    ScratchScope scope(ws);
    ws.scratch(64);
  }
  const std::uint64_t after_first = ws.stats().allocations;
  {
    ScratchScope scope(ws);
    ws.scratch(64);  // same slab, same capacity: no new allocation
  }
  EXPECT_EQ(ws.stats().allocations, after_first);
  {
    ScratchScope scope(ws);
    ws.scratch(128);  // grows the slab: counts
  }
  EXPECT_EQ(ws.stats().allocations, after_first + 1);
}

TEST(WorkspaceArenaTest, SteadyStateTakesStopAllocating) {
  WorkspaceArena ws;
  for (int round = 0; round < 5; ++round) {
    Tensor a = ws.take({3, 7});
    Tensor b = ws.take({7, 3});
    ws.recycle(std::move(a));
    ws.recycle(std::move(b));
  }
  const WorkspaceArena::Stats s = ws.stats();
  EXPECT_EQ(s.takes, 10u);
  EXPECT_EQ(s.allocations, 2u);  // only the first round allocates
  EXPECT_EQ(s.reuses, 8u);
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Layers start with zero biases; random ones make every bias epilogue
// count in the comparisons below.
void randomize_biases(Sequential& net, Rng& rng) {
  for (Param* p : net.params())
    if (p->name == "bias")
      for (std::size_t i = 0; i < p->value.numel(); ++i)
        p->value[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a.vec()[i], b.vec()[i]) << "element " << i;
}

/// Reference mode's im2col convs multiply and add separately where the
/// production convs fuse them, so the walks agree to float rounding
/// only. On these O(1) activations the stated bound is 1e-5, relative
/// above 1 and absolute below.
void expect_within_reference(const Tensor& a, const Tensor& ref) {
  ASSERT_EQ(a.shape(), ref.shape());
  for (std::size_t i = 0; i < a.numel(); ++i)
    ASSERT_LE(std::abs(a.vec()[i] - ref.vec()[i]),
              1e-5f * std::max(1.0f, std::abs(ref.vec()[i])))
        << "element " << i;
}

/// The unfused production walk: each layer's infer in turn, outside
/// reference mode.
Tensor unfused_walk(const Sequential& net, std::size_t n_layers,
                    const Tensor& x, WorkspaceArena& ws) {
  Tensor y = net.layer(0).infer(x, ws);
  for (std::size_t i = 1; i < n_layers; ++i) {
    Tensor next = net.layer(i).infer(y, ws);
    ws.recycle(std::move(y));
    y = std::move(next);
  }
  return y;
}

// Every shape below stays under gemm's 48^3 naive cutoff, so the
// reference walk's Linear runs the naive kernel like production's.
TEST(WorkspaceArenaTest, FusedInferBitwiseMatchesUnfusedWalk) {
  Rng init(5);
  Sequential net;
  Conv2dConfig conv;
  conv.in_channels = 2;
  conv.out_channels = 3;
  net.emplace<Conv2d>(conv, init);
  net.emplace<Relu>();
  net.emplace<MaxPool2d>(2);
  net.emplace<Flatten>();
  net.emplace<Linear>(3 * 4 * 4, 5, init);

  Rng rng(17);
  randomize_biases(net, rng);
  WorkspaceArena ws;
  for (int round = 0; round < 3; ++round) {
    const Tensor x =
        Tensor::from_data({2, 2, 8, 8}, random_vec(2 * 2 * 8 * 8, rng));
    Tensor fused = net.infer(x, ws);
    Tensor unfused = unfused_walk(net, net.size(), x, ws);
    expect_bitwise_equal(fused, unfused);
    Tensor reference;
    {
      runtime::ReferenceModeGuard guard(true);
      reference = net.infer(x, ws);
    }
    expect_within_reference(fused, reference);
    ws.recycle(std::move(fused));
    ws.recycle(std::move(unfused));
    ws.recycle(std::move(reference));
  }
  // Warm arena: the later rounds were served entirely from the pool.
  const WorkspaceArena::Stats s = ws.stats();
  EXPECT_GT(s.reuses, 0u);
  EXPECT_GT(s.bytes_reserved, 0u);
}

// The FC+softmax fusion (walk to the last Linear, then infer_softmax)
// against the unfused walk plus a separate softmax.
TEST(WorkspaceArenaTest, FusedProbabilitiesMatchUnfusedWalk) {
  hotspot::HotspotCnnConfig cfg;
  cfg.input_channels = 2;
  cfg.input_side = 8;
  cfg.stage1_maps = 3;
  cfg.stage2_maps = 4;
  cfg.fc_nodes = 6;
  hotspot::HotspotCnn model(cfg);
  Rng rng(23);
  randomize_biases(model.net(), rng);
  const Tensor x =
      Tensor::from_data({3, 2, 8, 8}, random_vec(3 * 2 * 8 * 8, rng));
  WorkspaceArena ws;
  const Tensor fused = model.probabilities(x, ws);
  Tensor logits = unfused_walk(model.net(), model.net().size(), x, ws);
  const Tensor unfused = softmax(logits, ws);
  expect_bitwise_equal(fused, unfused);
  runtime::ReferenceModeGuard guard(true);
  const Tensor reference = model.probabilities(x, ws);
  expect_within_reference(fused, reference);
}

}  // namespace
}  // namespace hsdl::nn
