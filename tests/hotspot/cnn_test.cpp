#include "hotspot/cnn.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "nn/workspace.hpp"

namespace hsdl::hotspot {
namespace {

TEST(HotspotCnnTest, PaperTable1Shapes) {
  // With the paper's defaults the realized per-layer output shapes must
  // match Table 1 exactly.
  HotspotCnn model;  // k=32, n=12, maps 16/32, fc 250
  auto summary = model.net().summary({1, 32, 12, 12});
  // conv1-1 .. fc2 with interleaved activations:
  // conv(12x12x16) relu conv(12x12x16) relu pool(6x6x16)
  // conv(6x6x32) relu conv(6x6x32) relu pool(3x3x32)
  // flatten(288) fc(250) relu dropout fc(2)
  ASSERT_EQ(summary.size(), 15u);
  using Shape = std::vector<std::size_t>;
  EXPECT_EQ(summary[0].second, (Shape{1, 16, 12, 12}));  // conv1-1
  EXPECT_EQ(summary[2].second, (Shape{1, 16, 12, 12}));  // conv1-2
  EXPECT_EQ(summary[4].second, (Shape{1, 16, 6, 6}));    // maxpooling1
  EXPECT_EQ(summary[5].second, (Shape{1, 32, 6, 6}));    // conv2-1
  EXPECT_EQ(summary[7].second, (Shape{1, 32, 6, 6}));    // conv2-2
  EXPECT_EQ(summary[9].second, (Shape{1, 32, 3, 3}));    // maxpooling2
  EXPECT_EQ(summary[10].second, (Shape{1, 288}));        // flatten
  EXPECT_EQ(summary[11].second, (Shape{1, 250}));        // fc1
  EXPECT_EQ(summary[14].second, (Shape{1, 2}));          // fc2
}

TEST(HotspotCnnTest, InputShapeFromConfig) {
  HotspotCnnConfig cfg;
  cfg.input_channels = 8;
  cfg.input_side = 8;
  HotspotCnn model(cfg);
  EXPECT_EQ(model.input_shape(), (std::vector<std::size_t>{8, 8, 8}));
}

TEST(HotspotCnnTest, ProbabilitiesAreDistribution) {
  HotspotCnnConfig cfg;
  cfg.input_channels = 4;
  cfg.input_side = 4;
  cfg.stage1_maps = 4;
  cfg.stage2_maps = 8;
  cfg.fc_nodes = 16;
  HotspotCnn model(cfg);
  nn::Tensor x({3, 4, 4, 4}, 0.3f);
  nn::WorkspaceArena ws;
  nn::Tensor p = model.probabilities(x, ws);
  EXPECT_EQ(p.shape(), (std::vector<std::size_t>{3, 2}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(p.at(i, 0) + p.at(i, 1), 1.0f, 1e-5f);
    EXPECT_GE(p.at(i, 0), 0.0f);
    EXPECT_GE(p.at(i, 1), 0.0f);
  }
}

TEST(HotspotCnnTest, InferenceDeterministic) {
  // Dropout must be inactive outside training.
  HotspotCnnConfig cfg;
  cfg.input_channels = 2;
  cfg.input_side = 4;
  cfg.stage1_maps = 4;
  cfg.stage2_maps = 4;
  cfg.fc_nodes = 8;
  HotspotCnn model(cfg);
  nn::Tensor x({1, 2, 4, 4}, 0.5f);
  nn::WorkspaceArena ws;
  nn::Tensor a = model.probabilities(x, ws);
  nn::Tensor b = model.probabilities(x, ws);
  EXPECT_FLOAT_EQ(a.at(0, 0), b.at(0, 0));
}

TEST(HotspotCnnTest, TrainingForwardIsStochastic) {
  // With 50 % dropout, two training-mode forwards differ (same input).
  HotspotCnnConfig cfg;
  cfg.input_channels = 2;
  cfg.input_side = 4;
  cfg.stage1_maps = 4;
  cfg.stage2_maps = 4;
  cfg.fc_nodes = 32;
  HotspotCnn model(cfg);
  nn::Tensor x({1, 2, 4, 4}, 0.5f);
  nn::Tensor a = model.logits(x, true);
  nn::Tensor b = model.logits(x, true);
  EXPECT_NE(a.at(0, 0), b.at(0, 0));
}

TEST(HotspotCnnTest, SeedReproducesWeights) {
  HotspotCnnConfig cfg;
  cfg.input_channels = 2;
  cfg.input_side = 4;
  cfg.stage1_maps = 4;
  cfg.stage2_maps = 4;
  cfg.fc_nodes = 8;
  cfg.seed = 99;
  HotspotCnn a(cfg), b(cfg);
  nn::Tensor x({1, 2, 4, 4}, 1.0f);
  nn::WorkspaceArena ws;
  EXPECT_FLOAT_EQ(a.probabilities(x, ws).at(0, 0),
                  b.probabilities(x, ws).at(0, 0));
  cfg.seed = 100;
  HotspotCnn c(cfg);
  EXPECT_NE(a.probabilities(x, ws).at(0, 0),
            c.probabilities(x, ws).at(0, 0));
}

TEST(HotspotCnnTest, ParamCountMatchesArchitecture) {
  HotspotCnn model;  // paper config
  // conv1-1: 16*(32*9)+16; conv1-2: 16*(16*9)+16;
  // conv2-1: 32*(16*9)+32; conv2-2: 32*(32*9)+32;
  // fc1: 250*288+250; fc2: 2*250+2.
  const std::size_t expected = (16 * 32 * 9 + 16) + (16 * 16 * 9 + 16) +
                               (32 * 16 * 9 + 32) + (32 * 32 * 9 + 32) +
                               (250 * 288 + 250) + (2 * 250 + 2);
  EXPECT_EQ(model.net().param_count(), expected);
}

TEST(HotspotCnnTest, RejectsIndivisibleInputSide) {
  HotspotCnnConfig cfg;
  cfg.input_side = 10;  // not divisible by 4
  EXPECT_THROW(HotspotCnn{cfg}, hsdl::CheckError);
}

TEST(HotspotCnnTest, ClassIndexConvention) {
  // Paper: y = [p(non-hotspot), p(hotspot)].
  EXPECT_EQ(kNonHotspotIndex, 0u);
  EXPECT_EQ(kHotspotIndex, 1u);
}

}  // namespace
}  // namespace hsdl::hotspot
