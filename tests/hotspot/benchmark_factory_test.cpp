#include "hotspot/benchmark_factory.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "litho/labeler.hpp"

namespace hsdl::hotspot {
namespace {

TEST(BenchmarkSpecTest, PaperCountsAtFullScale) {
  BenchmarkSpec s = iccad_spec(1.0);
  EXPECT_EQ(s.name, "ICCAD");
  EXPECT_EQ(s.train_hotspots, 1204u);
  EXPECT_EQ(s.train_non_hotspots, 17096u);
  EXPECT_EQ(s.test_hotspots, 2524u);
  EXPECT_EQ(s.test_non_hotspots, 13503u);
}

TEST(BenchmarkSpecTest, IndustryCountsAtFullScale) {
  BenchmarkSpec s1 = industry1_spec(1.0);
  EXPECT_EQ(s1.train_hotspots, 34281u);
  EXPECT_EQ(s1.train_non_hotspots, 15635u);
  BenchmarkSpec s3 = industry3_spec(1.0);
  EXPECT_EQ(s3.test_hotspots, 12228u);
  EXPECT_EQ(s3.test_non_hotspots, 24817u);
}

TEST(BenchmarkSpecTest, ScaleShrinksProportionally) {
  BenchmarkSpec s = iccad_spec(0.1);
  EXPECT_EQ(s.train_hotspots, 120u);
  EXPECT_EQ(s.train_non_hotspots, 1709u);
}

TEST(BenchmarkSpecTest, CountsNeverBelowFloor) {
  BenchmarkSpec s = iccad_spec(0.0001);
  EXPECT_GE(s.train_hotspots, 8u);
  EXPECT_GE(s.test_hotspots, 8u);
}

TEST(BenchmarkSpecTest, AllSpecsOrdered) {
  auto specs = all_specs(0.1);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "ICCAD");
  EXPECT_EQ(specs[1].name, "Industry1");
  EXPECT_EQ(specs[2].name, "Industry2");
  EXPECT_EQ(specs[3].name, "Industry3");
}

TEST(BenchmarkSpecTest, HotspotRichTestcaseHasHigherStress) {
  // Industry1's train set is hotspot-majority; its generator must be the
  // most aggressive.
  EXPECT_GT(industry1_spec(1.0).generator.stress,
            iccad_spec(1.0).generator.stress);
}

/// The iccad_spec(0.008) corpus (tiny but above the floor), built once on
/// first use and shared: each build generates and litho-labels every
/// clip, which dominates this suite's time.
const layout::BenchmarkData& shared_corpus() {
  static const layout::BenchmarkData data = build_benchmark(iccad_spec(0.008));
  return data;
}

TEST(BuildBenchmarkTest, MeetsQuotasExactly) {
  BenchmarkSpec spec = iccad_spec(0.008);
  const layout::BenchmarkData& data = shared_corpus();
  EXPECT_EQ(data.name, "ICCAD");
  EXPECT_EQ(data.train_hotspots(), spec.train_hotspots);
  EXPECT_EQ(data.train_non_hotspots(), spec.train_non_hotspots);
  EXPECT_EQ(data.test_hotspots(), spec.test_hotspots);
  EXPECT_EQ(data.test_non_hotspots(), spec.test_non_hotspots);
}

TEST(BuildBenchmarkTest, LabelsAreResolvedAndCorrect) {
  BenchmarkSpec spec = iccad_spec(0.008);
  const layout::BenchmarkData& data = shared_corpus();
  litho::HotspotLabeler labeler(spec.litho);
  // Spot-check: stored labels must match fresh labeler output.
  for (std::size_t i = 0; i < data.train.size(); i += 37) {
    EXPECT_EQ(data.train[i].label, labeler.label(data.train[i].clip));
    EXPECT_NE(data.train[i].label, layout::HotspotLabel::kUnknown);
  }
}

TEST(BuildBenchmarkTest, DeterministicBySeed) {
  BenchmarkSpec spec = iccad_spec(0.008);
  const layout::BenchmarkData& a = shared_corpus();
  layout::BenchmarkData b = build_benchmark(spec);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); i += 17)
    EXPECT_EQ(a.train[i].clip.shapes, b.train[i].clip.shapes);
}

TEST(BuildBenchmarkTest, DifferentSeedsDiffer) {
  BenchmarkSpec spec = iccad_spec(0.008);
  const layout::BenchmarkData& a = shared_corpus();
  spec.seed ^= 0xFFFF;
  layout::BenchmarkData c = build_benchmark(spec);
  EXPECT_NE(a.train[0].clip.shapes, c.train[0].clip.shapes);
}

TEST(BuildBenchmarkTest, ClipsHaveExpectedWindow) {
  BenchmarkSpec spec = iccad_spec(0.008);
  const layout::BenchmarkData& data = shared_corpus();
  for (const auto& lc : data.train) {
    EXPECT_EQ(lc.clip.window.width(), spec.generator.clip_size);
    EXPECT_EQ(lc.clip.window.height(), spec.generator.clip_size);
  }
}

TEST(BuildBenchmarkTest, EmptyNameRejected) {
  BenchmarkSpec spec = iccad_spec(0.008);
  spec.name.clear();
  EXPECT_THROW(build_benchmark(spec), hsdl::CheckError);
}

}  // namespace
}  // namespace hsdl::hotspot
