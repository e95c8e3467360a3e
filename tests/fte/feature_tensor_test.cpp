#include "fte/feature_tensor.hpp"

#include "fte/zigzag.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/refmode.hpp"
#include "layout/generator.hpp"
#include "layout/raster.hpp"

namespace hsdl::fte {
namespace {

using geom::Rect;
using layout::Clip;
using layout::MaskImage;

Clip demo_clip() {
  layout::GeneratorConfig cfg;
  layout::ClipGenerator gen(cfg, 321);
  return gen.generate(layout::Archetype::kLineSpace);
}

TEST(FeatureTensorTest, ShapeMatchesConfig) {
  FeatureTensorConfig cfg;  // n=12, k=32
  FeatureTensorExtractor ex(cfg);
  FeatureTensor ft = ex.extract(demo_clip());
  EXPECT_EQ(ft.n, 12u);
  EXPECT_EQ(ft.k, 32u);
  EXPECT_EQ(ft.data.size(), 12u * 12u * 32u);
}

TEST(FeatureTensorTest, DcChannelIsBlockDensity) {
  // With normalization, channel 0 of each block is its mean fill.
  FeatureTensorConfig cfg;
  FeatureTensorExtractor ex(cfg);
  Clip c;
  c.window = Rect::from_xywh(0, 0, 1200, 1200);
  // Fill exactly the first 100x100 nm block.
  c.shapes = {Rect::from_xywh(0, 0, 100, 100)};
  FeatureTensor ft = ex.extract(c);
  EXPECT_NEAR(ft.at(0, 0, 0), 1.0f, 1e-4f);
  EXPECT_NEAR(ft.at(0, 0, 1), 0.0f, 1e-4f);
  EXPECT_NEAR(ft.at(0, 5, 5), 0.0f, 1e-4f);
}

TEST(FeatureTensorTest, EmptyClipIsZeroTensor) {
  FeatureTensorExtractor ex;
  Clip c;
  c.window = Rect::from_xywh(0, 0, 1200, 1200);
  FeatureTensor ft = ex.extract(c);
  for (float v : ft.data) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(FeatureTensorTest, SpatialStructurePreserved) {
  // A shape confined to the upper-left quadrant must not light up blocks
  // in the lower-right quadrant — the property 1-D features lose.
  FeatureTensorExtractor ex;
  Clip c;
  c.window = Rect::from_xywh(0, 0, 1200, 1200);
  c.shapes = {Rect::from_xywh(0, 0, 300, 300)};
  FeatureTensor ft = ex.extract(c);
  double ul = 0, lr = 0;
  for (std::size_t ch = 0; ch < ft.k; ++ch) {
    for (std::size_t by = 0; by < 3; ++by)
      for (std::size_t bx = 0; bx < 3; ++bx)
        ul += std::abs(ft.at(ch, by, bx));
    for (std::size_t by = 9; by < 12; ++by)
      for (std::size_t bx = 9; bx < 12; ++bx)
        lr += std::abs(ft.at(ch, by, bx));
  }
  EXPECT_GT(ul, 1.0);
  EXPECT_FLOAT_EQ(lr, 0.0f);
}

TEST(FeatureTensorTest, ReconstructionApproximatesOriginal) {
  FeatureTensorConfig cfg;
  cfg.coeffs = 32;
  FeatureTensorExtractor ex(cfg);
  Clip clip = demo_clip();
  MaskImage original = layout::rasterize(clip, cfg.nm_per_px);
  FeatureTensor ft = ex.extract(original);
  MaskImage recon = ex.reconstruct(ft, original.width() / ft.n);
  ASSERT_EQ(recon.width(), original.width());
  // Mean absolute error small; k=32 keeps the bulk of the energy.
  double err = 0;
  for (std::size_t i = 0; i < original.size(); ++i)
    err += std::abs(original.data()[i] - recon.data()[i]);
  err /= static_cast<double>(original.size());
  EXPECT_LT(err, 0.15);
  // Density is captured almost exactly (DC preserved).
  EXPECT_NEAR(recon.mean(), original.mean(), 1e-3);
}

TEST(FeatureTensorTest, MoreCoefficientsReconstructBetter) {
  Clip clip = demo_clip();
  auto recon_err = [&](std::size_t k) {
    FeatureTensorConfig cfg;
    cfg.coeffs = k;
    FeatureTensorExtractor ex(cfg);
    MaskImage original = layout::rasterize(clip, cfg.nm_per_px);
    FeatureTensor ft = ex.extract(original);
    MaskImage recon = ex.reconstruct(ft, original.width() / ft.n);
    double err = 0;
    for (std::size_t i = 0; i < original.size(); ++i)
      err += std::abs(original.data()[i] - recon.data()[i]);
    return err / static_cast<double>(original.size());
  };
  const double e8 = recon_err(8);
  const double e32 = recon_err(32);
  const double e128 = recon_err(128);
  EXPECT_GT(e8, e32);
  EXPECT_GT(e32, e128);
}

TEST(FeatureTensorTest, FullCoefficientsReconstructExactly) {
  // Keeping every coefficient makes the transform lossless.
  FeatureTensorConfig cfg;
  cfg.blocks_per_side = 4;
  cfg.nm_per_px = 10.0;  // 1200/10/4 = 30 px blocks
  cfg.coeffs = 30 * 30;
  cfg.normalize = false;
  FeatureTensorExtractor ex(cfg);
  Clip clip = demo_clip();
  MaskImage original = layout::rasterize(clip, cfg.nm_per_px);
  FeatureTensor ft = ex.extract(original);
  MaskImage recon = ex.reconstruct(ft, original.width() / ft.n);
  EXPECT_LT(MaskImage::max_abs_diff(original, recon), 1e-3);
}

TEST(FeatureTensorTest, NormalizationScalesLinearly) {
  FeatureTensorConfig with;
  with.normalize = true;
  FeatureTensorConfig without = with;
  without.normalize = false;
  Clip clip = demo_clip();
  FeatureTensor a = FeatureTensorExtractor(with).extract(clip);
  FeatureTensor b = FeatureTensorExtractor(without).extract(clip);
  const double block_px = 1200.0 / with.nm_per_px / with.blocks_per_side;
  for (std::size_t i = 0; i < a.data.size(); i += 97)
    EXPECT_NEAR(b.data[i], a.data[i] * block_px, 1e-3);
}

TEST(FeatureTensorTest, PartialAndFullDctAgreeInExtraction) {
  // Extraction via the partial corner must equal brute force through the
  // full DCT (the paper's Step 2-4 computed naively).
  FeatureTensorConfig cfg;
  cfg.normalize = false;
  FeatureTensorExtractor ex(cfg);
  Clip clip = demo_clip();
  MaskImage raster = layout::rasterize(clip, cfg.nm_per_px);
  FeatureTensor fast = ex.extract(raster);

  const std::size_t B = raster.width() / cfg.blocks_per_side;
  DctPlan plan(B);
  std::vector<float> block(B * B), coeffs(B * B), scan(cfg.coeffs);
  for (std::size_t by = 0; by < cfg.blocks_per_side; ++by) {
    for (std::size_t bx = 0; bx < cfg.blocks_per_side; ++bx) {
      for (std::size_t y = 0; y < B; ++y)
        for (std::size_t x = 0; x < B; ++x)
          block[y * B + x] = raster.at(bx * B + x, by * B + y);
      plan.forward(block.data(), coeffs.data());
      zigzag_take(coeffs.data(), B, cfg.coeffs, scan.data());
      for (std::size_t c = 0; c < cfg.coeffs; ++c)
        EXPECT_NEAR(fast.at(c, by, bx), scan[c], 2e-3f)
            << "block (" << by << "," << bx << ") coeff " << c;
    }
  }
}

TEST(FeatureTensorTest, RejectsBadInputs) {
  FeatureTensorExtractor ex;
  MaskImage not_square(100, 50, 1.0);
  EXPECT_THROW(ex.extract(not_square), hsdl::CheckError);
  MaskImage indivisible(100, 100, 1.0);  // 100 % 12 != 0
  EXPECT_THROW(ex.extract(indivisible), hsdl::CheckError);

  // The clip overload rejects the same shapes, and windows that are not a
  // whole number of pixels.
  Clip clip;
  clip.window = Rect::from_xywh(0, 0, 1200, 600);
  EXPECT_THROW(ex.extract(clip), hsdl::CheckError);
  clip.window = Rect::from_xywh(0, 0, 1000, 1000);  // 500 px % 12 != 0
  EXPECT_THROW(ex.extract(clip), hsdl::CheckError);
  clip.window = Rect::from_xywh(0, 0, 1201, 1201);  // 600.5 px
  EXPECT_THROW(ex.extract(clip), hsdl::CheckError);

  FeatureTensorConfig cfg;
  cfg.coeffs = 0;
  EXPECT_THROW(FeatureTensorExtractor{cfg}, hsdl::CheckError);
}

void expect_bitwise_equal(const FeatureTensor& a, const FeatureTensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  for (std::size_t i = 0; i < a.data.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.data[i]),
              std::bit_cast<std::uint32_t>(b.data[i]))
        << what << " index " << i << ": " << a.data[i] << " vs " << b.data[i];
}

TEST(FeatureTensorTest, ClipOverloadMatchesReferencePipeline) {
  // Extraction straight from the shapes equals extraction from the raster
  // of the same clip, bit for bit: the scan ledger and every cached or
  // rescored window rely on it. The hand-made clip sits off the origin and
  // has overlapping, nested, touching, block-straddling and partly outside
  // shapes.
  Clip edge;
  edge.window = Rect::from_xywh(3000, -1200, 1200, 1200);
  edge.shapes = {Rect::from_xywh(3000, -1200, 240, 130),   // corner
                 Rect::from_xywh(3100, -1150, 300, 300),   // overlaps it
                 Rect::from_xywh(3400, -1150, 50, 300),    // touches it
                 Rect::from_xywh(3401, -700, 97, 3),       // sub-block sliver
                 Rect::from_xywh(2900, -300, 400, 100),    // partly outside
                 Rect::from_xywh(4100, -1300, 500, 2000),  // partly outside
                 Rect::from_xywh(3550, -650, 1, 400),      // no pixel centre
                 Rect::from_xywh(3600, -500, 400, 250),    // holds the next
                 Rect::from_xywh(3700, -550, 100, 150),    // inside it in x
                 Rect::from_xywh(5000, 5000, 10, 10)};     // fully outside
  for (const Clip& clip : {demo_clip(), edge}) {
    for (double nm_per_px : {2.0, 4.0}) {
      FeatureTensorConfig cfg;
      cfg.nm_per_px = nm_per_px;
      FeatureTensorExtractor ex(cfg);
      expect_bitwise_equal(ex.extract(clip),
                           ex.extract(layout::rasterize(clip, nm_per_px)),
                           "nm_per_px=" + std::to_string(nm_per_px));
    }
  }
}

TEST(FeatureTensorTest, EveryArchetypeMatchesRasterBitwiseAndReference) {
  // The extraction gate: on every generator archetype, at both raster
  // pitches and both serving coefficient counts, the clip overload equals
  // the raster overload bitwise and each coefficient stays within 1e-5 of
  // reference mode's per-block DCT.
  for (double nm_per_px : {2.0, 4.0}) {
    for (std::size_t k : {16u, 32u}) {
      FeatureTensorConfig cfg;
      cfg.nm_per_px = nm_per_px;
      cfg.coeffs = k;
      FeatureTensorExtractor ex(cfg);
      for (int a = 0; a < layout::kNumArchetypes; ++a) {
        const auto archetype = static_cast<layout::Archetype>(a);
        layout::ClipGenerator gen(layout::GeneratorConfig{},
                                  1000 + static_cast<std::uint64_t>(a));
        for (int i = 0; i < 3; ++i) {
          const Clip clip = gen.generate(archetype);
          const std::string what = std::string(layout::to_string(archetype)) +
                                   " #" + std::to_string(i) + " nm_per_px=" +
                                   std::to_string(nm_per_px) +
                                   " k=" + std::to_string(k);
          const FeatureTensor fast = ex.extract(clip);
          expect_bitwise_equal(
              fast, ex.extract(layout::rasterize(clip, nm_per_px)), what);
          runtime::ReferenceModeGuard guard(true);
          const FeatureTensor ref = ex.extract(clip);
          for (std::size_t j = 0; j < ref.data.size(); ++j)
            ASSERT_NEAR(fast.data[j], ref.data[j], 1e-5)
                << what << " index " << j;
        }
      }
    }
  }
}

TEST(FeatureTensorTest, RejectsNonBinaryRaster) {
  FeatureTensorExtractor ex;
  MaskImage raster = layout::rasterize(demo_clip(), 2.0);
  raster.at(317, 211) = 0.5f;
  EXPECT_THROW(ex.extract(raster), hsdl::CheckError);
}

TEST(FeatureTensorTest, RejectsTooManyCoeffsForBlock) {
  FeatureTensorConfig cfg;
  cfg.blocks_per_side = 12;
  cfg.coeffs = 3000;  // 50x50 px blocks only have 2500 coefficients
  FeatureTensorExtractor ex(cfg);
  EXPECT_THROW(ex.extract(demo_clip()), hsdl::CheckError);
}

}  // namespace
}  // namespace hsdl::fte
