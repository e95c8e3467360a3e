#include "layout/raster.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace hsdl::layout {
namespace {

using geom::Rect;

Clip make_clip(geom::Coord size, std::vector<Rect> shapes) {
  Clip c;
  c.window = Rect::from_xywh(0, 0, size, size);
  c.shapes = std::move(shapes);
  return c;
}

TEST(MaskImageTest, ConstructionAndFill) {
  MaskImage img(4, 3, 2.0, 0.5f);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_DOUBLE_EQ(img.nm_per_px(), 2.0);
  EXPECT_FLOAT_EQ(img.at(3, 2), 0.5f);
  EXPECT_DOUBLE_EQ(img.mean(), 0.5);
}

TEST(MaskImageTest, RowMajorLayout) {
  MaskImage img(3, 2, 1.0);
  img.at(2, 1) = 7.0f;
  EXPECT_FLOAT_EQ(img.data()[1 * 3 + 2], 7.0f);
  EXPECT_FLOAT_EQ(img.row(1)[2], 7.0f);
}

TEST(MaskImageTest, MaxAbsDiff) {
  MaskImage a(2, 2, 1.0), b(2, 2, 1.0);
  b.at(1, 1) = 0.25f;
  EXPECT_DOUBLE_EQ(MaskImage::max_abs_diff(a, b), 0.25);
  EXPECT_DOUBLE_EQ(MaskImage::max_abs_diff(a, a), 0.0);
}

TEST(MaskImageTest, MaxAbsDiffShapeMismatchThrows) {
  MaskImage a(2, 2, 1.0), b(3, 2, 1.0);
  EXPECT_THROW(MaskImage::max_abs_diff(a, b), hsdl::CheckError);
}

TEST(RasterizeTest, EmptyClipIsAllZero) {
  MaskImage img = rasterize(make_clip(100, {}), 1.0);
  EXPECT_EQ(img.width(), 100u);
  EXPECT_DOUBLE_EQ(img.mean(), 0.0);
}

TEST(RasterizeTest, FullCoverage) {
  MaskImage img =
      rasterize(make_clip(100, {Rect::from_xywh(0, 0, 100, 100)}), 1.0);
  EXPECT_DOUBLE_EQ(img.mean(), 1.0);
}

TEST(RasterizeTest, ExactPixelCountAt1nm) {
  MaskImage img =
      rasterize(make_clip(100, {Rect::from_xywh(10, 20, 30, 40)}), 1.0);
  double set = img.mean() * 100 * 100;
  EXPECT_NEAR(set, 30 * 40, 0.5);
}

TEST(RasterizeTest, ExactPixelCountAt2nm) {
  MaskImage img =
      rasterize(make_clip(100, {Rect::from_xywh(10, 20, 30, 40)}), 2.0);
  EXPECT_EQ(img.width(), 50u);
  double set = img.mean() * 50 * 50;
  EXPECT_NEAR(set, 15 * 20, 0.5);
}

TEST(RasterizeTest, AbuttingShapesDoNotDoubleCover) {
  // Two abutting rects tile the window exactly.
  MaskImage img = rasterize(make_clip(100, {Rect::from_xywh(0, 0, 50, 100),
                                            Rect::from_xywh(50, 0, 50, 100)}),
                            1.0);
  EXPECT_DOUBLE_EQ(img.mean(), 1.0);
}

TEST(RasterizeTest, AbuttingShapesLeaveNoSeam) {
  MaskImage img = rasterize(make_clip(100, {Rect::from_xywh(0, 0, 50, 100),
                                            Rect::from_xywh(50, 0, 50, 100)}),
                            2.0);
  for (std::size_t x = 0; x < img.width(); ++x)
    EXPECT_FLOAT_EQ(img.at(x, 25), 1.0f) << "column " << x;
}

TEST(RasterizeTest, ShapeOutsideWindowIgnored) {
  MaskImage img =
      rasterize(make_clip(100, {Rect::from_xywh(200, 200, 50, 50)}), 1.0);
  EXPECT_DOUBLE_EQ(img.mean(), 0.0);
}

TEST(RasterizeTest, ShapePartiallyOutsideClipped) {
  MaskImage img =
      rasterize(make_clip(100, {Rect::from_xywh(80, 0, 50, 100)}), 1.0);
  EXPECT_NEAR(img.mean() * 100 * 100, 20 * 100, 0.5);
}

TEST(RasterizeTest, NonIntegerPixelCountThrows) {
  EXPECT_THROW(rasterize(make_clip(100, {}), 3.0), hsdl::CheckError);
}

TEST(RasterizeTest, EmptyWindowThrows) {
  Clip c;
  EXPECT_THROW(rasterize(c, 1.0), hsdl::CheckError);
}

TEST(RasterizeTest, PixelCenterConvention) {
  // A 1 nm sliver at x=[0,1) covers the centre of pixel 0 at 1 nm/px...
  MaskImage img1 =
      rasterize(make_clip(10, {Rect::from_xywh(0, 0, 1, 10)}), 1.0);
  EXPECT_FLOAT_EQ(img1.at(0, 5), 1.0f);
  // ...but not the centre of pixel 0 at 2 nm/px (centre at 1.0 nm).
  MaskImage img2 =
      rasterize(make_clip(10, {Rect::from_xywh(0, 0, 1, 10)}), 2.0);
  EXPECT_FLOAT_EQ(img2.at(0, 2), 0.0f);
}

TEST(RasterizeTest, WindowOffsetIrrelevant) {
  Clip a = make_clip(100, {Rect::from_xywh(10, 10, 30, 30)});
  Clip b;
  b.window = Rect::from_xywh(1000, 2000, 100, 100);
  b.shapes = {Rect::from_xywh(1010, 2010, 30, 30)};
  MaskImage ia = rasterize(a, 2.0);
  MaskImage ib = rasterize(b, 2.0);
  EXPECT_DOUBLE_EQ(MaskImage::max_abs_diff(ia, ib), 0.0);
}

TEST(RasterizeTest, IntoReusedImageMatchesFresh) {
  // rasterize_into must not let a reused image's old pixels leak through,
  // whatever wrote them and whatever shape the image had.
  const Clip first = make_clip(100, {Rect::from_xywh(0, 0, 100, 60)});
  Clip second = make_clip(100, {Rect::from_xywh(10, 50, 30, 40),
                                Rect::from_xywh(60, 0, 20, 20)});
  MaskImage img;
  rasterize_into(first, 2.0, img);
  img.at(45, 45) = 0.5f;  // a writer other than rasterize_into
  rasterize_into(second, 2.0, img);
  MaskImage fresh = rasterize(second, 2.0);
  ASSERT_EQ(img.width(), fresh.width());
  EXPECT_EQ(MaskImage::max_abs_diff(img, fresh), 0.0);

  second.window = Rect::from_xywh(0, 0, 60, 60);  // the image changes shape
  rasterize_into(second, 2.0, img);
  fresh = rasterize(second, 2.0);
  ASSERT_EQ(img.width(), 30u);
  ASSERT_EQ(img.height(), 30u);
  EXPECT_EQ(MaskImage::max_abs_diff(img, fresh), 0.0);
}

}  // namespace
}  // namespace hsdl::layout
