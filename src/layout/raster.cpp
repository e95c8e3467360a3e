#include "layout/raster.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace hsdl::layout {

MaskImage::MaskImage(std::size_t width, std::size_t height, double nm_per_px,
                     float fill)
    : width_(width),
      height_(height),
      nm_per_px_(nm_per_px),
      data_(width * height, fill) {
  HSDL_CHECK(width > 0 && height > 0);
  HSDL_CHECK(nm_per_px > 0.0);
}

void MaskImage::reset(std::size_t width, std::size_t height, double nm_per_px,
                      float fill) {
  HSDL_CHECK(width > 0 && height > 0);
  HSDL_CHECK(nm_per_px > 0.0);
  width_ = width;
  height_ = height;
  nm_per_px_ = nm_per_px;
  data_.assign(width * height, fill);  // assign() reuses capacity
}

double MaskImage::mean() const {
  if (data_.empty()) return 0.0;
  double sum = 0.0;
  for (float v : data_) sum += v;
  return sum / static_cast<double>(data_.size());
}

double MaskImage::max_abs_diff(const MaskImage& a, const MaskImage& b) {
  HSDL_CHECK(a.width() == b.width() && a.height() == b.height());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(a.data()[i]) -
                                     static_cast<double>(b.data()[i])));
  return worst;
}

MaskImage rasterize(const Clip& clip, double nm_per_px) {
  MaskImage img;
  rasterize_into(clip, nm_per_px, img);
  return img;
}

PixelGrid::PixelGrid(const geom::Rect& window, double nm_per_px)
    : window_(window), nm_per_px_(nm_per_px) {
  HSDL_CHECK(!window.empty());
  HSDL_CHECK(nm_per_px > 0.0);
  const double wpx = static_cast<double>(window.width()) / nm_per_px;
  const double hpx = static_cast<double>(window.height()) / nm_per_px;
  HSDL_CHECK_MSG(std::abs(wpx - std::round(wpx)) < 1e-9 &&
                     std::abs(hpx - std::round(hpx)) < 1e-9,
                 "window " << window.width() << "x" << window.height()
                           << " nm is not an integer number of pixels at "
                           << nm_per_px << " nm/px");
  width_ = static_cast<std::size_t>(std::llround(wpx));
  height_ = static_cast<std::size_t>(std::llround(hpx));
}

PixelRect PixelGrid::covered(const geom::Rect& shape) const {
  const geom::Rect r = shape.intersect(window_);
  if (r.empty()) return {};
  // Pixel centre of column x sits at window.lo.x + (x + 0.5) * pitch; it is
  // covered by [r.lo.x, r.hi.x) iff
  // ceil((r.lo.x - 0.5*p - lo) / p) <= x < ceil((r.hi.x - 0.5*p - lo) / p).
  auto first_covered = [&](geom::Coord edge, geom::Coord lo,
                           std::size_t extent) {
    const double v = static_cast<double>(edge - lo) / nm_per_px_ - 0.5;
    const auto c = static_cast<long long>(std::ceil(v - 1e-12));
    return static_cast<std::size_t>(
        std::clamp(c, 0LL, static_cast<long long>(extent)));
  };
  PixelRect p{first_covered(r.lo.x, window_.lo.x, width_),
              first_covered(r.lo.y, window_.lo.y, height_),
              first_covered(r.hi.x, window_.lo.x, width_),
              first_covered(r.hi.y, window_.lo.y, height_)};
  if (p.empty()) return {};
  return p;
}

void rasterize_into(const Clip& clip, double nm_per_px, MaskImage& img) {
  const PixelGrid grid(clip.window, nm_per_px);
  img.reset(grid.width(), grid.height(), nm_per_px);
  for (const geom::Rect& shape : clip.shapes) {
    const PixelRect p = grid.covered(shape);
    for (std::size_t y = p.y0; y < p.y1; ++y)
      std::fill(img.row(y) + p.x0, img.row(y) + p.x1, 1.0f);
  }
}

}  // namespace hsdl::layout
