// Raster mask images and clip rasterization.
//
// Both feature extraction (DCT over pixel blocks) and lithography
// simulation consume a sampled binary mask. MaskImage is a dense row-major
// float grid with a physical pixel pitch in nanometres.
#pragma once

#include <cstddef>
#include <vector>

#include "layout/clip.hpp"

namespace hsdl::layout {

/// Dense row-major float image with physical pixel pitch.
class MaskImage {
 public:
  MaskImage() = default;
  MaskImage(std::size_t width, std::size_t height, double nm_per_px,
            float fill = 0.0f);

  /// Re-shapes this image in place and refills it with `fill`, keeping
  /// the existing allocation when it is large enough.
  void reset(std::size_t width, std::size_t height, double nm_per_px,
             float fill = 0.0f);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }
  double nm_per_px() const { return nm_per_px_; }
  std::size_t size() const { return data_.size(); }

  float& at(std::size_t x, std::size_t y) { return data_[y * width_ + x]; }
  float at(std::size_t x, std::size_t y) const { return data_[y * width_ + x]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t y) { return data_.data() + y * width_; }
  const float* row(std::size_t y) const { return data_.data() + y * width_; }

  /// Mean pixel value (image density for binary masks).
  double mean() const;

  /// Max |a - b| over all pixels; images must have identical shape.
  static double max_abs_diff(const MaskImage& a, const MaskImage& b);

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  double nm_per_px_ = 1.0;
  std::vector<float> data_;
};

/// Pixel index rectangle [x0, x1) x [y0, y1); empty when x0 >= x1 or
/// y0 >= y1.
struct PixelRect {
  std::size_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool empty() const { return x0 >= x1 || y0 >= y1; }
};

/// The pixel grid a clip rasterizes onto at a given pitch: the one place
/// that decides which pixels a shape covers, shared by rasterize_into and
/// by feature extraction straight from geometry (fte), so both see the
/// same pixels.
///
/// Pixel (x, y) covers the physical square
/// [window.lo + x*pitch, +pitch) x [window.lo + y*pitch, +pitch); a shape
/// covers a pixel when the pixel's *centre* falls inside it, which keeps
/// abutting shapes seamless.
class PixelGrid {
 public:
  /// Throws CheckError unless the window is non-empty and an integer
  /// number of pixels on each side.
  PixelGrid(const geom::Rect& window, double nm_per_px);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }

  /// Pixels `shape` covers, clipped to the window.
  PixelRect covered(const geom::Rect& shape) const;

 private:
  geom::Rect window_;
  double nm_per_px_;
  std::size_t width_ = 0;
  std::size_t height_ = 0;
};

/// Rasterizes a clip to a binary mask (1 inside shapes, 0 outside) on its
/// PixelGrid. The window extent must be an integer multiple of the pitch.
MaskImage rasterize(const Clip& clip, double nm_per_px);

/// Allocation-free variant: rasterizes into `img`, reset() to the right
/// shape (reusing its buffer). Pixel values are bitwise identical to
/// rasterize()'s.
void rasterize_into(const Clip& clip, double nm_per_px, MaskImage& img);

}  // namespace hsdl::layout
