// Scan-grid geometry (DESIGN.md §16).
//
// A full-chip scan is a row-major walk over a window grid, chunked into
// bands of `band_rows` window rows. Bands are the unit of parallel
// extraction, of deterministic merge order, of resumable-scan
// journaling and of shard assignment; the grid math lives here so the
// scanner and the benchmarks derive window positions the same way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "geom/rect.hpp"
#include "hotspot/scanner.hpp"

namespace hsdl::hotspot {

/// The window grid of one scan: the x/y window origins over an extent
/// under a ScanConfig, plus the banding arithmetic.
class ScanGrid {
 public:
  ScanGrid(const geom::Rect& extent, const ScanConfig& config)
      : window_size_(config.window_size), band_rows_(config.band_rows) {
    HSDL_CHECK_MSG(extent.width() >= config.window_size &&
                       extent.height() >= config.window_size,
                   "layout smaller than the scan window");
    xs_ = grid_positions(extent.lo.x, extent.hi.x, config.window_size,
                         config.stride);
    ys_ = grid_positions(extent.lo.y, extent.hi.y, config.window_size,
                         config.stride);
  }

  /// Window origins along one axis. When the stride does not tile the
  /// extent exactly, a final origin clamped to the far edge covers the
  /// trailing band that the bare grid would silently skip. Origins are
  /// strictly increasing and deduplicated: a clamped position landing
  /// exactly on an interior grid position would otherwise scan (and
  /// possibly flag) the identical window rect twice.
  static std::vector<geom::Coord> grid_positions(geom::Coord lo,
                                                 geom::Coord hi,
                                                 geom::Coord window,
                                                 geom::Coord stride) {
    std::vector<geom::Coord> v;
    for (geom::Coord p = lo; p + window <= hi; p += stride) v.push_back(p);
    if (v.back() + window < hi) v.push_back(hi - window);
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  }

  std::size_t cols() const { return xs_.size(); }
  std::size_t rows() const { return ys_.size(); }
  std::size_t bands() const {
    return (ys_.size() + band_rows_ - 1) / band_rows_;
  }
  /// First / one-past-last window row of `band`.
  std::size_t band_row_begin(std::size_t band) const {
    return band * band_rows_;
  }
  std::size_t band_row_end(std::size_t band) const {
    return std::min(band_row_begin(band) + band_rows_, ys_.size());
  }

  geom::Rect window(std::size_t row, std::size_t col) const {
    return geom::Rect::from_xywh(xs_[col], ys_[row], window_size_,
                                 window_size_);
  }

 private:
  geom::Coord window_size_;
  std::size_t band_rows_;
  std::vector<geom::Coord> xs_;
  std::vector<geom::Coord> ys_;
};

}  // namespace hsdl::hotspot
