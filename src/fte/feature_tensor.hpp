// Feature tensor generation (paper Section 3).
//
// A clip raster of (n*B) x (n*B) pixels is divided into n x n blocks of
// B x B pixels; each block is DCT-transformed, zig-zag scanned, and
// truncated to its first k coefficients. The results are reassembled with
// block positions preserved, yielding a k x n x n tensor (channel-major:
// channel c holds the c-th zig-zag coefficient of every block). The
// transform is approximately invertible: reconstruct() inverts exactly the
// retained coefficients and zeroes the discarded high frequencies.
//
// The mask is binary and rectilinear, and the 2-D DCT is separable, so no
// pixel transform is needed: a covered pixel rectangle [x0,x1) x [y0,y1)
// of a block adds Sy[m] * Sx[n] to coefficient (m, n), where S is a
// difference of prefix sums of the basis rows. Both extract_into overloads
// reduce their input to the same canonical row-run slabs and add those up
// in one fixed order, so a clip and its raster give bitwise-equal tensors.
// Reference mode (common/refmode.hpp) runs the per-block DctPlan::partial
// pipeline instead; it agrees with the slab sums to within float rounding
// (about 1e-6) and is the tolerance oracle in the tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "fte/dct.hpp"
#include "layout/clip.hpp"
#include "layout/raster.hpp"

namespace hsdl::fte {

/// k x n x n feature tensor in channel-major (CHW) layout, ready to be the
/// input feature map stack of a CNN.
struct FeatureTensor {
  std::size_t n = 0;  ///< blocks per side
  std::size_t k = 0;  ///< coefficients kept per block (channels)
  std::vector<float> data;  ///< size k*n*n, data[(c*n + by)*n + bx]

  float& at(std::size_t c, std::size_t by, std::size_t bx) {
    return data[(c * n + by) * n + bx];
  }
  float at(std::size_t c, std::size_t by, std::size_t bx) const {
    return data[(c * n + by) * n + bx];
  }
};

struct FeatureTensorConfig {
  std::size_t blocks_per_side = 12;  ///< n; paper: 12
  std::size_t coeffs = 32;           ///< k; channels kept per block
  double nm_per_px = 2.0;  ///< raster pitch; paper: 1 nm/px, see DESIGN.md §5
  /// Divide coefficients by the block side so the DC channel is the block
  /// mean density (in [0, 1]) — keeps CNN input scale O(1) regardless of
  /// raster resolution. reconstruct() undoes the scaling.
  bool normalize = true;
};

/// Extracts feature tensors from clips/rasters; owns the DCT plan, so reuse
/// one extractor across a dataset.
class FeatureTensorExtractor {
 public:
  explicit FeatureTensorExtractor(const FeatureTensorConfig& config = {});

  const FeatureTensorConfig& config() const { return config_; }

  /// Extract from a pre-rasterized clip. The raster must be square with a
  /// side divisible by n, and binary: any pixel other than 0 or 1 throws
  /// CheckError.
  FeatureTensor extract(const layout::MaskImage& raster) const;

  /// Extracts from the clip's shapes at config().nm_per_px.
  FeatureTensor extract(const layout::Clip& clip) const;

  /// Extracts directly into caller-owned storage of exactly k*n*n floats,
  /// laid out channel-major like FeatureTensor::data. The extract()
  /// overloads delegate here, so results are bitwise identical. Batch
  /// pipelines (the inference engine) point `out` at a slice of their
  /// input slab.
  void extract_into(const layout::MaskImage& raster,
                    std::span<float> out) const;

  /// Extracts straight from the clip's shapes, with the pixel coverage of
  /// layout::PixelGrid at config().nm_per_px; bitwise equal to extracting
  /// from rasterize(clip, config().nm_per_px). Checks the window with
  /// check_window first.
  void extract_into(const layout::Clip& clip, std::span<float> out) const;

  /// Throws CheckError unless a clip with this window can be extracted:
  /// its sides are whole pixels at config().nm_per_px, equal, and divide
  /// into n blocks that hold k coefficients each. Returns the block
  /// side B in pixels. Batch pipelines call it on the submitting thread,
  /// before a bad window can reach a worker thread.
  std::size_t check_window(const geom::Rect& window) const;

  /// Batched extraction, parallel over clips on the shared thread pool.
  /// Results are index-aligned with `clips` and bitwise identical to
  /// calling extract() serially (each clip is an independent output).
  std::vector<FeatureTensor> extract_batch(
      std::span<const layout::Clip> clips) const;

  /// Inverse: reassembles an approximate raster from a tensor.
  /// `block_px` chooses the output block resolution (use the same value as
  /// extraction for a like-for-like comparison).
  layout::MaskImage reconstruct(const FeatureTensor& tensor,
                                std::size_t block_px) const;

 private:
  /// Everything extraction needs for one block size B, built once.
  struct BlockPlan {
    BlockPlan(std::size_t block, std::size_t coeffs);
    DctPlan dct;
    /// Corner side holding the first min(k, B^2) zig-zag positions.
    std::size_t kp;
    /// Those positions as (row, col) of the kp x kp corner.
    std::vector<std::pair<std::size_t, std::size_t>> order;
    /// prefix[m * (B + 1) + x] = sum of dct.basis()[m * B + t] over t < x,
    /// in double, for m < kp.
    std::vector<double> prefix;
  };
  /// Canonical row-run slabs of a binary mask (defined in the .cpp).
  struct Slabs;

  const BlockPlan& plan_for(std::size_t block) const;

  /// Checks that a width x height mask divides into n square blocks of
  /// at least k pixels and returns the block side B.
  std::size_t block_side(std::size_t width, std::size_t height) const;

  /// Counts an extraction into `out` in the metrics and checks its size.
  void start_extract(std::span<float> out) const;

  /// Adds every slab into its blocks' coefficients and writes the scaled
  /// zig-zag prefixes to `out`: the one production extraction routine.
  void extract_slabs(const Slabs& slabs, std::size_t block,
                     std::span<float> out) const;

  /// Reference-mode oracle: gathers each block and runs DctPlan::partial
  /// and zigzag_take on the copy.
  void extract_reference(const layout::MaskImage& raster, std::size_t block,
                         std::span<float> out) const;

  FeatureTensorConfig config_;
  // Plans are cached per block size (tests exercise several resolutions).
  // unique_ptr keeps plan addresses stable across cache growth and the
  // mutex guards the lazy insert; built plans are immutable and shared.
  // The atomic holds the last plan used, so the steady state (one block
  // size, many threads) never takes the mutex.
  mutable std::mutex plans_mu_;
  mutable std::vector<std::pair<std::size_t, std::unique_ptr<BlockPlan>>>
      plans_;
  mutable std::atomic<const BlockPlan*> plan_cache_{nullptr};
};

}  // namespace hsdl::fte
