#include "fte/feature_tensor.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/refmode.hpp"
#include "common/trace.hpp"
#include "fte/zigzag.hpp"

namespace hsdl::fte {
namespace {

FeatureTensor zero_tensor(const FeatureTensorConfig& config) {
  const std::size_t n = config.blocks_per_side;
  const std::size_t k = config.coeffs;
  return {n, k, std::vector<float>(k * n * n, 0.0f)};
}

}  // namespace

/// Canonical row-run slabs of a binary mask: maximal runs of rows inside
/// one block row whose runs of 1-pixels are identical, by ascending y.
/// Rows without a run get no slab. A clip and its raster reduce to the
/// same slabs, so extract_slabs adds the same terms in the same order for
/// both.
struct FeatureTensorExtractor::Slabs {
  struct Run {
    std::size_t x0, x1;
    friend bool operator==(const Run&, const Run&) = default;
  };
  struct Slab {
    std::size_t y0, y1;
    std::size_t begin, end;  ///< runs[begin, end), ascending x
  };

  std::size_t block = 0;
  std::vector<Slab> slabs;
  std::vector<Run> runs;

  /// Appends rows [y0, y1) (inside one block row) whose runs are
  /// `row_runs`: sorted, neither overlapping nor touching. Extends the
  /// last slab instead when it ends at y0 in the same block row with the
  /// same runs.
  void add(std::size_t y0, std::size_t y1, std::span<const Run> row_runs) {
    if (row_runs.empty()) return;
    if (!slabs.empty()) {
      Slab& last = slabs.back();
      if (last.y1 == y0 && y0 % block != 0 &&
          std::ranges::equal(
              std::span(runs).subspan(last.begin, last.end - last.begin),
              row_runs)) {
        last.y1 = y1;
        return;
      }
    }
    slabs.push_back({y0, y1, runs.size(), runs.size() + row_runs.size()});
    runs.insert(runs.end(), row_runs.begin(), row_runs.end());
  }

  /// Raster front end: the runs of each row; a row bitwise equal to the
  /// previous row of its block row extends the current slab unread.
  static Slabs from_raster(const layout::MaskImage& raster,
                           std::size_t block) {
    Slabs s;
    s.block = block;
    std::vector<Run> row_runs;
    const std::size_t width = raster.width();
    for (std::size_t y = 0; y < raster.height(); ++y) {
      const float* row = raster.row(y);
      if (y % block != 0 &&
          std::memcmp(row, raster.row(y - 1), width * sizeof(float)) == 0) {
        if (!s.slabs.empty() && s.slabs.back().y1 == y) ++s.slabs.back().y1;
        continue;
      }
      row_runs.clear();
      for (std::size_t x = 0; x < width;) {
        if (row[x] == 0.0f) {
          ++x;
          continue;
        }
        HSDL_CHECK_MSG(row[x] == 1.0f,
                       "feature extraction expects a binary raster; pixel ("
                           << x << ", " << y << ") is " << row[x]);
        const std::size_t x0 = x;
        while (x < width && row[x] == 1.0f) ++x;
        row_runs.push_back({x0, x});
      }
      s.add(y, y + 1, row_runs);
    }
    return s;
  }

  /// Clip front end: each shape's covered pixels, y cut at shape edges and
  /// block rows, and each cut's x-intervals merged where they overlap or
  /// touch (raster runs are maximal).
  static Slabs from_clip(const layout::Clip& clip,
                         const layout::PixelGrid& grid, std::size_t block) {
    Slabs s;
    s.block = block;
    std::vector<layout::PixelRect> rects;
    std::vector<std::size_t> cuts;
    for (const geom::Rect& shape : clip.shapes) {
      const layout::PixelRect p = grid.covered(shape);
      if (p.empty()) continue;
      rects.push_back(p);
      cuts.push_back(p.y0);
      cuts.push_back(p.y1);
    }
    for (std::size_t y = 0; y <= grid.height(); y += block) cuts.push_back(y);
    std::ranges::sort(cuts);
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::ranges::sort(rects, {}, &layout::PixelRect::y0);

    std::vector<layout::PixelRect> active;
    std::vector<Run> row_runs;
    std::size_t next = 0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::size_t y0 = cuts[i];
      std::erase_if(active, [&](const auto& r) { return r.y1 <= y0; });
      while (next < rects.size() && rects[next].y0 <= y0)
        active.push_back(rects[next++]);
      std::ranges::sort(active, {}, &layout::PixelRect::x0);
      row_runs.clear();
      for (const layout::PixelRect& r : active) {
        if (!row_runs.empty() && r.x0 <= row_runs.back().x1)
          row_runs.back().x1 = std::max(row_runs.back().x1, r.x1);
        else
          row_runs.push_back({r.x0, r.x1});
      }
      s.add(y0, cuts[i + 1], row_runs);
    }
    return s;
  }
};

FeatureTensorExtractor::BlockPlan::BlockPlan(std::size_t block,
                                             std::size_t coeffs)
    : dct(block), kp(corner_for_prefix(block, std::min(coeffs, block * block))) {
  order = zigzag_order(kp);
  order.resize(std::min(coeffs, block * block));
  prefix.assign(kp * (block + 1), 0.0);
  for (std::size_t m = 0; m < kp; ++m) {
    double* p = &prefix[m * (block + 1)];
    for (std::size_t x = 0; x < block; ++x)
      p[x + 1] = p[x] + static_cast<double>(dct.basis()[m * block + x]);
  }
}

FeatureTensorExtractor::FeatureTensorExtractor(
    const FeatureTensorConfig& config)
    : config_(config) {
  HSDL_CHECK(config.blocks_per_side > 0);
  HSDL_CHECK(config.coeffs > 0);
  HSDL_CHECK(config.nm_per_px > 0.0);
}

const FeatureTensorExtractor::BlockPlan& FeatureTensorExtractor::plan_for(
    std::size_t block) const {
  // Lock-free fast path: extraction hits one block size almost always, so
  // the last plan used is published in an atomic. Plans are immutable and
  // never deallocated while the extractor lives, so a stale pointer is
  // safe to read — it either matches or we fall through to the mutex.
  const BlockPlan* cached = plan_cache_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->dct.block_size() == block) return *cached;
  std::lock_guard<std::mutex> lock(plans_mu_);
  for (const auto& [size, plan] : plans_) {
    if (size == block) {
      plan_cache_.store(plan.get(), std::memory_order_release);
      return *plan;
    }
  }
  plans_.emplace_back(block,
                      std::make_unique<BlockPlan>(block, config_.coeffs));
  const BlockPlan* fresh = plans_.back().second.get();
  plan_cache_.store(fresh, std::memory_order_release);
  return *fresh;
}

std::size_t FeatureTensorExtractor::block_side(std::size_t width,
                                               std::size_t height) const {
  const std::size_t n = config_.blocks_per_side;
  const std::size_t k = config_.coeffs;
  HSDL_CHECK_MSG(width == height,
                 "feature tensor extraction expects a square raster, got "
                     << width << "x" << height);
  HSDL_CHECK_MSG(width % n == 0, "raster side " << width
                                                << " is not divisible into "
                                                << n << " blocks");
  const std::size_t B = width / n;
  HSDL_CHECK_MSG(k <= B * B, "cannot keep " << k << " coefficients from a "
                                            << B << "x" << B << " block");
  return B;
}

std::size_t FeatureTensorExtractor::check_window(
    const geom::Rect& window) const {
  const layout::PixelGrid grid(window, config_.nm_per_px);
  return block_side(grid.width(), grid.height());
}

void FeatureTensorExtractor::start_extract(std::span<float> out) const {
  if (metrics::enabled()) {
    static metrics::Counter& tensors = metrics::counter("fte.tensors");
    static metrics::Counter& blocks = metrics::counter("fte.dct_blocks");
    tensors.increment();
    blocks.add(static_cast<std::uint64_t>(config_.blocks_per_side) *
               config_.blocks_per_side);
  }
  const std::size_t kn2 = config_.coeffs * config_.blocks_per_side *
                          config_.blocks_per_side;
  HSDL_CHECK_MSG(out.size() == kn2, "extract_into expects "
                                        << kn2 << " floats, got "
                                        << out.size());
}

void FeatureTensorExtractor::extract_into(const layout::MaskImage& raster,
                                          std::span<float> out) const {
  HSDL_TRACE_SPAN("fte.extract");
  const std::size_t B = block_side(raster.width(), raster.height());
  start_extract(out);
  if (runtime::reference_mode()) {
    extract_reference(raster, B, out);
    return;
  }
  extract_slabs(Slabs::from_raster(raster, B), B, out);
}

void FeatureTensorExtractor::extract_into(const layout::Clip& clip,
                                          std::span<float> out) const {
  const std::size_t B = check_window(clip.window);
  if (runtime::reference_mode()) {
    extract_into(layout::rasterize(clip, config_.nm_per_px), out);
    return;
  }
  HSDL_TRACE_SPAN("fte.extract");
  start_extract(out);
  const layout::PixelGrid grid(clip.window, config_.nm_per_px);
  extract_slabs(Slabs::from_clip(clip, grid, B), B, out);
}

void FeatureTensorExtractor::extract_slabs(const Slabs& slabs,
                                           std::size_t block,
                                           std::span<float> out) const {
  const std::size_t n = config_.blocks_per_side;
  const std::size_t k = config_.coeffs;
  const std::size_t B = block;
  const BlockPlan& plan = plan_for(B);
  const std::size_t kp = plan.kp;
  const double scale = config_.normalize ? 1.0 / static_cast<double>(B) : 1.0;

  // One block row at a time: acc[bx * k + c] is coefficient c of block
  // (by, bx); sy/sx are the basis integrals over a slab's rows and over a
  // run's piece inside one block column.
  std::vector<double> acc(n * k), sy(kp), sx(kp);
  const auto integral = [&](std::size_t lo, std::size_t hi,
                            std::vector<double>& s) {
    for (std::size_t m = 0; m < kp; ++m)
      s[m] = plan.prefix[m * (B + 1) + hi] - plan.prefix[m * (B + 1) + lo];
  };
  auto slab = slabs.slabs.begin();
  for (std::size_t by = 0; by < n; ++by) {
    std::ranges::fill(acc, 0.0);
    for (; slab != slabs.slabs.end() && slab->y0 < (by + 1) * B; ++slab) {
      integral(slab->y0 - by * B, slab->y1 - by * B, sy);
      for (std::size_t r = slab->begin; r < slab->end; ++r) {
        const Slabs::Run run = slabs.runs[r];
        for (std::size_t x = run.x0; x < run.x1;) {
          const std::size_t bx = x / B;
          const std::size_t xe = std::min(run.x1, (bx + 1) * B);
          integral(x - bx * B, xe - bx * B, sx);
          double* a = &acc[bx * k];
          for (std::size_t c = 0; c < k; ++c)
            a[c] += sy[plan.order[c].first] * sx[plan.order[c].second];
          x = xe;
        }
      }
    }
    for (std::size_t bx = 0; bx < n; ++bx)
      for (std::size_t c = 0; c < k; ++c)
        out[(c * n + by) * n + bx] =
            static_cast<float>(acc[bx * k + c] * scale);
  }
}

void FeatureTensorExtractor::extract_reference(const layout::MaskImage& raster,
                                               std::size_t block,
                                               std::span<float> out) const {
  const std::size_t n = config_.blocks_per_side;
  const std::size_t k = config_.coeffs;
  const std::size_t B = block;
  const BlockPlan& plan = plan_for(B);
  // Partial DCT: only the corner covering the first k zig-zag positions.
  const std::size_t kp = plan.kp;

  std::vector<float> pixels(B * B);
  std::vector<float> corner(kp * kp);
  std::vector<float> scan(k);
  const float scale = config_.normalize ? 1.0f / static_cast<float>(B) : 1.0f;
  for (std::size_t by = 0; by < n; ++by) {
    for (std::size_t bx = 0; bx < n; ++bx) {
      // Gather the block (row-major copy out of the raster).
      for (std::size_t y = 0; y < B; ++y) {
        const float* src = raster.row(by * B + y) + bx * B;
        std::copy(src, src + B, &pixels[y * B]);
      }
      plan.dct.partial(pixels.data(), kp, corner.data());
      zigzag_take(corner.data(), kp, k, scan.data());
      for (std::size_t c = 0; c < k; ++c)
        out[(c * n + by) * n + bx] = scan[c] * scale;
    }
  }
}

FeatureTensor FeatureTensorExtractor::extract(
    const layout::MaskImage& raster) const {
  FeatureTensor out = zero_tensor(config_);
  extract_into(raster, out.data);
  return out;
}

FeatureTensor FeatureTensorExtractor::extract(const layout::Clip& clip) const {
  FeatureTensor out = zero_tensor(config_);
  extract_into(clip, out.data);
  return out;
}

std::vector<FeatureTensor> FeatureTensorExtractor::extract_batch(
    std::span<const layout::Clip> clips) const {
  HSDL_TRACE_SPAN("fte.extract_batch");
  std::vector<FeatureTensor> out(clips.size());
  parallel_for(0, clips.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = extract(clips[i]);
  });
  return out;
}

layout::MaskImage FeatureTensorExtractor::reconstruct(
    const FeatureTensor& tensor, std::size_t block_px_arg) const {
  const std::size_t n = tensor.n;
  const std::size_t k = tensor.k;
  const std::size_t B = block_px_arg;
  HSDL_CHECK(n > 0 && k > 0 && B > 0);
  HSDL_CHECK(tensor.data.size() == k * n * n);
  HSDL_CHECK(k <= B * B);

  const DctPlan& plan = plan_for(B).dct;
  const std::size_t kp = corner_for_prefix(B, k);

  layout::MaskImage img(n * B, n * B, config_.nm_per_px);
  std::vector<float> scan(k);
  std::vector<float> corner(kp * kp);
  std::vector<float> block(B * B);
  const float unscale = config_.normalize ? static_cast<float>(B) : 1.0f;
  for (std::size_t by = 0; by < n; ++by) {
    for (std::size_t bx = 0; bx < n; ++bx) {
      for (std::size_t c = 0; c < k; ++c)
        scan[c] = tensor.at(c, by, bx) * unscale;
      zigzag_put(scan.data(), k, kp, corner.data());
      plan.inverse_partial(corner.data(), kp, block.data());
      for (std::size_t y = 0; y < B; ++y)
        std::copy_n(&block[y * B], B, img.row(by * B + y) + bx * B);
    }
  }
  return img;
}

}  // namespace hsdl::fte
