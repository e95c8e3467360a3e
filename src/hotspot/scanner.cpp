#include "hotspot/scanner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "hotspot/band_iter.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scan_cache.hpp"
#include "hotspot/scan_journal.hpp"

namespace hsdl::hotspot {
namespace {

/// Extracts and scores one band. With a cache the band runs in phases:
/// reuse keys + cache probes per window, then an in-band dedup pass
/// (the first window of each distinct key is the representative, later
/// ones alias it — crucial on array-heavy chips where one band holds
/// many congruent windows that the cache cannot serve yet because
/// inserts land only after the band is scored), then extraction and one
/// score_band call over the unique misses only, then scatter + cache
/// fill. `parallel_extract` routes extraction through the global pool;
/// shard workers pass false and extract serially on their own thread
/// (the fork-join pool serializes top-level regions, so pool-routing
/// shard extraction would just add contention).
///
/// Determinism: equal keys guarantee bitwise-identical normalized clips
/// (the WindowKey contract) and the engine scores every sample
/// independently of its batch, so replaying cache hits and aliasing
/// in-band duplicates — in row-major order — yields bitwise the same
/// probabilities as extracting and scoring the full band.
template <typename ScoreBand>
void score_one_band(const ScanGrid& grid, std::size_t band_index,
                    const layout::LayoutSource& source,
                    ScoreBand&& score_band, CellScanCache* cache,
                    bool parallel_extract, std::vector<layout::Clip>& band,
                    std::vector<double>& probs, std::size_t& from_cache) {
  const std::size_t row_lo = grid.band_row_begin(band_index);
  const std::size_t rows = grid.band_row_end(band_index) - row_lo;
  const std::size_t nx = grid.cols();
  const std::size_t total = rows * nx;
  probs.assign(total, 0.0);
  from_cache = 0;

  if (cache == nullptr) {
    band.assign(total, layout::Clip{});
    {
      HSDL_TRACE_SPAN("scan.extract_band");
      const auto extract_rows = [&](std::size_t rb, std::size_t re) {
        for (std::size_t r = rb; r < re; ++r)
          for (std::size_t i = 0; i < nx; ++i)
            band[r * nx + i] =
                source.extract_clip(grid.window(row_lo + r, i)).normalized();
      };
      if (parallel_extract)
        parallel_for(0, rows, 1, extract_rows);
      else
        extract_rows(0, rows);
    }
    HSDL_TRACE_SPAN("scan.classify_band");
    score_band(std::span<const layout::Clip>(band.data(), total),
               std::span<double>(probs.data(), total));
    return;
  }

  // Phase 1: reuse keys and cache probes (cheap — no extraction yet).
  std::vector<std::optional<layout::WindowKey>> keys(total);
  std::vector<char> hit(total, 0);
  {
    HSDL_TRACE_SPAN("scan.probe_band");
    const auto probe_rows = [&](std::size_t rb, std::size_t re) {
      for (std::size_t r = rb; r < re; ++r) {
        for (std::size_t i = 0; i < nx; ++i) {
          const std::size_t idx = r * nx + i;
          keys[idx] = source.window_key(grid.window(row_lo + r, i));
          if (keys[idx]) {
            if (const std::optional<double> p = cache->lookup(*keys[idx])) {
              probs[idx] = *p;
              hit[idx] = 1;
            }
          }
        }
      }
    };
    if (parallel_extract)
      parallel_for(0, rows, 1, probe_rows);
    else
      probe_rows(0, rows);
  }

  // Phase 2: in-band dedup. miss_idx holds the windows that will be
  // extracted and scored; aliases map a duplicate window to the miss
  // slot of its representative.
  std::unordered_map<layout::WindowKey, std::size_t, layout::WindowKeyHash>
      rep;
  std::vector<std::size_t> miss_idx;
  std::vector<std::pair<std::size_t, std::size_t>> aliases;
  miss_idx.reserve(total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    if (hit[idx]) {
      ++from_cache;
      continue;
    }
    if (keys[idx]) {
      const auto [it, inserted] = rep.try_emplace(*keys[idx], miss_idx.size());
      if (!inserted) {
        aliases.emplace_back(idx, it->second);
        ++from_cache;
        continue;
      }
    }
    miss_idx.push_back(idx);
  }

  // Phase 3: extract only the unique misses.
  band.assign(miss_idx.size(), layout::Clip{});
  {
    HSDL_TRACE_SPAN("scan.extract_band");
    const auto extract_misses = [&](std::size_t kb, std::size_t ke) {
      for (std::size_t k = kb; k < ke; ++k) {
        const std::size_t idx = miss_idx[k];
        band[k] = source.extract_clip(grid.window(row_lo + idx / nx, idx % nx))
                      .normalized();
      }
    };
    if (parallel_extract)
      parallel_for(0, miss_idx.size(), 1, extract_misses);
    else
      extract_misses(0, miss_idx.size());
  }

  HSDL_TRACE_SPAN("scan.classify_band");
  std::vector<double> miss_probs(miss_idx.size(), 0.0);
  if (!miss_idx.empty())
    score_band(std::span<const layout::Clip>(band.data(), band.size()),
               std::span<double>(miss_probs.data(), miss_probs.size()));
  for (std::size_t k = 0; k < miss_idx.size(); ++k) {
    const std::size_t idx = miss_idx[k];
    probs[idx] = miss_probs[k];
    if (keys[idx]) cache->insert(*keys[idx], miss_probs[k]);
  }
  for (const auto& [idx, slot] : aliases) probs[idx] = miss_probs[slot];
}

void record_cache_metrics(const ScanReport& report) {
  if (!metrics::enabled() || report.windows_from_cache == 0) return;
  static metrics::Counter& cached = metrics::counter("scan.cache_hits");
  static metrics::Counter& scored = metrics::counter("scan.cache_misses");
  static metrics::Gauge& rate = metrics::gauge("scan.cache_hit_rate");
  cached.add(report.windows_from_cache);
  scored.add(report.windows_scanned - report.windows_from_cache);
  rate.set(report.windows_scanned == 0
               ? 0.0
               : static_cast<double>(report.windows_from_cache) /
                     static_cast<double>(report.windows_scanned));
}

/// Shared grid walk. Bands keep the hit list deterministic: clip
/// extraction is parallel over window rows, then the band is scored and
/// the results merged serially in row-major scan order, so hits come
/// out exactly as a serial scan would produce them.
template <typename ScoreBand>
ScanReport scan_grid(const ScanConfig& config,
                     const layout::LayoutSource& source, double threshold,
                     ScoreBand&& score_band, ScanJournal* journal = nullptr,
                     CellScanCache* cache = nullptr) {
  HSDL_TRACE_SPAN("scan");
  ScanReport report;
  WallTimer timer;
  const ScanGrid grid(source.extent(), config);
  const std::size_t nx = grid.cols();

  std::vector<layout::Clip> band;
  std::vector<double> probs;
  for (std::size_t b = 0; b < grid.bands(); ++b) {
    if (journal != nullptr) {
      // Replay bands a previous run already completed: same windows,
      // same hits, no scoring. Bands are visited in the same order
      // either way, so the merged hit list is bitwise identical.
      if (const BandResult* done = journal->result(b)) {
        report.windows_scanned += done->windows;
        report.hits.insert(report.hits.end(), done->hits.begin(),
                           done->hits.end());
        continue;
      }
    }
    // Chaos hook: a fired "scan.band" fault simulates the process dying
    // at the start of this band — already-journaled bands stay durable.
    if (fault::armed() && fault::fail_point("scan.band"))
      throw CheckError("scan: injected failure at band " + std::to_string(b));
    std::size_t from_cache = 0;
    score_one_band(grid, b, source, score_band, cache,
                   /*parallel_extract=*/true, band, probs, from_cache);
    const std::size_t row_lo = grid.band_row_begin(b);
    const std::size_t rows = grid.band_row_end(b) - row_lo;
    report.windows_scanned += rows * nx;
    report.windows_from_cache += from_cache;
    const std::size_t first_hit = report.hits.size();
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t i = 0; i < nx; ++i) {
        const double p = probs[r * nx + i];
        if (is_flagged(p, threshold))
          report.hits.push_back({grid.window(row_lo + r, i), p});
      }
    }
    if (journal != nullptr) {
      BandResult done;
      done.band_index = b;
      done.windows = rows * nx;
      done.hits.assign(report.hits.begin() +
                           static_cast<std::ptrdiff_t>(first_hit),
                       report.hits.end());
      journal->append(done);
    }
  }
  report.scan_seconds = timer.seconds();
  if (metrics::enabled()) {
    static metrics::Counter& windows = metrics::counter("scan.windows");
    static metrics::Counter& hits = metrics::counter("scan.hits");
    static metrics::Gauge& wps = metrics::gauge("scan.windows_per_sec");
    static metrics::Gauge& depth = metrics::gauge("scan.band_rows");
    windows.add(report.windows_scanned);
    hits.add(report.hits.size());
    wps.set(report.windows_per_second());
    depth.set(static_cast<double>(std::min(config.band_rows, grid.rows())));
  }
  record_cache_metrics(report);
  return report;
}

}  // namespace

void ScanConfig::validate() const {
  HSDL_CHECK_MSG(window_size > 0,
                 "scan config: window_size must be positive, got "
                     << window_size);
  HSDL_CHECK_MSG(stride > 0,
                 "scan config: stride must be positive, got " << stride);
  HSDL_CHECK_MSG(band_rows > 0, "scan config: band_rows must be positive");
}

void ScanConfig::validate_for(const CnnDetector& detector) const {
  validate();
  const fte::FeatureTensorConfig& f = detector.extractor().config();
  const double px = static_cast<double>(window_size) / f.nm_per_px;
  HSDL_CHECK_MSG(std::abs(px - std::round(px)) < 1e-9,
                 "scan config: window_size "
                     << window_size
                     << " nm is not an integer number of pixels at "
                     << f.nm_per_px << " nm/px");
  const auto side = static_cast<std::size_t>(std::llround(px));
  HSDL_CHECK_MSG(side % f.blocks_per_side == 0,
                 "scan config: window_size "
                     << window_size << " nm rasterizes to " << side
                     << " px, which does not divide into the detector's "
                     << f.blocks_per_side << "x" << f.blocks_per_side
                     << " feature-tensor blocks");
}

ChipScanner::ChipScanner(const ScanConfig& config) : config_(config) {
  config_.validate();
}

ScanReport ChipScanner::scan(const layout::LayoutSource& source,
                             const Detector& detector) const {
  if (const auto* cnn = dynamic_cast<const CnnDetector*>(&detector)) {
    // Production path: a scan-local engine overlaps feature extraction
    // with the batched CNN forward pass. Results are bitwise identical
    // to the per-clip path (DESIGN.md §11).
    InferenceEngine engine(*cnn);
    return scan(source, engine);
  }
  return scan_grid(
      config_, source, detector.decision_threshold(),
      [&](std::span<const layout::Clip> clips, std::span<double> out) {
        const std::vector<double> p = detector.predict_probabilities(clips);
        std::copy(p.begin(), p.end(), out.begin());
      });
}

ScanReport ChipScanner::scan(const layout::LayoutSource& source,
                             InferenceEngine& engine,
                             CellScanCache* cache) const {
  config_.validate_for(engine.detector());
  return scan_grid(
      config_, source, engine.detector().decision_threshold(),
      [&](std::span<const layout::Clip> clips, std::span<double> out) {
        engine.score_into(clips, out);
      },
      nullptr, cache);
}

ScanReport ChipScanner::scan_resumable(const layout::LayoutSource& source,
                                       InferenceEngine& engine,
                                       const std::string& journal_path,
                                       CellScanCache* cache) const {
  config_.validate_for(engine.detector());
  ScanJournal journal(journal_path,
                      ScanJournal::fingerprint(config_, source.extent(),
                                               source.fingerprint()));
  ScanReport report = scan_grid(
      config_, source, engine.detector().decision_threshold(),
      [&](std::span<const layout::Clip> clips, std::span<double> out) {
        engine.score_into(clips, out);
      },
      &journal, cache);
  // The scan is complete; stale resume state must not leak into a
  // future scan of a (possibly different) chip at the same path.
  journal.remove();
  return report;
}

ScanReport ChipScanner::scan_sharded(const layout::LayoutSource& source,
                                     const CnnDetector& detector,
                                     std::size_t shards,
                                     CellScanCache* cache) const {
  HSDL_CHECK_MSG(shards >= 1, "scan: shards must be >= 1, got " << shards);
  config_.validate_for(detector);
  if (shards == 1) {
    InferenceEngine engine(detector);
    return scan(source, engine, cache);
  }
  HSDL_TRACE_SPAN("scan.sharded");
  WallTimer timer;
  const ScanGrid grid(source.extent(), config_);
  const double threshold = detector.decision_threshold();
  const std::size_t nbands = grid.bands();
  const std::size_t nx = grid.cols();

  struct ShardBand {
    std::size_t windows = 0;
    std::size_t from_cache = 0;
    std::vector<ScanHit> hits;
  };
  std::vector<ShardBand> bands(nbands);
  std::vector<std::exception_ptr> errors(shards);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers.emplace_back([&, s] {
      try {
        // Each shard owns an engine (and its arena); the cache is the
        // only shared mutable state, and every value two shards could
        // race to insert under one key is bitwise identical.
        InferenceEngine engine(detector);
        std::vector<layout::Clip> scratch;
        std::vector<double> probs;
        for (std::size_t b = s; b < nbands; b += shards) {
          if (fault::armed() && fault::fail_point("scan.band"))
            throw CheckError("scan: injected failure at band " +
                             std::to_string(b));
          ShardBand& out = bands[b];
          score_one_band(
              grid, b, source,
              [&](std::span<const layout::Clip> clips,
                  std::span<double> o) { engine.score_into(clips, o); },
              cache, /*parallel_extract=*/false, scratch, probs,
              out.from_cache);
          const std::size_t row_lo = grid.band_row_begin(b);
          const std::size_t rows = grid.band_row_end(b) - row_lo;
          out.windows = rows * nx;
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t i = 0; i < nx; ++i) {
              const double p = probs[r * nx + i];
              if (is_flagged(p, threshold))
                out.hits.push_back({grid.window(row_lo + r, i), p});
            }
        }
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // Merge in band order: the report is independent of shard count and
  // interleaving, bitwise identical to the 1-shard scan.
  ScanReport report;
  for (const ShardBand& b : bands) {
    report.windows_scanned += b.windows;
    report.windows_from_cache += b.from_cache;
    report.hits.insert(report.hits.end(), b.hits.begin(), b.hits.end());
  }
  report.scan_seconds = timer.seconds();
  if (metrics::enabled()) {
    static metrics::Counter& windows = metrics::counter("scan.windows");
    static metrics::Counter& hits = metrics::counter("scan.hits");
    static metrics::Gauge& wps = metrics::gauge("scan.windows_per_sec");
    windows.add(report.windows_scanned);
    hits.add(report.hits.size());
    wps.set(report.windows_per_second());
  }
  record_cache_metrics(report);
  return report;
}

}  // namespace hsdl::hotspot
