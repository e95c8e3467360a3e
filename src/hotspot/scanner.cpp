#include "hotspot/scanner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
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

/// Scores a band's clips into index-aligned probabilities.
using BandScorer =
    std::function<void(std::span<const layout::Clip>, std::span<double>)>;

/// Extracts and scores one band in phases: reuse keys + cache probes
/// per window, then an in-band dedup pass (the first window of each
/// distinct key is the representative, later ones alias it — crucial on
/// array-heavy chips where one band holds many congruent windows that
/// the cache cannot serve yet because inserts land only after the band
/// is scored), then extraction and one score_band call over the unique
/// misses only, then scatter + cache fill. Without a cache no window
/// has a key, so every window is a miss, scored in band order.
/// `parallel_extract` routes probing and extraction through the global
/// pool; shard workers pass false and work serially on their own thread
/// (the fork-join pool serializes top-level regions, so pool-routing
/// shard extraction would just add contention).
///
/// Determinism: equal keys guarantee bitwise-identical normalized clips
/// (the WindowKey contract) and the engine scores every sample
/// independently of its batch, so replaying cache hits and aliasing
/// in-band duplicates — in row-major order — yields bitwise the same
/// probabilities as extracting and scoring the full band.
void score_one_band(const ScanGrid& grid, std::size_t band_index,
                    const layout::LayoutSource& source,
                    const BandScorer& score_band, CellScanCache* cache,
                    bool parallel_extract, std::vector<layout::Clip>& band,
                    std::vector<double>& probs, std::size_t& from_cache) {
  const std::size_t row_lo = grid.band_row_begin(band_index);
  const std::size_t rows = grid.band_row_end(band_index) - row_lo;
  const std::size_t nx = grid.cols();
  const std::size_t total = rows * nx;
  probs.assign(total, 0.0);
  from_cache = 0;
  const auto run = [&](std::size_t n,
                       const std::function<void(std::size_t, std::size_t)>&
                           body) {
    if (parallel_extract)
      parallel_for(0, n, 1, body);
    else
      body(0, n);
  };

  // Phase 1: reuse keys and cache probes (cheap — no extraction yet).
  std::vector<std::optional<layout::WindowKey>> keys(total);
  std::vector<char> hit(total, 0);
  if (cache != nullptr) {
    HSDL_TRACE_SPAN("scan.probe_band");
    run(rows, [&](std::size_t rb, std::size_t re) {
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
    });
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
    run(miss_idx.size(), [&](std::size_t kb, std::size_t ke) {
      for (std::size_t k = kb; k < ke; ++k) {
        const std::size_t idx = miss_idx[k];
        band[k] = source.extract_clip(grid.window(row_lo + idx / nx, idx % nx))
                      .normalized();
      }
    });
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

void record_metrics(const ScanConfig& config, const ScanGrid& grid,
                    const ScanReport& report) {
  if (!metrics::enabled()) return;
  static metrics::Counter& windows = metrics::counter("scan.windows");
  static metrics::Counter& hits = metrics::counter("scan.hits");
  static metrics::Gauge& wps = metrics::gauge("scan.windows_per_sec");
  static metrics::Gauge& depth = metrics::gauge("scan.band_rows");
  windows.add(report.windows_scanned);
  hits.add(report.hits.size());
  wps.set(report.windows_per_second());
  depth.set(static_cast<double>(std::min(config.band_rows, grid.rows())));
  if (report.windows_from_cache == 0) return;
  static metrics::Counter& cached = metrics::counter("scan.cache_hits");
  static metrics::Counter& scored = metrics::counter("scan.cache_misses");
  static metrics::Gauge& rate = metrics::gauge("scan.window_reuse_fraction");
  cached.add(report.windows_from_cache);
  scored.add(report.windows_scanned - report.windows_from_cache);
  rate.set(static_cast<double>(report.windows_from_cache) /
           static_cast<double>(report.windows_scanned));
}

/// The one band loop. Bands the journal already holds are replayed;
/// the rest go to min(shards, bands left) workers, each scoring through
/// its own make_scorer(worker) scorer. One worker runs on the calling
/// thread and extracts through the global pool; more workers each run
/// a thread (worker 0 the caller's) and extract serially. Each finished
/// band is journaled, and bands merge in row-major band order, so the
/// hit list is bitwise what a serial scan produces whatever the shard
/// count, interleaving or resume point.
ScanReport scan_grid(const ScanConfig& config,
                     const layout::LayoutSource& source, double threshold,
                     std::size_t shards,
                     const std::function<BandScorer(std::size_t)>& make_scorer,
                     ScanJournal* journal, CellScanCache* cache) {
  HSDL_TRACE_SPAN("scan");
  WallTimer timer;
  const ScanGrid grid(source.extent(), config);
  const std::size_t nx = grid.cols();

  std::vector<std::size_t> todo;
  for (std::size_t b = 0; b < grid.bands(); ++b)
    if (journal == nullptr || !journal->has(b)) todo.push_back(b);
  const std::size_t workers = std::min(shards, todo.size());
  std::vector<BandScorer> scorers;
  for (std::size_t w = 0; w < workers; ++w) scorers.push_back(make_scorer(w));

  std::vector<BandResult> scored(grid.bands());
  std::atomic<std::size_t> from_cache{0};
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex journal_mu;
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](std::size_t w) {
    try {
      std::vector<layout::Clip> clips;
      std::vector<double> probs;
      for (std::size_t k = next++; k < todo.size() && !failed; k = next++) {
        const std::size_t b = todo[k];
        // Chaos hook: a fired "scan.band" fault simulates the process
        // dying at the start of this band — journaled bands stay durable.
        if (fault::armed() && fault::fail_point("scan.band"))
          throw CheckError("scan: injected failure at band " +
                           std::to_string(b));
        std::size_t band_from_cache = 0;
        score_one_band(grid, b, source, scorers[w], cache,
                       /*parallel_extract=*/workers == 1, clips, probs,
                       band_from_cache);
        from_cache += band_from_cache;
        BandResult& out = scored[b];
        out.band_index = b;
        const std::size_t row_lo = grid.band_row_begin(b);
        const std::size_t rows = grid.band_row_end(b) - row_lo;
        out.windows = rows * nx;
        // Sized up front, here and in the merge: growing hit vectors
        // band after band costs a dense-hit scan more than the count.
        out.hits.reserve(static_cast<std::size_t>(std::count_if(
            probs.begin(), probs.end(),
            [&](double p) { return is_flagged(p, threshold); })));
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t i = 0; i < nx; ++i) {
            const double p = probs[r * nx + i];
            if (is_flagged(p, threshold))
              out.hits.push_back({grid.window(row_lo + r, i), p});
          }
        if (journal != nullptr) {
          std::lock_guard<std::mutex> lk(journal_mu);
          journal->append(out);
          out = BandResult{};  // the journal's copy is the one merged
        }
      }
    } catch (...) {
      errors[w] = std::current_exception();
      failed = true;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
  if (workers > 0) work(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // With a journal every band is in it by now, replayed or appended.
  const auto result = [&](std::size_t b) -> const BandResult& {
    return journal != nullptr ? *journal->result(b) : scored[b];
  };
  ScanReport report;
  report.windows_from_cache = from_cache;
  std::size_t hits = 0;
  for (std::size_t b = 0; b < grid.bands(); ++b) hits += result(b).hits.size();
  report.hits.reserve(hits);
  for (std::size_t b = 0; b < grid.bands(); ++b) {
    report.windows_scanned += result(b).windows;
    report.hits.insert(report.hits.end(), result(b).hits.begin(),
                       result(b).hits.end());
  }
  report.scan_seconds = timer.seconds();
  record_metrics(config, grid, report);
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
  detector.extractor().check_window(
      geom::Rect::from_xywh(0, 0, window_size, window_size));
}

ChipScanner::ChipScanner(const ScanConfig& config) : config_(config) {
  config_.validate();
}

ScanReport ChipScanner::scan(const layout::LayoutSource& source,
                             const Detector& detector) const {
  if (const auto* cnn = dynamic_cast<const CnnDetector*>(&detector)) {
    // Production path: a scan-local engine extracts and forwards
    // windows in micro-batches. Results are bitwise identical to the
    // per-clip path (DESIGN.md §11).
    InferenceEngine engine(*cnn);
    return scan(source, engine);
  }
  const BandScorer score_band = [&](std::span<const layout::Clip> clips,
                                    std::span<double> out) {
    const std::vector<double> p = detector.predict_probabilities(clips);
    std::copy(p.begin(), p.end(), out.begin());
  };
  return scan_grid(
      config_, source, detector.decision_threshold(), /*shards=*/1,
      [&](std::size_t) { return score_band; }, nullptr, nullptr);
}

ScanReport ChipScanner::scan(const layout::LayoutSource& source,
                             InferenceEngine& engine, CellScanCache* cache,
                             const ScanOptions& options) const {
  HSDL_CHECK_MSG(options.shards >= 1,
                 "scan: shards must be >= 1, got " << options.shards);
  config_.validate_for(engine.detector());
  if (cache != nullptr)
    cache->bind({source.fingerprint(), config_.window_size,
                 engine.model_fingerprint()});
  std::optional<ScanJournal> journal;
  if (!options.journal_path.empty())
    journal.emplace(options.journal_path,
                    ScanJournal::fingerprint(config_, source.extent(),
                                             source.fingerprint(),
                                             engine.model_fingerprint()));

  // Worker 0 scores on the caller's engine. Every further shard gets an
  // engine of its own built like it (same detector, same config); the
  // cache is the only state the shards share, and every value two of
  // them could race to insert under one key is bitwise identical.
  std::vector<std::unique_ptr<InferenceEngine>> shard_engines;
  const auto make_scorer = [&](std::size_t worker) -> BandScorer {
    InferenceEngine* e = &engine;
    if (worker > 0)
      e = shard_engines
              .emplace_back(std::make_unique<InferenceEngine>(
                  engine.detector(), engine.config()))
              .get();
    return [e](std::span<const layout::Clip> clips, std::span<double> out) {
      e->score_into(clips, out);
    };
  };
  ScanReport report =
      scan_grid(config_, source, engine.detector().decision_threshold(),
                options.shards, make_scorer, journal ? &*journal : nullptr,
                cache);
  // The scan is complete; stale resume state must not leak into a
  // future scan of a (possibly different) chip at the same path.
  if (journal) journal->remove();
  return report;
}

}  // namespace hsdl::hotspot
