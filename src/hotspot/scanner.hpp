// Full-chip hotspot scanning.
//
// Slides a clip-sized window over a LayoutSource (flat Layout adapter
// or hierarchical HierLayout adapter — layout/layout_source.hpp) at a
// configurable stride and classifies each window with any Detector,
// producing a hotspot map —
// the production flow the paper targets: replace full-chip lithography
// simulation (10 s/clip) with millisecond ML screening and simulate only
// the flagged windows. CNN detectors are routed through the batched
// InferenceEngine (DESIGN.md §11), which extracts and forwards windows
// in micro-batches.
//
// One scan loop serves every mode: a CellScanCache replays repeated
// windows, ScanOptions::journal_path makes the scan crash-safe and
// ScanOptions::shards spreads bands over engines. The modes compose,
// and each one leaves the report bitwise unchanged.
#pragma once

#include <string>
#include <vector>

#include "hotspot/detector.hpp"
#include "layout/layout_source.hpp"

namespace hsdl::hotspot {

class InferenceEngine;
class CellScanCache;

struct ScanConfig {
  geom::Coord window_size = 1200;  ///< nm, must match the detector's input
  geom::Coord stride = 1200;       ///< nm; < window_size scans with overlap
  /// Window rows scored per band. Bands are the unit of parallel
  /// extraction, of deterministic merge order and of resumable-scan
  /// journaling; smaller bands checkpoint more often at a little more
  /// batching overhead.
  std::size_t band_rows = 16;

  /// Rejects nonsense configurations (non-positive window or stride)
  /// with a positioned error. The scanner constructor calls this.
  void validate() const;

  /// validate() plus the detector's FeatureTensorExtractor::check_window
  /// on a window_size square: it must rasterize to a whole pixel count
  /// at the detector's raster pitch, divisible into its feature-tensor
  /// blocks. Called on every engine-routed scan so a mismatch fails
  /// with a positioned message instead of an assertion deep inside
  /// extraction.
  void validate_for(const CnnDetector& detector) const;
};

/// How ChipScanner::scan runs; the defaults score every band on the
/// calling thread with nothing journaled.
struct ScanOptions {
  /// Crash-safe scan: completed bands are journaled (checksummed,
  /// band-granular) to this path as the scan progresses. If a previous
  /// run died mid-scan, the journaled bands are replayed from disk and
  /// only the remainder is scored. The file is deleted once the scan
  /// completes. Empty: no journal.
  std::string journal_path;
  /// Band workers. 1 scores bands in order on the calling thread, with
  /// extraction spread over the global pool. More run that many
  /// workers, never more than the bands left to score; each owns an
  /// engine and extracts serially on its own thread. Must be >= 1.
  std::size_t shards = 1;
};

struct ScanHit {
  geom::Rect window;
  /// The detector's hotspot probability for this window (degenerates to
  /// 1.0 for detectors that only expose a binary predict()).
  double probability = 1.0;
};

struct ScanReport {
  std::size_t windows_scanned = 0;
  /// Of windows_scanned, how many were served by reuse identity instead
  /// of being extracted and scored: CellScanCache replays plus in-band
  /// duplicates aliased to a congruent window scored in the same band
  /// (0 without a cache).
  std::size_t windows_from_cache = 0;
  std::vector<ScanHit> hits;
  double scan_seconds = 0.0;

  double flagged_fraction() const {
    return windows_scanned == 0
               ? 0.0
               : static_cast<double>(hits.size()) /
                     static_cast<double>(windows_scanned);
  }
  /// Screening throughput — the paper's headline contrast with the
  /// 10 s/clip lithography simulation this flow replaces.
  double windows_per_second() const {
    return scan_seconds <= 0.0
               ? 0.0
               : static_cast<double>(windows_scanned) / scan_seconds;
  }
  /// ODST of the screening flow: sim time on flagged windows + scan time.
  double odst_seconds() const {
    return kLithoSimSecondsPerClip * static_cast<double>(hits.size()) +
           scan_seconds;
  }
  /// ODST of brute-force simulation of every window (the paper's
  /// "conventional method" strawman).
  double full_simulation_seconds() const {
    return kLithoSimSecondsPerClip * static_cast<double>(windows_scanned);
  }
};

class ChipScanner {
 public:
  explicit ChipScanner(const ScanConfig& config = {});

  const ScanConfig& config() const { return config_; }

  /// Classifies every window position over the source's extent. When
  /// the stride does not tile the extent exactly, the final row/column
  /// of windows is clamped to the far edge so the trailing band is
  /// still scanned (those windows overlap their predecessors); a
  /// clamped position that coincides with an interior grid position is
  /// deduplicated, so no window rect is ever scanned or reported twice.
  /// CNN detectors are scored through a scan-local InferenceEngine;
  /// other detectors use their batched predict_probabilities path.
  ScanReport scan(const layout::LayoutSource& source,
                  const Detector& detector) const;

  /// Scans through a caller-owned engine (reuse one engine — and its
  /// warm workspace arena — across many chips).
  ///
  /// With a cache, windows whose WindowKey was already scored are
  /// replayed instead of extracted + scored. The first scan binds the
  /// cache to this source, window size and engine model; a scan under
  /// another binding throws CheckError.
  ///
  /// With options.journal_path set, the journal fingerprints the scan
  /// geometry, the source's content and the engine's model (weights,
  /// threshold, fp32/int8 mode): a journal left by a different scan is
  /// discarded and every band rescanned.
  ///
  /// With options.shards > 1, bands are scored concurrently; shard 0
  /// uses `engine`, the others engines built from engine.detector() and
  /// engine.config(). Results merge in row-major band order.
  ///
  /// Cache, journal and shards compose, and the report is bitwise
  /// identical to a plain scan under any of them (the WindowKey
  /// contract plus the engine's per-sample determinism), whatever the
  /// shard count of the run that wrote a resumed journal.
  ScanReport scan(const layout::LayoutSource& source, InferenceEngine& engine,
                  CellScanCache* cache = nullptr,
                  const ScanOptions& options = {}) const;

 private:
  ScanConfig config_;
};

}  // namespace hsdl::hotspot
