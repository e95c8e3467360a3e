// Crash-safe scan journal (DESIGN.md §14): band-granular resume state
// for full-chip scans.
//
// A resumable scan appends one checksummed record per completed band to
// an on-disk journal. If the process dies mid-scan (crash, OOM kill,
// chaos fault), rerunning the scan against the same journal replays the
// completed bands from disk and only scores the remainder — the merged
// report is bitwise identical to an uninterrupted scan, because bands
// are merged in the same row-major order either way.
//
// Format: an 8-byte magic ("HSDLSCNJ") + u32 version + u32 flags header
// followed by a u64 scan fingerprint and a u32 CRC of the header bytes,
// then self-delimiting records of the form
//
//   u32 payload_len | payload | u32 crc32(payload)
//
// where payload = u64 band_index, u64 windows, u32 hit_count, then per
// hit the window rect (4 x i64) and its probability (f64). On open the
// journal parses the longest valid prefix and truncates any torn or
// corrupt tail — a record half-written at the moment of death is
// discarded and that band is simply rescanned.
//
// The fingerprint covers the scan geometry (window, stride, band rows,
// chip extent), the layout source's content and the scoring model
// (CnnDetector::model_fingerprint: weights, threshold, fp32/int8 mode),
// so a journal is never replayed against a different grid, chip or
// model. The version moves when the kernels' numerics do (version 2:
// the FMA convolution), and a journal of another version starts fresh.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "hotspot/scanner.hpp"

namespace hsdl::hotspot {

/// One completed band: its ordinal in the scan, how many windows it
/// covered, and the hits it produced (in row-major scan order).
struct BandResult {
  std::uint64_t band_index = 0;
  std::uint64_t windows = 0;
  std::vector<ScanHit> hits;
};

class ScanJournal {
 public:
  /// Opens (or creates) the journal at `path`. An existing file with a
  /// matching fingerprint is resumed: its valid record prefix is loaded
  /// and any torn tail truncated in place. A missing file, a damaged
  /// header or a fingerprint mismatch starts a fresh journal (the old
  /// contents are discarded — they describe a different scan).
  ScanJournal(std::string path, std::uint64_t fingerprint);

  /// Scan-geometry fingerprint for `config` over `extent`, mixed with
  /// the layout source's content fingerprint and the scoring model's
  /// fingerprint; two scans share a journal iff all four match (so a
  /// journal recorded against one chip or model can never be replayed
  /// into a scan of different geometry, source or model).
  static std::uint64_t fingerprint(const ScanConfig& config,
                                   const geom::Rect& extent,
                                   std::uint64_t source_fingerprint = 0,
                                   std::uint64_t model_fingerprint = 0);

  /// True when `band_index` was already completed by a previous run.
  bool has(std::uint64_t band_index) const {
    return bands_.find(band_index) != bands_.end();
  }

  /// The journaled result for `band_index`, or nullptr.
  const BandResult* result(std::uint64_t band_index) const;

  /// Appends a completed band and flushes it to disk before returning,
  /// so a crash after append never loses the band.
  void append(const BandResult& band);

  /// Number of completed bands on record.
  std::size_t bands() const { return bands_.size(); }

  /// Whether the open resumed prior state (vs started fresh).
  bool resumed() const { return resumed_; }

  const std::string& path() const { return path_; }

  /// Closes and deletes the journal file — called once the scan it
  /// backs has completed and the resume state is no longer needed.
  void remove();

 private:
  /// Loads the valid prefix of an existing file; returns false when the
  /// header is missing/damaged or the fingerprint differs.
  bool load_existing();
  void start_fresh();

  std::string path_;
  std::uint64_t fingerprint_;
  bool resumed_ = false;
  std::unordered_map<std::uint64_t, BandResult> bands_;
  std::ofstream out_;
};

}  // namespace hsdl::hotspot
