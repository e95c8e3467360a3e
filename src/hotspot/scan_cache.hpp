// Scored-window cache for hierarchical scans (DESIGN.md §16).
//
// A chip dominated by array placements scores the same window geometry
// millions of times: every instance of a cell sees the same clips at
// the same offsets modulo the scan pitch. A CellScanCache memoizes the
// detector probability per WindowKey (layout/layout_source.hpp) so a
// repeated placement replays the score instead of re-extracting and
// re-rasterizing and re-running the CNN.
//
// Correctness leans entirely on the WindowKey contract: equal keys mean
// bitwise-identical normalized clips, and the engine's determinism
// contract (engine/engine.hpp) means identical clips always score to
// bitwise-identical probabilities — so replaying a cached probability
// changes nothing about the scan output, only its cost. That holds for
// one (source, window size, model) combination only, so the first scan
// that uses a cache binds it to that combination: the source's
// fingerprint, the window size and the engine's model fingerprint
// (weights, threshold, fp32/int8 mode). A scan under any other binding
// throws instead of replaying scores from the wrong model or chip;
// clear() unbinds. Reusing one cache across scans of the same source
// with the same model is the intended pattern.
//
// Thread-safe: shards of a sharded scan share one cache under a mutex.
// The entry count is bounded; once full, new keys are counted as
// rejected and simply not cached (the scan stays correct, just slower).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "geom/coord.hpp"
#include "layout/layout_source.hpp"

namespace hsdl::hotspot {

class CellScanCache {
 public:
  /// `max_entries` bounds memory at ~48 bytes/entry; the default admits
  /// ~1M distinct (cell, offset) pairs.
  explicit CellScanCache(std::size_t max_entries = 1 << 20);

  /// What a cache's entries were scored under.
  struct Binding {
    std::uint64_t source_fingerprint = 0;
    geom::Coord window_size = 0;
    std::uint64_t model_fingerprint = 0;

    bool operator==(const Binding&) const = default;
  };

  /// Binds an unbound cache to `binding`; a no-op when it is already
  /// bound to the same one. Throws CheckError, naming both bindings,
  /// when it is bound to another. ChipScanner calls this before every
  /// scan that uses the cache.
  void bind(const Binding& binding);

  /// The cached probability for `key`, if any window with this key was
  /// already scored.
  std::optional<double> lookup(const layout::WindowKey& key) const;

  /// Records a scored window. Idempotent for equal keys (the contract
  /// makes every value for a key bitwise identical); a full cache drops
  /// the insert and counts it as rejected.
  void insert(const layout::WindowKey& key, double probability);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    /// Inserts dropped because the cache was at max_entries.
    std::uint64_t rejected = 0;

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Stats stats() const;

  std::size_t size() const;
  std::size_t max_entries() const { return max_entries_; }

  /// Drops every entry, zeroes the counters and unbinds the cache, so
  /// the next scan may use another source, window size or model.
  void clear();

 private:
  std::size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<layout::WindowKey, double, layout::WindowKeyHash> map_;
  mutable Stats stats_;
  std::optional<Binding> binding_;
};

}  // namespace hsdl::hotspot
